"""Materialized views over continual queries — CQ composition.

Section 2 credits Alert's active queries with being definable "on
multiple tables, on views, and ... nested within other active
queries". This module brings that to DRA-backed CQs: a
:class:`MaterializedView` subscribes to one CQ's notifications and
maintains its result as a *real table* in the same database — which
further CQs can then query, join against base tables, aggregate over,
or materialize again. Every layer refreshes differentially: the view
table's update log carries exactly the deltas the upstream CQ
delivered, so downstream DRA sees ordinary differential relations.

The upstream CQ must deliver deltas (DIFFERENTIAL or COMPLETE mode).
View rows are keyed by the upstream result tids through the same
key-mapping machinery the DIOM translators use.
"""

from __future__ import annotations


from repro.errors import RegistrationError
from repro.relational.schema import Schema
from repro.storage.table import Table
from repro.storage.update_log import UpdateKind
from repro.core.continual_query import DeliveryMode
from repro.core.manager import CQManager
from repro.core.results import Notification, NotificationKind
from repro.sources.base import MirrorAdapter, Source, SourceEvent


class _NotificationSource(Source):
    """Buffers CQ notifications as translator events."""

    def __init__(self, schema: Schema):
        self._schema = schema
        self._pending = []

    @property
    def schema(self) -> Schema:
        return self._schema

    def push_initial(self, result) -> None:
        for row in result:
            self._pending.append(
                SourceEvent(UpdateKind.INSERT, row.tid, row.values)
            )

    def push_delta(self, delta) -> None:
        for entry in delta:
            if entry.old is None:
                self._pending.append(
                    SourceEvent(UpdateKind.INSERT, entry.tid, entry.new)
                )
            elif entry.new is None:
                self._pending.append(
                    SourceEvent(UpdateKind.DELETE, entry.tid, None)
                )
            else:
                self._pending.append(
                    SourceEvent(UpdateKind.MODIFY, entry.tid, entry.new)
                )

    def drain(self):
        out, self._pending = self._pending, []
        return out


class MaterializedView:
    """Maintains one CQ's result as a queryable table.

    >>> view = MaterializedView(manager, "hot-stocks", "hot")
    >>> manager.register_sql("hot-count",
    ...     "SELECT COUNT(*) AS n FROM hot")   # a CQ over a CQ

    Synchronization is immediate: the view applies each upstream
    notification inside the notification callback, so by the time the
    manager finishes an execution the view table is current and any
    downstream CQ (in IMMEDIATE strategy) has already been offered the
    change.
    """

    def __init__(
        self,
        manager: CQManager,
        cq_name: str,
        view_table_name: str,
    ):
        cq = manager.get(cq_name)
        if cq.mode not in (DeliveryMode.DIFFERENTIAL, DeliveryMode.COMPLETE):
            raise RegistrationError(
                "a materialized view needs its upstream CQ to deliver "
                "deltas (DIFFERENTIAL or COMPLETE mode)"
            )
        self.manager = manager
        self.cq_name = cq_name
        # The upstream result schema: derive it from the CQ's query.
        from repro.relational.evaluate import spj_output_schema

        core = cq.query.narrowed_core() if cq.is_aggregate else cq.query
        scopes = {
            ref.alias: manager.db.table(ref.table).schema
            for ref in core.relations
        }
        schema = spj_output_schema(core, scopes)
        if cq.is_aggregate:
            schema = cq.query.output_schema(schema)

        self._source = _NotificationSource(schema)
        self._adapter = MirrorAdapter(manager.db, view_table_name, self._source)
        self.table: Table = self._adapter.table
        # Backfill the current state (the CQ has already run E_0).
        if cq.previous_result is not None:
            self._source.push_initial(cq.previous_result)
            self._adapter.sync()
        self._unsubscribe = manager.subscribe_notifications(
            cq_name, self._on_notification
        )

    def _on_notification(self, notification: Notification) -> None:
        if notification.kind is NotificationKind.INITIAL:
            return  # backfilled at construction
        if notification.kind is NotificationKind.STOPPED:
            return  # the view freezes at the final state
        if notification.delta is None:
            raise RegistrationError(
                "upstream CQ stopped delivering deltas; cannot maintain view"
            )
        self._source.push_delta(notification.delta)
        self._adapter.sync()

    def close(self) -> None:
        """Stop maintaining the view (the table remains, frozen)."""
        self._unsubscribe()

    def __repr__(self) -> str:
        return (
            f"MaterializedView({self.cq_name!r} -> {self.table.name!r}, "
            f"{len(self.table)} rows)"
        )
