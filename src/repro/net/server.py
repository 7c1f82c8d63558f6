"""The CQ server: hosts base data, computes refreshes, ships messages.

Each client subscription carries a *protocol* choosing how refreshes
are computed and shipped:

* DRA_DELTA — differential re-evaluation, ship only the result delta
  (the paper's design: "each server only generates delta relations
  when communicating with the clients");
* REEVAL_DELTA — complete re-evaluation + Diff, ship the delta (the
  Propagate instantiation: same traffic as DRA, recompute cost);
* REEVAL_FULL — complete re-evaluation, ship the entire result every
  time (the naive pre-CQ workflow: re-issue the query, get everything).
"""

from __future__ import annotations

import enum
from collections import Counter
from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import (
    NetworkError,
    QueryError,
    RegistrationError,
    SchemaError,
    StorageError,
)
from repro.metrics import Metrics
from repro.obs.stats import CQStats, TeeMetrics, cost_columns, kernel_summary
from repro.obs.table import format_table
from repro.obs.trace import Tracer
from repro.relational.algebra import SPJQuery
from repro.relational.relation import Relation
from repro.relational.sql import parse_query
from repro.storage.database import Database
from repro.storage.timestamps import Timestamp
from repro.delta.capture import deltas_since
from repro.delta.diff import diff
from repro.delta.differential import DeltaRelation
from repro.delta.propagate import evaluate_as_of
from repro.dra.algorithm import dra_execute
from repro.dra.predindex import PredicateIndex
from repro.dra.prepared import PlanCache
from repro.core.gc import ActiveDeltaZones
from repro.core.scheduler import (
    DeltaBatchCache,
    Family,
    SharedView,
    check_families,
    join_family,
    leave_family,
    sweep,
)
from repro.net.codec import encode_delta_body
from repro.net.digest import apply_delta, relation_digest
from repro.net.messages import (
    DeltaAvailableMessage,
    DeltaBatchMessage,
    DeltaMessage,
    FetchMessage,
    FullResultMessage,
    InitialResultMessage,
    Message,
    RegisterMessage,
    ResyncMessage,
    delta_wire_size,
)
from repro.net.simnet import SimulatedNetwork


class Protocol(enum.Enum):
    DRA_DELTA = "dra_delta"
    DRA_LAZY = "dra_lazy"
    REEVAL_DELTA = "reeval_delta"
    REEVAL_FULL = "reeval_full"


#: Refreshed differentially, always as members of their ``sql_key``'s
#: :class:`~repro.core.scheduler.SharedView`; every other protocol is
#: refreshed alone.
_DRA = (Protocol.DRA_DELTA, Protocol.DRA_LAZY)


class Subscription:
    """One client's registration of one continual query, built by
    :meth:`CQServer._install` only. A DRA subscription is a member of
    its ``sql_key``'s view and has no window of its own: ``last_ts``
    reads the view's ``since``; with nothing pending, its retained copy
    and digest are the view's too."""

    __slots__ = (
        "client_id",
        "cq_name",
        "query",
        "sql_key",
        "protocol",
        "view",
        "_last_ts",
        "_result",
        "_digest",
        "changed_ts",
        "arrived_ts",
        "pending_delta",
    )

    def __init__(
        self,
        client_id: str,
        cq_name: str,
        query: SPJQuery,
        protocol: Protocol,
        view: Optional[SharedView],
        last_ts: Timestamp,
        result: Optional[Relation],
        digest: Optional[str],
        arrived_ts: Timestamp,
    ):
        self.client_id = client_id
        self.cq_name = cq_name
        self.query = query
        # Canonical SQL, rendered once: the key under which this
        # subscription shares a view and a prepared plan with identical
        # subscriptions from other clients.
        self.sql_key = query.to_sql()
        self.protocol = protocol
        self.view = view
        self._last_ts = last_ts
        # Retained server-side copy of the last shipped result state
        # (Section 3.3: "the copy is maintained at the site where the
        # differential query refresh is carried out"), its running
        # digest and the timestamp of the change (see horizon()): a
        # view member's own only while a lazy accumulation is pending.
        self.retain(result, digest, last_ts)
        #: Timestamp of the last frame that reached the client's
        #: endpoint: what an in-process client has applied.
        self.arrived_ts = arrived_ts
        # DRA_LAZY only: deltas accumulated since the client's last
        # fetch, composed so repeated changes to one tuple net out.
        self.pending_delta = None

    @property
    def last_ts(self) -> Timestamp:
        """The refresh window's start: a member's is its view's."""
        view = self.view
        return self._last_ts if view is None else view.since

    @last_ts.setter
    def last_ts(self, ts: Timestamp) -> None:
        if self.view is not None:
            raise AttributeError("a view member's window is its view's")
        self._last_ts = ts

    @property
    def previous_result(self) -> Relation:
        """The retained copy: a view member's with nothing pending is
        the view's result."""
        if self.view is None or self.pending_delta is not None:
            return self._result
        return self.view.result

    @property
    def digest(self) -> str:
        """The running digest of :attr:`previous_result`."""
        if self.view is None or self.pending_delta is not None:
            return self._digest
        return self.view.digest

    def retain(self, result, digest, ts: Timestamp) -> None:
        """Replace the retained copy: the result, its digest and the
        refresh timestamp at which it changed move together."""
        self._result = result
        self._digest = digest
        self.changed_ts = ts

    def fold(self):
        """Fold the un-fetched DRA_LAZY accumulation into the retained
        copy and return it (None: nothing was pending). A view member's
        copy ∘ pending *is* the view's result, so it reads through
        again, not recomputed."""
        pending, self.pending_delta = self.pending_delta, None
        if pending is not None and self.view is not None:
            self.retain(None, None, self.last_ts)
        return pending

    def horizon(self, applied: Timestamp) -> Timestamp:
        """Through when a client reporting ``applied`` is really current.

        Once it has applied the frame that last changed the retained
        copy — counted from when the frame is *built*, so one lost in
        flight keeps holding the boundary — and nothing is pending, its
        cache *is* that copy, Q(state at ``last_ts``). Without this a
        quiet subscription acks its registration timestamp forever and
        pins the update log (Section 5.4).
        """
        if applied >= self.changed_ts and not self.pending_delta:
            return max(applied, self.last_ts)
        return applied


#: The parts of one refresh step, gathered before any frame is sent:
#: ``client_id`` -> [(the members a part addresses, the part)].
Outbox = Dict[str, List[Tuple[List[Subscription], Message]]]


class CQServer:
    """Hosts the database and serves continual-query subscriptions.

    A refresh cycle has one shape whatever the protocol mix: the views
    move in one :func:`~repro.core.scheduler.sweep` over one per-cycle
    :class:`~repro.core.scheduler.DeltaBatchCache` (views of
    *different* queries still share one update-log pass per (table,
    window) — observable as ``delta_batches_reused``), which routes
    each footprint's window once, moves a view routing does not select
    by assignment and evaluates only the others, each through the
    manager's step; every result frame leaves through :meth:`_send`.

    Every DRA subscription is a member of the
    :class:`~repro.core.scheduler.SharedView` of its query text (the
    Section 5.2 "extracting common subexpressions" refinement applied
    at subscription granularity): a routed view is evaluated once per
    cycle, and its delta crosses each connection holding members once
    — server compute per cycle follows the routed views, not the
    subscribers or the registered views (experiment E3b). A cycle
    gathers every routed view's part for a client and sends the client
    one frame. A view's window moves in :meth:`_sweep` only; a member
    never has its own. Only the REEVAL_* baselines refresh alone.
    """

    def __init__(
        self,
        db: Database,
        network: SimulatedNetwork,
        name: str = "server",
        metrics: Optional[Metrics] = None,
        audit_interval: int = 0,
        tracer: Optional[Tracer] = None,
    ):
        self.db = db
        self.network = network
        self.name = name
        self.metrics = metrics if metrics is not None else Metrics()
        #: Observability (DESIGN.md §9): spans around each
        #: subscription's refresh and each wire delivery, plus per-CQ
        #: cumulative cost attribution in ``stats``.
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        self.stats = CQStats()
        # Installed around one solo refresh (a scoped TeeMetrics that
        # also charges self.metrics, feeding stats).
        self._scoped_metrics: Optional[Metrics] = None
        #: Sampled self-audit: every ``audit_interval``-th differential
        #: refresh also runs a full re-evaluation and compares digests,
        #: counting (and healing) any divergence between the maintained
        #: copy and the ground truth. 0 disables the audit.
        self.audit_interval = audit_interval
        self._refreshes_since_audit = 0
        #: Prepared plans keyed by canonical query SQL: identical
        #: subscriptions from different clients share one compiled
        #: plan, revalidated against the catalog on every use.
        self.plans = PlanCache(db, self.metrics)
        #: Per-subscription active delta zones (paper Section 5.4): one
        #: boundary per (client, cq) pinning the update-log suffix a
        #: connected client may still need for differential replay.
        #: :meth:`collect_garbage` prunes up to the oldest boundary.
        self.zones = ActiveDeltaZones(db)
        self._clients: Dict[str, "object"] = {}
        self._subscriptions: Dict[Tuple[str, str], Subscription] = {}
        #: Those in no view — the REEVAL_* baselines only — refreshed
        #: one by one.
        self._solo: Dict[Tuple[str, str], Subscription] = {}
        # Subscriptions per CQ name, the key ``stats`` attributes cost
        # under: the last holder to leave takes the name's stats along.
        self._holders: Counter = Counter()
        #: Predicate-index fan-out (DESIGN.md §10): subscriptions share
        #: a view per ``sql_key``; one index entry per view routes each
        #: cycle's consolidated batch to the affected views, each of
        #: which evaluates once and ships the delta to every member —
        #: server compute per cycle scales with affected *templates*,
        #: not subscribers. Detached members are skipped (their zones
        #: keep the replay window); deregistering the last member drops
        #: the view and its index entry.
        self.index = PredicateIndex(self.metrics)
        self._views: Dict[str, SharedView] = {}
        #: Views by shape: one execution per routed window for a
        #: family (:class:`~repro.core.scheduler.Family`).
        self._families: Dict[Tuple[str, str], Family] = {}

    # -- wiring ------------------------------------------------------------

    def attach(self, client) -> None:
        """Connect a client endpoint (an object with .name/.receive)."""
        self._clients[client.name] = client
        client.server = self

    def detach(self, client_id: str) -> None:
        """Disconnect a client endpoint; its subscriptions survive for
        a later reconnect, but deliveries to it stop."""
        self._clients.pop(client_id, None)

    def _metrics(self) -> Metrics:
        """The bag the refresh machinery charges: the per-subscription
        tee while a refresh is scoped, the shared bag otherwise."""
        scoped = self._scoped_metrics
        return scoped if scoped is not None else self.metrics

    def _deliver(self, client_id: str, message: Message) -> bool:
        """Ship one message; returns False when the network lost it."""
        client = self._clients.get(client_id)
        if client is None:
            raise NetworkError(f"no attached client {client_id!r}")
        size = message.wire_size()
        with self.tracer.span(
            "wire.send",
            client=client_id,
            msg=type(message).__name__,
            bytes=size,
        ) as span:
            duration = self.network.send(
                self.name, client_id, size, self._metrics()
            )
            if duration is None:
                span.set(dropped=True)
                return False
            client.receive(message)
        if self._scoped_metrics is None:
            # Outside a scoped refresh (view frames, fetch, resync,
            # replay) the per-CQ byte attribution is charged here: a
            # shared frame's bytes are split so the per-CQ sums equal
            # what crossed the wire, and each CQ got one delivery.
            names = getattr(message, "cq_names", None) or (message.cq_name,)
            self.stats.record_split(
                names, Metrics.BYTES_SENT, size, {Metrics.MESSAGES_SENT: 1}
            )
        return True

    # -- GC zones ----------------------------------------------------------

    @staticmethod
    def _zone(client_id: str, cq_name: str) -> str:
        return f"{client_id}:{cq_name}"

    def _note_refresh(
        self,
        client_id: str,
        members: Iterable[Subscription],
        arrived: Optional[Timestamp] = None,
    ) -> None:
        """Advance the zones of one client's ``members`` after a
        refresh; ``arrived`` is the timestamp of a frame that just
        reached the client (None: a quiet refresh, or the frame was
        lost).

        Session endpoints (real sockets) set ``defer_zone_advance``:
        their boundary only moves when the client *acknowledges* having
        applied a refresh, so the replay window survives in-flight
        loss. A detached client's zones hold its replay window for the
        reconnect. Neither has its members visited. In-process clients
        apply synchronously, so they are current through the horizon of
        the last frame that arrived.
        """
        client = self._clients.get(client_id)
        if client is None or getattr(client, "defer_zone_advance", False):
            return
        for s in members:
            if arrived is not None:
                s.arrived_ts = arrived
            self.zones.try_advance(
                self._zone(client_id, s.cq_name), s.horizon(s.arrived_ts)
            )

    def advance_zone(self, client_id: str, cq_name: str, ts: Timestamp) -> bool:
        """Move a subscription's replay boundary (client acked ``ts``)."""
        subscription = self._subscriptions.get((client_id, cq_name))
        if subscription is not None:
            ts = subscription.horizon(ts)
        return self.zones.try_advance(self._zone(client_id, cq_name), ts)

    def release_zones(self, client_id: str) -> None:
        """Stop GC-protecting a client's replay windows (disconnect):
        its subscriptions survive, but the update-log suffix behind its
        last acknowledged refresh may now be retired."""
        for (cid, cq_name) in self._subscriptions:
            if cid == client_id:
                self.zones.remove(self._zone(cid, cq_name))

    def pin_zones(self, client_id: str, applied: Dict[str, Timestamp]) -> None:
        """(Re-)register a reconnecting client's replay boundaries at
        its last-applied timestamps."""
        for (cid, cq_name), subscription in self._subscriptions.items():
            if cid != client_id:
                continue
            ts = subscription.last_ts
            if cq_name in applied:
                ts = subscription.horizon(applied[cq_name])
            self.zones.register(
                self._zone(cid, cq_name),
                tuple(subscription.query.table_names),
                ts,
            )

    def collect_garbage(self, include_unwatched: bool = False) -> Dict[str, int]:
        """Prune update logs up to the oldest subscription boundary."""
        return self.zones.collect(include_unwatched=include_unwatched)

    # -- registration -----------------------------------------------------------

    def handle_register(
        self,
        client_id: str,
        message: RegisterMessage,
        protocol: Optional[Protocol] = None,
    ) -> Subscription:
        """Install a subscription and ship the initial result.

        The protocol comes from the explicit argument (in-process
        path), the message's ``protocol`` field (wire path), or
        defaults to DRA_DELTA. A message this server cannot serve — an
        unknown protocol, SQL that does not parse, or names the catalog
        does not resolve — raises :class:`RegistrationError` before
        anything is installed.
        """
        if (client_id, message.cq_name) in self._subscriptions:
            raise RegistrationError(
                f"client {client_id!r} already registered {message.cq_name!r}"
            )
        now = self.db.now()
        try:
            if protocol is None:
                protocol = Protocol(message.protocol or Protocol.DRA_DELTA.value)
            query = parse_query(message.sql)
            if not isinstance(query, SPJQuery):
                raise RegistrationError(
                    "the client-server protocol serves SPJ queries; aggregate "
                    "CQs are managed by CQManager"
                )
            subscription = self._install(
                client_id, message.cq_name, query, protocol, now
            )
        except (ValueError, QueryError, SchemaError, StorageError) as error:
            raise RegistrationError(
                f"cannot register {message.cq_name!r}: {error}"
            ) from error
        if self.db.wal is not None:
            from repro.storage.wal import KIND_SUB_REGISTER

            self.db.wal.log_event(
                KIND_SUB_REGISTER,
                client=client_id,
                cq=message.cq_name,
                sql=subscription.sql_key,
                protocol=protocol.value,
                ts=now,
            )
        self._deliver(
            client_id,
            InitialResultMessage(
                message.cq_name,
                subscription.previous_result.copy(),  # (retained copies move)
                now,
                subscription.digest,
            ),
        )
        return subscription

    def restore(self, entries: Iterable[tuple]) -> None:
        """Install recovered subscriptions — ``(client_id, cq_name, sql,
        protocol value, last_ts)`` in registration order — shipping
        nothing: their clients resume through :meth:`replay`."""
        for client_id, cq_name, sql, protocol, last_ts in entries:
            self._install(
                client_id, cq_name, parse_query(sql), Protocol(protocol), last_ts
            )

    def _install(
        self,
        client_id: str,
        cq_name: str,
        query: SPJQuery,
        protocol: Protocol,
        last_ts: Timestamp,
    ) -> Subscription:
        """The one install step, for registered, checkpointed and
        journal-recovered subscriptions alike. The zone starts at
        ``last_ts``, where the client itself stands; a member takes its
        view's window and result, anyone else the result as of
        ``last_ts`` — or, when the logs no longer reach back
        (baseline-flattened history), as of now. Raises before anything
        is entered."""
        key = (client_id, cq_name)
        sql_key = query.to_sql()
        view = result = digest = None
        window = last_ts
        if protocol in _DRA:
            view = self._views.get(sql_key)
            if view is None:
                # The first subscription of a template pays the view's
                # E_0 and installs its index entry; the plan compiled
                # first auto-creates the join indexes E_0 and every
                # later refresh probe.
                plan = self.plans.get(sql_key, query)
                try:
                    view = SharedView.at(
                        query, sql_key, self.plans, plan, last_ts, self.metrics
                    )
                except ValueError:
                    view = SharedView.at(
                        query, sql_key, self.plans, plan, self.db.now(), self.metrics
                    )
                view.digest = relation_digest(view.result)
                self._views[sql_key] = view
                scopes = {
                    ref.alias: self.db.table(ref.table).schema
                    for ref in query.relations
                }
                self.index.add(sql_key, query, scopes)
                join_family(self._families, view, scopes)
                self.metrics.count(Metrics.SHARED_GROUPS)
            else:
                # A join that finds the window behind it moves it the
                # way every cycle does: the members there get that
                # delta now.
                if view.since < last_ts:
                    self._sweep((view,), self.db.now())
                self.metrics.count(Metrics.SHARED_GROUP_HITS)
            window = view.since
        else:
            try:
                result = evaluate_as_of(query, self.db, window, self.metrics)
            except ValueError:
                window = self.db.now()
                result = evaluate_as_of(query, self.db, window, self.metrics)
            digest = relation_digest(result)
        subscription = Subscription(
            *key, query, protocol, view, window, result, digest, last_ts
        )
        if view is None:
            self._solo[key] = subscription
        else:
            view.members[key] = subscription
            view.buckets.setdefault(client_id, {})[cq_name] = subscription
        self._subscriptions[key] = subscription
        self._holders[cq_name] += 1
        self.zones.register(self._zone(*key), tuple(query.table_names), last_ts)
        return subscription

    def deregister(self, client_id: str, cq_name: str) -> None:
        """Drop a subscription, its GC-protected zone, and its
        ``sql_key`` view membership — the last member leaving also
        drops the view, its plan, its family membership and its
        predicate-index entry, so no later batch is ever routed (or
        fanned out) to a dead subscriber."""
        key = (client_id, cq_name)
        subscription = self._subscriptions.pop(key, None)
        if subscription is None:
            raise RegistrationError(
                f"no subscription {cq_name!r} for client {client_id!r}"
            )
        self.zones.remove(self._zone(client_id, cq_name))
        view = subscription.view
        if view is None:
            del self._solo[key]
        else:
            del view.members[key]
            bucket = view.buckets[client_id]
            del bucket[cq_name]
            if not bucket:
                del view.buckets[client_id]
            if not view.members:
                del self._views[view.sql_key]
                self.index.remove(view.sql_key)
                self.plans.invalidate(view.sql_key)
                leave_family(self._families, view, self._views)
        self._holders[cq_name] -= 1
        if not self._holders[cq_name]:
            del self._holders[cq_name]
            self.stats.forget(cq_name)
        if self.db.wal is not None:
            from repro.storage.wal import KIND_SUB_DEREGISTER

            self.db.wal.log_event(
                KIND_SUB_DEREGISTER, client=client_id, cq=cq_name
            )

    def subscriptions(self) -> List[Subscription]:
        return list(self._subscriptions.values())

    def subscriptions_for(self, client_id: str) -> List[Subscription]:
        return [
            s for (cid, __), s in self._subscriptions.items() if cid == client_id
        ]

    # -- refresh ------------------------------------------------------------------

    def refresh_all(self) -> int:
        """Recompute and ship every subscription; returns the number of
        subscriptions a frame reached (a shared frame counts each CQ it
        addresses). The views move in one :meth:`_sweep`; everyone in
        no view — the REEVAL baselines — refreshes alone."""
        sent = self._sweep(list(self._views.values()), self.db.now())
        for subscription in list(self._solo.values()):
            sent += self._refresh_scoped(subscription)
        return sent

    def _sweep(
        self,
        views: Sequence[SharedView],
        now: Timestamp,
        skip: Optional[Subscription] = None,
    ) -> int:
        """Move ``views`` to ``now`` — each cycle, for a join that finds
        its view's window open, and around a replay (whose member is
        ``skip``: :meth:`replay` aligns it and ships its own window) —
        in one :func:`~repro.core.scheduler.sweep`, which evaluates only
        the views the predicate index routes entries to, and deliver:
        every evaluated view's parts are gathered per client, and each
        client is sent one frame after the sweep — also when a view
        raised, so no window moves without its delta shipped. The views
        left unchanged visit only in-process clients, whose members'
        zones advance (:meth:`_note_refresh`). Returns the subscriptions
        reached."""
        window = DeltaBatchCache(self.db, self.metrics, self.tracer)
        outbox: Outbox = {}
        moved, sent = set(), 0
        try:
            for view, __, delta in sweep(
                views, window, self.index, now, self.metrics, self.tracer
            ):
                sent += self._refresh_view(view, delta, now, outbox, skip)
                if delta is not None and not delta.is_empty():
                    moved.add(view)
        finally:
            for client_id, parts in outbox.items():
                sent += self._send(client_id, parts)
        local = [
            client_id
            for client_id, client in self._clients.items()
            if not getattr(client, "defer_zone_advance", False)
        ]
        for view in views if local else ():
            if view in moved:
                continue
            for client_id in local:
                bucket = view.buckets.get(client_id, {}).values()
                self._note_refresh(client_id, (s for s in bucket if s is not skip))
        return sent

    def _refresh_view(
        self,
        view: SharedView,
        delta: Optional[DeltaRelation],
        now: Timestamp,
        outbox: Outbox,
        skip: Optional[Subscription] = None,
    ) -> int:
        """Deliver the delta the sweep moved one evaluated view by (None:
        its read was empty). Its evaluation was charged to the view's
        ``cost``, not to any member; every other member sharing it is a
        shared-group hit. A changed view adds one part to ``outbox`` per
        attached client: the delta, addressed to the client's DRA_DELTA
        members, whose copies read the view's. Lazy members are
        announced one by one. Detached members are skipped, not raised
        on — their zones hold the replay window for reconnect. Returns
        the lazy members announced; frames count when they are sent."""
        if delta is None:
            return 0
        # One record per evaluated view however many members share it.
        hits = len(view.members) - (skip is not None) - 1
        if hits > 0:
            self.metrics.count(Metrics.SHARED_GROUP_HITS, hits)
        if delta.is_empty():
            return 0
        moved, digest = view.result, view.digest
        view.result, view.digest = self._audited(view.query, moved, digest)
        # The view moved its result in place: a lazy member it leaves
        # behind gets the result as of the window's start, rebuilt once.
        announced, body, before = 0, None, None
        for client_id, bucket in view.buckets.items():
            attached = client_id in self._clients
            members = []
            for s in bucket.values():
                if s is skip:
                    continue
                if s.protocol is Protocol.DRA_LAZY:
                    if before is None and s.pending_delta is None:
                        held = moved.copy()
                        before = held, apply_delta(delta.reversed(), held, digest)
                    announced += self._announce_lazy(s, delta, now, before)
                    continue
                s.changed_ts = now
                if attached:
                    members.append(s)
            if members:
                if body is None:
                    # Encoded once for every client's part.
                    body = encode_delta_body(delta)
                part = DeltaMessage(
                    [s.cq_name for s in members], delta, now, view.digest, body
                )
                outbox.setdefault(client_id, []).append((members, part))
        return announced

    def _refresh_scoped(self, subscription: Subscription) -> bool:
        """Refresh one subscription on its own, inside a ``sub.refresh``
        span, with its counter charges scoped: the tee still charges
        the shared bag, the scoped copy feeds the per-CQ attribution
        table."""
        scoped = TeeMetrics(self.metrics)
        self._scoped_metrics = scoped
        span = self.tracer.span(
            "sub.refresh",
            client=subscription.client_id,
            cq=subscription.cq_name,
            protocol=subscription.protocol.value,
        )
        with span:
            try:
                delivered = self._refresh_one(subscription)
            finally:
                self._scoped_metrics = None
                counters = {
                    name: value
                    for name, value in scoped.snapshot().items()
                    if value
                }
                self.stats.record(subscription.cq_name, counters)
            span.set(delivered=delivered, **counters)
        return delivered

    def _send(
        self, client_id: str, parts: List[Tuple[List[Subscription], Message]]
    ) -> int:
        """The one ship step for result frames: one frame to one client
        carrying ``parts``, each a message built at the refresh ``ts``
        it carries, with the copies of the members it addresses already
        the state it leaves them at — its digest is that state's, so
        the client can verify each of its own after applying. One part
        goes as itself, more as one :class:`DeltaBatchMessage`. Its
        arrival, or its loss, is noted for every member of every part.
        Returns the subscriptions reached (0: the network lost it)."""
        message = first = parts[0][1]
        if len(parts) > 1:
            message = DeltaBatchMessage([part for __, part in parts])
        delivered = self._deliver(client_id, message)
        self._note_refresh(
            client_id,
            chain.from_iterable(members for members, __ in parts),
            first.ts if delivered else None,
        )
        return sum(len(members) for members, __ in parts) if delivered else 0

    def _ship(self, subscription: Subscription, delta, ts: Timestamp) -> bool:
        """Ship one subscription a frame of its own at once: ``delta``,
        already applied to its retained copy, or (``delta`` None) that
        copy whole — the frame built here, at ``ts``, is the one the
        client has to apply to hold it. Returns False when the network
        lost the message."""
        subscription.changed_ts = ts
        if delta is None:
            message = FullResultMessage(
                subscription.cq_name,
                subscription.previous_result.copy(),  # (retained copies move)
                ts,
                subscription.digest,
            )
        else:
            message = DeltaMessage(
                subscription.cq_name, delta, ts, subscription.digest
            )
        return bool(self._send(subscription.client_id, [([subscription], message)]))

    def _announce_lazy(
        self,
        subscription: Subscription,
        delta,
        now: Timestamp,
        before: Optional[Tuple[Relation, str]],
    ) -> bool:
        """DRA_LAZY delivery: compose ``delta`` onto what the client
        has not fetched yet (repeated changes to one tuple net out) and
        announce the accumulation's size; the content ships on fetch.
        ``before`` is the view's result and digest as ``delta`` found
        them: the copy a member with nothing pending keeps from now on.
        A detached client's accumulation grows unannounced."""
        pending = subscription.pending_delta
        if pending is None:
            subscription.retain(*before, subscription.changed_ts)
            pending = delta
        else:
            pending = pending.compose(delta)
        if pending.is_empty():
            subscription.pending_delta = None
            subscription.retain(None, None, subscription.changed_ts)
            return False
        subscription.pending_delta = pending
        if subscription.client_id not in self._clients:
            return False
        return self._deliver(
            subscription.client_id,
            DeltaAvailableMessage(
                subscription.cq_name,
                now,
                len(pending),
                delta_wire_size(pending),
            ),
        )

    def _audited(
        self, query: SPJQuery, retained: Relation, digest: str
    ) -> Tuple[Relation, str]:
        """Sampled self-verification of a maintained retained copy and
        its running digest.

        Every ``audit_interval``-th differential refresh that changed
        something re-runs the query from scratch and digests both it
        and the retained copy in full. A divergence means the
        incremental path drifted from ground truth, the copy was
        altered between refreshes, or the running digest no longer
        describes the copy — the failure classes a per-delta check
        cannot see. It is counted and the re-evaluated result and its
        digest are returned in their place, so the delta the client
        applies next will digest-mismatch and trigger its resync.
        """
        if not self.audit_interval:
            return retained, digest
        self._refreshes_since_audit += 1
        if self._refreshes_since_audit < self.audit_interval:
            return retained, digest
        self._refreshes_since_audit = 0
        self._metrics().count(Metrics.AUDITS)
        truth = self.db.query(query)
        expected = relation_digest(truth)
        if expected == relation_digest(retained) == digest:
            return retained, digest
        self._metrics().count(Metrics.AUDIT_DIVERGENCES)
        return truth, expected

    def handle_fetch(self, client_id: str, message: FetchMessage) -> bool:
        """Ship a lazy subscription's accumulated delta; returns True
        if anything was pending."""
        subscription = self._subscriptions.get((client_id, message.cq_name))
        if subscription is None:
            raise RegistrationError(
                f"no subscription {message.cq_name!r} for client {client_id!r}"
            )
        pending = subscription.fold()
        if pending is None:
            return False
        return self._ship(subscription, pending, subscription.last_ts)

    def handle_resync(self, client_id: str, message: ResyncMessage) -> bool:
        """Re-ship the retained result copy to a client whose cache is
        unusable (e.g. a delta raced a client restart). No recompute:
        the server's Section 3.3 copy is exactly the last shipped
        state."""
        subscription = self._subscriptions.get((client_id, message.cq_name))
        if subscription is None:
            return False
        self.metrics.count(Metrics.RESYNCS)
        return self._ship(subscription, None, subscription.last_ts)

    # -- reconnect replay --------------------------------------------------

    def replay(self, client_id: str, cq_name: str, since_ts: Timestamp) -> bool:
        """Resume a reconnected client differentially (Section 5.4).

        The client last applied a refresh at ``since_ts``; everything
        newer is its missed window. While the window is still inside
        the table's active delta zone, the resume is a single
        DeltaMessage consolidated from the update logs — full-result
        bytes never cross the wire. When garbage collection has pruned
        past the client's horizon, the only sound answer is a complete
        result (counted as ``replay_fallbacks``).

        Returns True for a differential resume, False for a fallback.
        """
        subscription = self._subscriptions.get((client_id, cq_name))
        if subscription is None:
            raise RegistrationError(
                f"no subscription {cq_name!r} for client {client_id!r}"
            )
        now = self.db.now()
        # A client already holding the retained copy resumes from
        # last_ts, even if GC has passed the last frame it was sent.
        since_ts = subscription.horizon(since_ts)
        query, sql_key = subscription.query, subscription.sql_key
        tables = [self.db.table(name) for name in set(query.table_names)]
        differential = subscription.protocol is not Protocol.REEVAL_FULL and all(
            table.log.pruned_through <= since_ts for table in tables
        )
        # Bring the retained copy to state(now), any un-fetched lazy
        # delta folded in: a member by aligning it to its view, whose
        # window moves for everyone else as in any cycle; a REEVAL
        # baseline by re-evaluating, as its every refresh does.
        view = subscription.view
        if view is not None:
            self._sweep((view,), now, subscription)
            subscription.fold()
        else:
            result = self.db.query(query, self.metrics)
            subscription.retain(result, relation_digest(result), now)
            subscription.last_ts = now
        self.zones.register(
            self._zone(client_id, cq_name), tuple(query.table_names), since_ts
        )
        if not differential:
            if subscription.protocol is not Protocol.REEVAL_FULL:
                self.metrics.count(Metrics.REPLAY_FALLBACKS)
            self._ship(subscription, None, now)
            return False
        # The client's replay: one consolidated delta over its whole
        # missed window, applicable directly to its cached copy, whose
        # post-apply state is the current result the server now retains.
        # It is the client's own window: no view moves. A baseline has
        # no view, so its one-off replay caches no plan.
        replayed = dra_execute(
            query,
            self.db,
            deltas=deltas_since(tables, since_ts),
            ts=now,
            metrics=self.metrics,
            prepared=None if view is None else self.plans.get(sql_key, query),
            tracer=self.tracer,
        )
        self.metrics.count(Metrics.REPLAYS)
        if not replayed.delta.is_empty():
            self._ship(subscription, replayed.delta, now)
        return True

    def _refresh_one(self, subscription: Subscription) -> bool:
        """Refresh one REEVAL_* subscription: complete re-evaluation,
        shipped as a diff or whole."""
        now = self.db.now()
        new_result = self.db.query(subscription.query, self._metrics())
        subscription.last_ts = now
        if subscription.protocol is Protocol.REEVAL_DELTA:
            delta = diff(subscription.previous_result, new_result, now)
            if delta.is_empty():
                self._note_refresh(subscription.client_id, (subscription,))
                return False
            held = subscription.previous_result
            subscription.retain(held, apply_delta(delta, held, subscription.digest), now)
            return self._ship(subscription, delta, now)

        # REEVAL_FULL ships unconditionally: without a retained diff
        # there is no way to know nothing changed.
        subscription.retain(new_result, relation_digest(new_result), now)
        return self._ship(subscription, None, subscription.last_ts)

    # -- introspection -----------------------------------------------------

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` unless the records agree with each
        other — the laws every operation must leave standing
        (``tests/net`` checks them after each one)."""
        # Not the module-level name, which E18 binds to count the
        # serving path's whole-result digests (net.digest_rows).
        from repro.net.digest import relation_digest as digest_in_full

        def law(holds: bool, message: str) -> None:
            if not holds:
                raise AssertionError(message)

        index = self.index
        law(len(index) == len(self._views), "index entries != views")
        law(
            all(s.protocol not in _DRA for s in self._solo.values()),
            "a DRA subscription refreshes alone: _solo holds REEVAL_* only",
        )
        placed = dict(self._solo)
        for sql_key, view in self._views.items():
            members = view.members
            placed.update(members)
            law(sql_key == view.sql_key in index, f"{sql_key!r}: not indexed")
            law(bool(members), f"{sql_key!r}: memberless view")
            law(
                all(bucket for bucket in view.buckets.values())
                and members
                == {
                    (client_id, cq_name): s
                    for client_id, bucket in view.buckets.items()
                    for cq_name, s in bucket.items()
                }
                and all(key == (s.client_id, s.cq_name) for key, s in members.items()),
                f"{sql_key!r}: an empty bucket, or a member in another's",
            )
            law(
                all(s.view is view for s in members.values()),
                f"{sql_key!r}: holds another view's member",
            )
            law(view.digest is not None, f"{sql_key!r}: a view without a digest")
            view.check(self.db)
        law(placed == self._subscriptions, "subscriptions != solo + members")
        check_families(self._families, self._views, set(self._views), self.db)
        live = self._views.keys() | {shape for shape, __ in self._families}
        law(
            all(key in self.plans for key in self._views)
            and sum(key in self.plans for key in live) == len(self.plans),
            "plans != the live sql_keys and family shapes",
        )
        names = Counter(name for __, name in placed)
        law(self._holders == names, f"_holders {self._holders} != {names}")
        for key, s in placed.items():
            view = self._views.get(s.sql_key) if s.protocol in _DRA else None
            law(
                s.view is view and (key in self._solo) is (view is None),
                f"{key}: not in exactly its sql_key's view",
            )
            if view is None or s.pending_delta is not None:
                law(
                    s.digest == digest_in_full(s.previous_result),
                    f"{key}: digest does not describe the retained copy",
                )
            if s.pending_delta is not None:
                law(
                    s.pending_delta.apply_to(s.previous_result) == view.result,
                    f"{key}: copy ∘ pending differs from its view's",
                )

    def describe(self) -> List[Dict[str, object]]:
        """One status record per subscription (for ops tooling)."""
        out = []
        for (client_id, cq_name), sub in self._subscriptions.items():
            pending = sub.pending_delta
            # The CQ's own frames (or solo refreshes) plus, for a view
            # member, the evaluations its view ran for everyone.
            cost = Counter(self.stats.counters(cq_name))
            if sub.view is not None:
                cost.update(sub.view.cost)
            out.append(
                {
                    "client": client_id,
                    "cq": cq_name,
                    "protocol": sub.protocol.value,
                    "last_ts": sub.last_ts,
                    "result_rows": len(sub.previous_result),
                    "pending_entries": 0 if pending is None else len(pending),
                    "zone": self.zones.boundary(self._zone(client_id, cq_name)),
                    # Cumulative per-CQ cost attribution (DESIGN.md §9),
                    # aggregated across clients subscribed to the CQ.
                    **cost_columns(cost),
                    "bytes_sent": cost.get(Metrics.BYTES_SENT, 0),
                    # Fan-out view membership (DESIGN.md §10); the
                    # global routing counters live in the metrics bag.
                    "sql_group_size": (
                        None if sub.view is None else len(sub.view.members)
                    ),
                }
            )
        return out

    def status_report(self) -> str:
        """Subscriptions plus connection counters as a text report."""
        report = format_table(
            self.describe(),
            columns=[
                "client",
                "cq",
                "protocol",
                "last_ts",
                "result_rows",
                "pending_entries",
                "zone",
            ],
            title=(
                f"CQServer {self.name!r}: {len(self._subscriptions)} "
                f"subscriptions, now={self.db.now()}"
            ),
        )
        m = self.metrics
        report += (
            f"\nconnections: reconnects={m.get(Metrics.RECONNECTS)} "
            f"heartbeats_missed={m.get(Metrics.HEARTBEATS_MISSED)} "
            f"replays={m.get(Metrics.REPLAYS)} "
            f"replay_fallbacks={m.get(Metrics.REPLAY_FALLBACKS)} "
            f"resyncs={m.get(Metrics.RESYNCS)}"
            f"\ntransport: bytes_encoded={m.get(Metrics.BYTES_ENCODED)} "
            f"bytes_sent={m.get(Metrics.BYTES_SENT)} "
            f"messages_dropped={m.get(Metrics.MESSAGES_DROPPED)} "
            f"backpressure_degrades={m.get(Metrics.BACKPRESSURE_DEGRADES)}"
            f"\ndurability: wal_appends={m.get(Metrics.WAL_APPENDS)} "
            f"wal_recovered={m.get(Metrics.WAL_RECOVERED)} "
            f"wal_torn_truncations={m.get(Metrics.WAL_TORN_TRUNCATIONS)} "
            f"digest_mismatches={m.get(Metrics.DIGEST_MISMATCHES)} "
            f"audits={m.get(Metrics.AUDITS)} "
            f"audit_divergences={m.get(Metrics.AUDIT_DIVERGENCES)} "
            f"codec_errors={m.get(Metrics.CODEC_ERRORS)}"
        )
        report += kernel_summary(m)
        info = self.index.describe()
        report += (
            f"\nfanout: groups={len(self._views)} "
            f"indexed={info['subscriptions']} "
            f"eq={info['eq_entries']} "
            f"interval={info['interval_entries']} "
            f"scan={info['scan_entries']} stale={info['stale']} "
            f"probes={m.get(Metrics.PREDINDEX_PROBES)} "
            f"matches={m.get(Metrics.PREDINDEX_MATCHES)} "
            f"shared_groups={m.get(Metrics.SHARED_GROUPS)} "
            f"group_hits={m.get(Metrics.SHARED_GROUP_HITS)}"
        )
        return report

    def __repr__(self) -> str:
        return (
            f"CQServer({self.name!r}, {len(self._subscriptions)} subscriptions, "
            f"{len(self._clients)} clients)"
        )
