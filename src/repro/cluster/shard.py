"""One cluster shard store: a table slice plus one window per ``sql_key``.

The router keeps the one retained result per ``sql_key`` — its merge is
the site where the differential refresh is carried out (paper §3.3).
DRA builds a refresh's delta from the base relations and their deltas,
with the previous result an optional input (Algorithm 1), so a store
keeps none. It holds its slice of the tables, whose *only* writer is
the router, plus a plan cache, a predicate index, active delta zones
and one resultless :class:`~repro.core.scheduler.SharedView` per
``sql_key`` placed on it — the query and the start of its open window —
entered into its shape's :class:`~repro.core.scheduler.Family`.

A store handles two frame types, one job each. A
:class:`~repro.net.messages.ScatterMessage` is one refresh cycle's
frame: it carries the cycle's relevant delta slices, which the store
folds into its tables (journaling WAL-first, exactly like a local
commit); then it evaluates every routed view over ``(since, now]`` (a
family's window once for all its members), moves every window to
``now`` and returns the non-empty result deltas, each with its window,
in a :class:`~repro.net.messages.GatherReplyMessage` for the router's
cross-shard merge. A :class:`~repro.net.messages.ShardSyncMessage`
installs what it carries — replayed deltas, baselines, views — and
moves no window: a window moves only where its delta is merged (paper
§5.4's active delta zones read the other way), so a view the frame
does not install keeps its window start for the next refresh frame.

Delta application is an *upsert*: a modify of an unknown tid becomes an
insert, a delete of an unknown tid is a no-op, an insert of a known tid
becomes a modify. That makes application idempotent, so a recovery
replay window may overlap what the shard already holds (the router's
horizon tracking is conservative) without corrupting anything — and it
makes relevance-filtered scatter sound: a row the router never sent
(because it failed every footprint's alias-local predicates, Section
5.2) can arrive later inside a wider baseline or replay window and
simply lands as an insert then.
"""

from __future__ import annotations

import glob
import os
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import NetworkError, RegistrationError
from repro.metrics import Metrics
from repro.relational.algebra import SPJQuery
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.relational.sql import parse_query
from repro.relational.types import AttributeType
from repro.storage.database import Database
from repro.storage.table import Table
from repro.storage.timestamps import Timestamp
from repro.storage.update_log import UpdateKind, UpdateRecord
from repro.storage.wal import (
    KIND_SUB_DEREGISTER,
    KIND_SUB_REGISTER,
    shard_wal_path,
)
from repro.delta.differential import DeltaRelation
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
from repro.net.messages import (
    GatherReplyMessage,
    Message,
    ScatterMessage,
    ShardDrainMessage,
    ShardHelloMessage,
    ShardSyncMessage,
)
from repro.net.server import Protocol

#: txn_id stamped on records a shard applied from a router frame (as -1
#: marks single-op convenience transactions).
SCATTER_TXN = -2

#: The client id a store's journaled view events carry.
ROUTER_CLIENT = "router"


#: Plain-python spellings accepted for attribute types in declarations.
_PY_TYPES = {
    int: AttributeType.INT,
    float: AttributeType.FLOAT,
    str: AttributeType.STR,
    bool: AttributeType.BOOL,
}


def _attribute_type(type_: Union[AttributeType, type]) -> AttributeType:
    if isinstance(type_, AttributeType):
        return type_
    try:
        return _PY_TYPES[type_]
    except (KeyError, TypeError):
        raise ValueError(f"unsupported attribute type {type_!r}") from None


class TableDecl:
    """One table's cluster-wide declaration.

    The same declaration drives the router's authoritative catalog and
    every shard's local catalog, so schemas (and maintained indexes)
    agree by construction. ``partition_key`` names the column whose
    hash places each row on exactly one shard; None replicates the
    table's deltas to every shard that needs them.
    """

    __slots__ = ("name", "schema", "partition_key", "indexes")

    def __init__(
        self,
        name: str,
        schema: Union[Schema, Sequence[Tuple[str, AttributeType]]],
        partition_key: Optional[str] = None,
        indexes: Sequence[Sequence[str]] = (),
    ):
        self.name = name
        if not isinstance(schema, Schema):
            schema = Schema.of(
                *(
                    (column, _attribute_type(type_))
                    for column, type_ in schema
                )
            )
        self.schema = schema
        if partition_key is not None and partition_key not in self.schema:
            raise ValueError(
                f"partition key {partition_key!r} is not a column of "
                f"table {name!r}"
            )
        self.partition_key = partition_key
        self.indexes = tuple(tuple(columns) for columns in indexes)

    @property
    def key_position(self) -> Optional[int]:
        if self.partition_key is None:
            return None
        return self.schema.position(self.partition_key)

    def __repr__(self) -> str:
        part = (
            f", partition_key={self.partition_key!r}"
            if self.partition_key
            else ""
        )
        return f"TableDecl({self.name!r}{part})"


#: Bound once: ``_record`` runs per scattered row, and a member read off
#: the Enum class goes through its metaclass each time.
_INSERT, _DELETE, _MODIFY = UpdateKind.INSERT, UpdateKind.DELETE, UpdateKind.MODIFY


def _record(tid, old, new, ts: Timestamp) -> UpdateRecord:
    """A scatter-applied change; a None side makes it an insert or a
    delete."""
    if old is None:
        kind = _INSERT
    else:
        kind = _DELETE if new is None else _MODIFY
    return UpdateRecord(kind, tid, old, new, ts, SCATTER_TXN)


class ClusterShard:
    """One store of a shard host: a table slice plus its views."""

    #: Replies kept for seq-dedup (see ``_reply_cache``).
    _reply_cache_cap = 8

    def __init__(
        self,
        shard_id: int,
        decls: Sequence[TableDecl],
        metrics: Optional[Metrics] = None,
        group: Optional[int] = None,
        db: Optional[Database] = None,
    ):
        self.shard_id = shard_id
        #: The placement group this store serves. A host's own group is
        #: its shard id; replica stores carry another group's slice.
        self.group = shard_id if group is None else group
        self.metrics = metrics if metrics is not None else Metrics()
        # At-least-once retry support: a duplicate of a recent frame
        # (same seq — the reply was lost after the shard applied it)
        # returns the cached reply instead of re-handling, so a
        # router-side timeout + retry can never double-consume a
        # refresh window or lose the result delta it produced. A small
        # LRU rather than a single slot: under overlapped dispatch a
        # late retry of frame N can land *after* frame N+1 already
        # replaced a one-entry cache, which would re-handle N.
        self._reply_cache: "OrderedDict[int, GatherReplyMessage]" = (
            OrderedDict()
        )
        #: The store's table slice (journaled when opened on a WAL).
        self.db = db if db is not None else Database()
        for decl in decls:
            if decl.name not in self.db:
                self.db.create_table(
                    decl.name, decl.schema, indexes=decl.indexes
                )
        self.plans = PlanCache(self.db, self.metrics)
        self.index = PredicateIndex(self.metrics)
        self.zones = ActiveDeltaZones(self.db)
        #: Views by ``sql_key``, in registration order; each holds no
        #: result (the router retains it).
        self._views: Dict[str, SharedView] = {}
        #: The views by shape: one execution per routed window.
        self._families: Dict[Tuple[str, str], Family] = {}

    @classmethod
    def recover(
        cls,
        shard_id: int,
        decls: Sequence[TableDecl],
        wal_path: str,
        metrics: Optional[Metrics] = None,
        group: Optional[int] = None,
    ) -> "ClusterShard":
        """Rebuild a killed shard store from its own WAL.

        Each journaled view is installed as of its registration while
        the recovered logs still cover that window, and as of recovery
        time otherwise (``recover_server``'s rule, with nothing to
        evaluate); the host's hello then reports the applied horizon so
        the router can choose delta replay or baseline fallback. The
        logs, re-logged whole from the journal, are pruned to the zones.
        """
        from repro.core.persistence import _replay_wal

        metrics = metrics if metrics is not None else Metrics()
        db = Database()
        desired = _replay_wal(db, wal_path, "sub", lambda e: e["cq"], metrics)
        store = cls(shard_id, decls, metrics=metrics, group=group, db=db)
        now = db.now()
        for sql_key, event in desired.items():
            if event is None:
                continue
            query = parse_query(event["sql"])
            ts = event.get("ts", now)
            tables = (db.table(name) for name in query.table_names)
            if any(table.log.pruned_through > ts for table in tables):
                ts = now
            store._install(sql_key, query, ts)
        store.zones.collect()
        return store

    # -- protocol ----------------------------------------------------------

    def handle(self, message: Message) -> GatherReplyMessage:
        """Process one router frame; returns the cycle's gather reply.

        Duplicate-seq frames (a retry after the reply was lost) return
        the cached reply without re-handling — at-least-once delivery
        stays exactly-once application.
        """
        seq = getattr(message, "seq", None)
        if seq is not None and seq in self._reply_cache:
            self._reply_cache.move_to_end(seq)
            return self._reply_cache[seq]
        if isinstance(message, ScatterMessage):
            reply = self._handle_scatter(message)
        elif isinstance(message, ShardSyncMessage):
            reply = self._handle_sync(message)
        else:
            raise NetworkError(
                f"shard {self.shard_id} cannot handle "
                f"{type(message).__name__}"
            )
        if seq is not None:
            self._reply_cache[seq] = reply
            while len(self._reply_cache) > self._reply_cache_cap:
                self._reply_cache.popitem(last=False)
        return reply

    def _handle_scatter(self, message: ScatterMessage) -> GatherReplyMessage:
        """A refresh frame: fold in the slices, move every window to
        ``ts``, reply the non-empty deltas."""
        self.db.clock.advance_to(message.ts)
        for table_name in sorted(message.deltas):
            self._upsert_slice(table_name, message.deltas[table_name])
        entries = self._refresh()
        if message.collect:
            # ``include_unwatched`` keeps replica stores prunable: they
            # carry no views, so without it their logs would grow
            # forever. Safe on primaries too — a shard-side log only
            # ever feeds local windows, never recovery (that replays
            # from the router's logs).
            self.zones.collect(include_unwatched=True)
        return self._reply(message.seq, message.ts, self.db.now(), entries)

    def _handle_sync(self, message: ShardSyncMessage) -> GatherReplyMessage:
        """An install frame: drop, replay, converge and install as of
        the store's clock once advanced to ``ts``; no other window moves
        and nothing is evaluated.

        Deltas go before baselines: delta entries carry their original
        commit timestamps (≤ ts), baseline records are stamped at the
        log tail, so applying in this order keeps each log monotone. The
        reply's ``horizon`` is the store's clock before the frame."""
        horizon = self.db.now()
        self.db.clock.advance_to(message.ts)
        for sql_key in message.unsubscribe:
            self._unsubscribe(sql_key)
        for table_name in sorted(message.deltas):
            self._upsert_slice(table_name, message.deltas[table_name])
        for table_name in sorted(message.baselines):
            self._apply_baseline(table_name, message.baselines[table_name])
        for spec in message.subscribe:
            self._subscribe(spec)
        return self._reply(message.seq, message.ts, horizon, [])

    def _reply(
        self,
        seq: int,
        ts: int,
        horizon: Timestamp,
        entries: List[Tuple[str, DeltaRelation, Timestamp, Timestamp]],
    ) -> GatherReplyMessage:
        return GatherReplyMessage(
            self.shard_id,
            seq,
            ts,
            horizon,
            entries=entries,
            counters=self.metrics.snapshot(),
        )

    # -- views -------------------------------------------------------------

    def _subscribe(self, spec: Dict[str, str]) -> None:
        """Install a router-placed view as of now and journal it."""
        sql_key = spec["cq"]
        if sql_key in self._views:
            raise RegistrationError(
                f"shard {self.shard_id} already holds {sql_key!r}"
            )
        query = parse_query(spec["sql"])
        now = self.db.now()
        self._install(sql_key, query, now)
        if self.db.wal is not None:
            self.db.wal.log_event(
                KIND_SUB_REGISTER,
                client=ROUTER_CLIENT,
                cq=sql_key,
                sql=query.to_sql(),
                protocol=Protocol.DRA_DELTA.value,
                ts=now,
            )

    def _install(self, sql_key: str, query: SPJQuery, since: Timestamp) -> None:
        """The one install step, for subscribed, promoted and recovered
        views alike: the plan (compiling it auto-creates the join
        indexes), the index entry, the family membership and the zone,
        at window start ``since``. No result is built: the router
        retains it."""
        self.plans.get(sql_key, query)
        scopes = {
            ref.alias: self.db.table(ref.table).schema for ref in query.relations
        }
        self.index.add(sql_key, query, scopes)
        view = self._views[sql_key] = SharedView(query, sql_key, self.plans, since)
        join_family(self._families, view, scopes)
        self.zones.register(sql_key, view.tables, since)

    def _unsubscribe(self, sql_key: str) -> None:
        """Drop a view with its index entry, plan, family membership
        (the last member takes the shape's plan) and zone."""
        view = self._views.pop(sql_key, None)
        if view is None:
            raise RegistrationError(
                f"shard {self.shard_id} holds no {sql_key!r}"
            )
        self.index.remove(sql_key)
        self.plans.invalidate(sql_key)
        leave_family(self._families, view, self._views)
        self.zones.remove(sql_key)
        if self.db.wal is not None:
            self.db.wal.log_event(
                KIND_SUB_DEREGISTER, client=ROUTER_CLIENT, cq=sql_key
            )

    def _refresh(self) -> List[Tuple[str, DeltaRelation, Timestamp, Timestamp]]:
        """Move every view's window to now, in registration order, in
        one :func:`~repro.core.scheduler.sweep` (``view.last`` records
        each move, without the delta: the router retains the result),
        and every zone with it; the gather entries ``(sql_key, delta,
        since, now)`` of the non-empty deltas, each with the window it
        covers. The sweep evaluates only the views the predicate index
        routes entries to (or quarantined), a routed family's window
        once for all its members."""
        now = self.db.now()
        window = DeltaBatchCache(self.db, self.metrics)
        entries = [
            (view.sql_key, delta, since, now)
            for view, since, delta in sweep(
                self._views.values(), window, self.index, now, self.metrics
            )
            if delta is not None and not delta.is_empty()
        ]
        self.zones.advance_all(now)
        return entries

    # -- state application --------------------------------------------------

    def _commit(self, table: Table, records: List[UpdateRecord]) -> None:
        """Apply scatter-derived records with commit durability: the
        journal frame (and its barrier) land before the in-memory
        apply, the same ordering :class:`Transaction.commit` uses, so a
        crash between the two replays the records instead of losing
        them. No observer notification — a store's view refresh reads
        the update log directly."""
        if not records:
            return
        if table.wal is not None:
            table.wal.log_commit(table.name, records)
            table.wal.commit_barrier()
        table.apply_committed(records)

    def _upsert_slice(self, table_name: str, delta: DeltaRelation) -> None:
        """Upsert one table's scattered delta slice (see module doc)."""
        table = self.db.table(table_name)
        floor = table.log.latest_ts()
        records: List[UpdateRecord] = []
        for entry in sorted(delta, key=lambda e: e.ts):
            # A replayed (over-wide) window may reach below the log
            # tail; clamping keeps the log monotone, and the relevance
            # theorem keeps the late-clamped entry harmless (it was
            # irrelevant to every group when it was skipped).
            ts = floor = max(entry.ts, floor)
            old = table.current.get_or_none(entry.tid)
            # Equal sides: an unchanged row, or a delete of an unknown one.
            if old != entry.new:
                records.append(_record(entry.tid, old, entry.new, ts))
        self._commit(table, records)

    def _apply_baseline(self, table_name: str, target: Relation) -> None:
        """Converge one table onto an authoritative relation.

        Used when the router cannot (or chooses not to) express the gap
        differentially: seeding a table on a newly subscribed shard,
        re-slicing on ring changes, and the replay-fallback recovery
        path. The diff is computed locally so re-seeding an already
        current table journals nothing.
        """
        table = self.db.table(table_name)
        current = table.current
        ts = max(self.db.now(), table.log.latest_ts())
        records: List[UpdateRecord] = []
        for row in target:
            old = current.get_or_none(row.tid)
            if old != row.values:
                records.append(_record(row.tid, old, row.values, ts))
        records.extend(
            _record(row.tid, row.values, None, ts)
            for row in current
            if row.tid not in target
        )
        self._commit(table, records)

    # -- introspection -----------------------------------------------------

    def sql_keys(self) -> List[str]:
        """The ``sql_key`` views this store currently holds."""
        return sorted(self._views)

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` unless the store's records agree —
        the laws every frame must leave standing (``tests/cluster``
        checks them after each ``handle``)."""

        def law(holds: bool, message: str) -> None:
            if not holds:
                raise AssertionError(message)

        views = self._views
        law(
            len(self.index) == len(views) and all(k in self.index for k in views),
            "index keys != view keys",
        )
        check_families(self._families, views, set(views), self.db)
        live = views.keys() | {shape for shape, __ in self._families}
        law(
            all(key in self.plans for key in views)
            and sum(key in self.plans for key in live) == len(self.plans),
            "plans != the live sql_keys and family shapes",
        )
        # The window law: a refresh frame moves every view to its ts
        # (``last`` records the move), an install frame builds a view
        # at its ts and moves no other. So each view starts at the later
        # of the last refresh and its install: the views a refresh moved
        # share its ts, and a view installed since starts no earlier.
        moved = [view.last[1] for view in views.values() if view.last is not None]
        refreshed = max(moved, default=None)
        for key, view in views.items():
            if view.last is not None:  # moved by a refresh: the last one
                holds = view.since == view.last[1] == refreshed
            else:  # installed since the last refresh
                holds = refreshed is None or view.since >= refreshed
            law(
                holds,
                f"{key!r}: window starts at {view.since}, not at the later "
                f"of the last refresh ({refreshed}) and its install",
            )
        since = {key: view.since for key, view in views.items()}
        zones = self.zones.boundaries()
        law(zones == since, f"zones {zones} != window starts {since}")
        for key, view in views.items():
            pruned = max(self.db.table(t).log.pruned_through for t in view.tables)
            law(
                view.since >= pruned,
                f"{key!r}: window starts at {view.since}, below the log's "
                f"pruned-through {pruned}",
            )

    def close(self) -> None:
        if self.db.wal is not None and not self.db.wal.closed:
            self.db.wal.close()

    def __repr__(self) -> str:
        return (
            f"ClusterShard({self.shard_id}, group={self.group}, "
            f"{len(self._views)} views, now={self.db.now()})"
        )


class ShardHost:
    """One cluster host: its own primary store plus replica stores.

    Replication places every group on a primary and (with
    ``replicas>0``) one or more replicas on *distinct* hosts, so a host
    carries several :class:`ClusterShard` stores keyed by placement
    group: its own group (``group == shard_id``, the pre-replication
    store — journal path unchanged for back-compat) and a lazily
    created store per replica group it hosts. Every frame addresses
    its store by its ``group`` field.

    Replica stores hold tables only — every cycle's scattered slices
    are applied WAL-first exactly as on the primary, but no
    views are installed until the promoting
    :class:`~repro.net.messages.ShardSyncMessage` arrives. That
    keeps steady-state replica cost at delta application (no term
    evaluation) and keeps the store's update logs fully prunable, while
    promotion needs no data movement: the slice is already hot.

    Each replica store journals WAL-first under
    ``<wal_root>/shard-<host>/replicas/shard-<group>/``; recovery
    globs that layout to rebuild every store the host held.
    """

    def __init__(
        self,
        shard_id: int,
        decls: Sequence[TableDecl],
        wal_root: Optional[str] = None,
    ):
        self.shard_id = shard_id
        self.decls = list(decls)
        self.wal_root = wal_root
        self.stores: Dict[int, ClusterShard] = {}
        self.ensure_store(shard_id)

    def _replica_root(self) -> Optional[str]:
        if self.wal_root is None:
            return None
        return os.path.join(
            self.wal_root, f"shard-{self.shard_id}", "replicas"
        )

    def _wal_path(self, group: int) -> Optional[str]:
        if self.wal_root is None:
            return None
        if group == self.shard_id:
            return shard_wal_path(self.wal_root, group)
        return shard_wal_path(self._replica_root(), group)

    def ensure_store(self, group: int) -> ClusterShard:
        """The store serving ``group``, created on first use — a new
        replica assignment starts with the seeding frame itself."""
        store = self.stores.get(group)
        if store is None:
            store = ClusterShard(
                self.shard_id,
                self.decls,
                group=group,
                db=Database(durability=self._wal_path(group)),
            )
            self.stores[group] = store
        return store

    @classmethod
    def recover(
        cls,
        shard_id: int,
        decls: Sequence[TableDecl],
        wal_root: str,
    ) -> "ShardHost":
        """Rebuild every store the host journaled (own + replicas)."""
        host = cls.__new__(cls)
        host.shard_id = shard_id
        host.decls = list(decls)
        host.wal_root = wal_root
        host.stores = {}
        host.stores[shard_id] = ClusterShard.recover(
            shard_id, decls, host._wal_path(shard_id)
        )
        replica_root = host._replica_root()
        pattern = os.path.join(replica_root, "shard-*", "wal.log")
        for wal_path in sorted(glob.glob(pattern)):
            directory = os.path.basename(os.path.dirname(wal_path))
            try:
                group = int(directory.split("-", 1)[1])
            except (IndexError, ValueError):
                continue
            host.stores[group] = ClusterShard.recover(
                shard_id, decls, wal_path, group=group
            )
        return host

    # -- protocol ----------------------------------------------------------

    def hello(self) -> ShardHelloMessage:
        """Identity frame covering every store the host holds. The
        top-level horizon is the *minimum* store horizon (conservative:
        router logs must reach the furthest-behind store for a full
        delta-replay rejoin); per-group detail rides in ``groups``."""
        groups = {
            group: {"horizon": store.db.now(), "subs": store.sql_keys()}
            for group, store in sorted(self.stores.items())
        }
        horizon = min(
            (info["horizon"] for info in groups.values()), default=0
        )
        return ShardHelloMessage(self.shard_id, horizon, groups=groups)

    def handle(self, message: Message) -> GatherReplyMessage:
        """Route one frame to the store its ``group`` addresses."""
        if isinstance(message, ShardDrainMessage):
            store = self.stores.pop(message.group, None)
            if store is not None:
                store.close()
            return GatherReplyMessage(
                self.shard_id, message.seq, message.ts, 0
            )
        return self.ensure_store(message.group).handle(message)

    def close(self) -> None:
        for store in self.stores.values():
            store.close()

    def __repr__(self) -> str:
        return (
            f"ShardHost({self.shard_id}, "
            f"groups={sorted(self.stores)})"
        )
