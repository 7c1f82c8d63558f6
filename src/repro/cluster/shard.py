"""One cluster shard: a CQ server driven by router scatter messages.

A shard is an ordinary :class:`~repro.net.server.CQServer` (fan-out
mode, so it owns a predicate index and shared-materialization groups
for the ``sql_key`` subscriptions routed to it) whose *only* writer is
the cluster router. Each :class:`~repro.net.messages.ScatterMessage`
carries one refresh cycle's relevant delta slices; the shard folds them
into its tables (journaling WAL-first, exactly like a local commit),
refreshes, and returns the affected groups' result deltas in a
:class:`~repro.net.messages.GatherReplyMessage` for the router's
cross-shard merge.

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

from repro.errors import NetworkError
from repro.metrics import Metrics
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.relational.types import AttributeType
from repro.storage.database import Database
from repro.storage.table import Table
from repro.storage.update_log import UpdateKind, UpdateRecord
from repro.storage.wal import shard_checkpoint_path, shard_wal_path
from repro.delta.differential import DeltaRelation
from repro.net.messages import (
    DeltaMessage,
    GatherReplyMessage,
    Message,
    RegisterMessage,
    ScatterMessage,
    ShardDrainMessage,
    ShardHeartbeatMessage,
    ShardHelloMessage,
    ShardPromoteMessage,
)
from repro.net.server import CQServer, Protocol
from repro.net.simnet import SimulatedNetwork

#: txn_id stamped on records a shard applied from a scatter (as -1 marks
#: single-op convenience transactions).
SCATTER_TXN = -2

#: The client id every shard-side subscription registers under.
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


class _Collector:
    """The in-process 'router' endpoint a shard's server delivers to.

    Plain list capture: refresh deltas accumulate here and are drained
    into the cycle's GatherReply. ``defer_zone_advance`` stays False —
    a captured delivery *is* the acknowledgment (the reply either
    reaches the router or the shard is declared dead and replays), so
    shard GC zones advance with every refresh.
    """

    name = ROUTER_CLIENT
    defer_zone_advance = False

    def __init__(self) -> None:
        self.messages: List[Message] = []
        self.server = None  # set by CQServer.attach

    def receive(self, message: Message) -> None:
        self.messages.append(message)

    def drain(self) -> List[Message]:
        out, self.messages = self.messages, []
        return out


class ClusterShard:
    """Hosts one shard's slice of the cluster: tables + subscriptions."""

    def __init__(
        self,
        shard_id: int,
        decls: Sequence[TableDecl],
        metrics: Optional[Metrics] = None,
        wal_root: Optional[str] = None,
        columnar: bool = False,
        server: Optional[CQServer] = None,
        group: Optional[int] = None,
        wal_path: Optional[str] = None,
    ):
        self.shard_id = shard_id
        self.decls = list(decls)
        self.wal_root = wal_root
        #: The placement group this store serves. A host's own group is
        #: its shard id; replica stores carry another group's slice.
        self.group = shard_id if group is None else group
        self.role = "primary" if self.group == shard_id else "replica"
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
        self._reply_cache_cap = 8
        if server is None:
            self.metrics = metrics if metrics is not None else Metrics()
            if wal_path is None and wal_root is not None:
                wal_path = shard_wal_path(wal_root, shard_id)
            db = Database(durability=wal_path)
            server = CQServer(
                db,
                SimulatedNetwork(latency_seconds=0.0),
                name=self._server_name(shard_id, self.group),
                metrics=self.metrics,
                fanout=True,
                columnar=columnar,
            )
        else:
            self.metrics = server.metrics
        self.server = server
        self.db = server.db
        for decl in self.decls:
            if decl.name not in self.db:
                self.db.create_table(
                    decl.name, decl.schema, indexes=decl.indexes
                )
        self._collector = _Collector()
        server.attach(self._collector)

    @staticmethod
    def _server_name(shard_id: int, group: int) -> str:
        if group == shard_id:
            return f"shard-{shard_id}"
        return f"shard-{shard_id}:group-{group}"

    @classmethod
    def recover(
        cls,
        shard_id: int,
        decls: Sequence[TableDecl],
        wal_root: str,
        metrics: Optional[Metrics] = None,
        columnar: bool = False,
        group: Optional[int] = None,
        wal_path: Optional[str] = None,
        checkpoint_path: Optional[str] = None,
    ) -> "ClusterShard":
        """Rebuild a killed shard store from its own WAL (+ checkpoint).

        The recovered server re-creates journaled subscriptions and
        re-seeds their shared groups; the host's hello then reports the
        applied horizon so the router can choose delta replay or
        baseline fallback. Explicit ``wal_path``/``checkpoint_path``
        address a replica store's journal (which lives under the host's
        directory, not at the default shard path).
        """
        from repro.core.persistence import recover_server

        metrics = metrics if metrics is not None else Metrics()
        if wal_path is None:
            wal_path = shard_wal_path(wal_root, shard_id)
        if checkpoint_path is None:
            checkpoint_path = shard_checkpoint_path(wal_root, shard_id)
        server = recover_server(
            wal_path,
            checkpoint_path=checkpoint_path,
            network=SimulatedNetwork(latency_seconds=0.0),
            metrics=metrics,
            fanout=True,
            columnar=columnar,
        )
        server.name = cls._server_name(
            shard_id, shard_id if group is None else group
        )
        return cls(
            shard_id, decls, wal_root=wal_root, server=server, group=group
        )

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
        elif isinstance(message, ShardHeartbeatMessage):
            reply = self._handle_heartbeat(message)
        elif isinstance(message, ShardPromoteMessage):
            reply = self._handle_promote(message)
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

    def _handle_promote(
        self, message: ShardPromoteMessage
    ) -> GatherReplyMessage:
        """Become the group primary: register the owned ``sql_key`` CQs
        over the tables this store already holds (kept in lockstep by
        every cycle's scattered slices).

        ``message.ts`` is the group's last *served* timestamp: the
        registration-era state then equals the router's retained
        results, and the next scatter's window ``(ts, now]`` produces
        the failed primary's delta bit-identically. The reply's
        ``horizon`` reports the store's caught-up-through timestamp
        *before* any clock advance, so the router can detect a lagging
        replica and fall back to an exact reconcile.
        """
        horizon = self.db.now()
        self.db.clock.advance_to(message.ts)
        held = {s.cq_name for s in self.server.subscriptions()}
        for spec in message.subscribe:
            if spec["cq"] in held:
                continue
            self.server.handle_register(
                ROUTER_CLIENT,
                RegisterMessage(
                    spec["cq"], spec["sql"], Protocol.DRA_DELTA.value
                ),
            )
        # Registration initials are local evaluations the router already
        # retains authoritatively; drop them.
        self._collector.drain()
        self.role = "primary"
        return GatherReplyMessage(
            self.shard_id,
            message.seq,
            message.ts,
            horizon,
            counters=self.metrics.snapshot(),
        )

    def _handle_heartbeat(self, message: ShardHeartbeatMessage) -> GatherReplyMessage:
        """An empty-scatter cycle: advance every window, evaluate nothing.

        The refresh still runs — with no new log entries the predicate
        index routes no group, so each group's window (and its members'
        GC zones) moves to ``ts`` without a single term evaluation.
        """
        self.db.clock.advance_to(message.ts)
        self.server.refresh_all()
        self._collector.drain()
        if message.collect:
            # ``include_unwatched`` keeps replica stores prunable: they
            # carry no subscriptions, so without it their logs would
            # grow forever. Safe on primaries too — a shard-side log
            # only ever feeds local CQ windows, never recovery (that
            # replays from the router's logs).
            self.server.collect_garbage(include_unwatched=True)
        return self._reply(message.seq, message.ts, [])

    def _handle_scatter(self, message: ScatterMessage) -> GatherReplyMessage:
        self.db.clock.advance_to(message.ts)
        for sql_key in message.unsubscribe:
            self.server.deregister(ROUTER_CLIENT, sql_key)
        # Deltas before baselines: delta entries carry their original
        # commit timestamps (≤ ts), baseline records are stamped at the
        # log tail — applying in this order keeps each log monotone.
        for table_name in sorted(message.deltas):
            self._apply_delta(table_name, message.deltas[table_name])
        for table_name in sorted(message.baselines):
            self._apply_baseline(table_name, message.baselines[table_name])
        for spec in message.subscribe:
            self.server.handle_register(
                ROUTER_CLIENT,
                RegisterMessage(
                    spec["cq"], spec["sql"], Protocol.DRA_DELTA.value
                ),
            )
        # Initial results are delivered at registration; the router
        # computes its own authoritative initials, so drop them here.
        self._collector.drain()
        self.server.refresh_all()
        entries = [
            (cq_name, m.delta, m.ts)
            for m in self._collector.drain()
            if isinstance(m, DeltaMessage)
            for cq_name in m.cq_names
        ]
        if message.collect:
            self.server.collect_garbage(include_unwatched=True)
        return self._reply(message.seq, message.ts, entries)

    def _reply(
        self,
        seq: int,
        ts: int,
        entries: List[Tuple[str, DeltaRelation, int]],
    ) -> GatherReplyMessage:
        return GatherReplyMessage(
            self.shard_id,
            seq,
            ts,
            self.db.now(),
            entries=entries,
            counters=self.metrics.snapshot(),
        )

    # -- state application --------------------------------------------------

    def _commit(self, table: Table, records: List[UpdateRecord]) -> None:
        """Apply scatter-derived records with commit durability: the
        journal frame (and its barrier) land before the in-memory
        apply, the same ordering :class:`Transaction.commit` uses, so a
        crash between the two replays the records instead of losing
        them. No observer notification — a shard's CQ refresh reads
        the update log directly."""
        if not records:
            return
        if table.wal is not None:
            table.wal.log_commit(table.name, records)
            table.wal.commit_barrier()
        table.apply_committed(records)

    def _apply_delta(self, table_name: str, delta: DeltaRelation) -> None:
        """Upsert one table's scattered delta slice (see module doc)."""
        table = self.db.table(table_name)
        floor = table.log.latest_ts()
        records: List[UpdateRecord] = []
        for entry in sorted(delta, key=lambda e: e.ts):
            # A replayed (over-wide) window may reach below the log
            # tail; clamping keeps the log monotone, and the relevance
            # theorem keeps the late-clamped entry harmless (it was
            # irrelevant to every group when it was skipped).
            ts = max(entry.ts, floor)
            floor = ts
            known = entry.tid in table.current
            if entry.new is None:
                if not known:
                    continue
                records.append(
                    UpdateRecord(
                        UpdateKind.DELETE,
                        entry.tid,
                        table.current.get(entry.tid),
                        None,
                        ts,
                        SCATTER_TXN,
                    )
                )
            elif known:
                old = table.current.get(entry.tid)
                if old == entry.new:
                    continue
                records.append(
                    UpdateRecord(
                        UpdateKind.MODIFY,
                        entry.tid,
                        old,
                        entry.new,
                        ts,
                        SCATTER_TXN,
                    )
                )
            else:
                records.append(
                    UpdateRecord(
                        UpdateKind.INSERT,
                        entry.tid,
                        None,
                        entry.new,
                        ts,
                        SCATTER_TXN,
                    )
                )
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
        ts = max(self.db.now(), table.log.latest_ts())
        records: List[UpdateRecord] = []
        for row in target:
            if row.tid in table.current:
                old = table.current.get(row.tid)
                if old != row.values:
                    records.append(
                        UpdateRecord(
                            UpdateKind.MODIFY,
                            row.tid,
                            old,
                            row.values,
                            ts,
                            SCATTER_TXN,
                        )
                    )
            else:
                records.append(
                    UpdateRecord(
                        UpdateKind.INSERT,
                        row.tid,
                        None,
                        row.values,
                        ts,
                        SCATTER_TXN,
                    )
                )
        for row in list(table.current):
            if row.tid not in target:
                records.append(
                    UpdateRecord(
                        UpdateKind.DELETE,
                        row.tid,
                        row.values,
                        None,
                        ts,
                        SCATTER_TXN,
                    )
                )
        self._commit(table, records)

    # -- introspection -----------------------------------------------------

    def sql_keys(self) -> List[str]:
        """The ``sql_key`` subscriptions this shard currently owns."""
        return sorted(s.cq_name for s in self.server.subscriptions())

    def close(self) -> None:
        if self.db.wal is not None and not self.db.wal.closed:
            self.db.wal.close()

    def __repr__(self) -> str:
        return (
            f"ClusterShard({self.shard_id}, "
            f"{len(self.server.subscriptions())} subscriptions, "
            f"now={self.db.now()})"
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
    subscriptions are registered until a
    :class:`~repro.net.messages.ShardPromoteMessage` arrives. That
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
        columnar: bool = False,
    ):
        self.shard_id = shard_id
        self.decls = list(decls)
        self.wal_root = wal_root
        self.columnar = columnar
        self.stores: Dict[int, ClusterShard] = {}
        self.ensure_store(shard_id)

    def _replica_root(self) -> Optional[str]:
        if self.wal_root is None:
            return None
        return os.path.join(
            self.wal_root, f"shard-{self.shard_id}", "replicas"
        )

    def _paths(self, group: int) -> Tuple[Optional[str], Optional[str]]:
        if self.wal_root is None:
            return None, None
        if group == self.shard_id:
            return (
                shard_wal_path(self.wal_root, group),
                shard_checkpoint_path(self.wal_root, group),
            )
        root = self._replica_root()
        return (shard_wal_path(root, group), shard_checkpoint_path(root, group))

    def ensure_store(self, group: int) -> ClusterShard:
        """The store serving ``group``, created on first use — a new
        replica assignment starts with the seeding frame itself."""
        store = self.stores.get(group)
        if store is None:
            wal_path, __ = self._paths(group)
            store = ClusterShard(
                self.shard_id,
                self.decls,
                wal_root=self.wal_root,
                columnar=self.columnar,
                group=group,
                wal_path=wal_path,
            )
            self.stores[group] = store
        return store

    @classmethod
    def recover(
        cls,
        shard_id: int,
        decls: Sequence[TableDecl],
        wal_root: str,
        columnar: bool = False,
    ) -> "ShardHost":
        """Rebuild every store the host journaled (own + replicas)."""
        host = cls.__new__(cls)
        host.shard_id = shard_id
        host.decls = list(decls)
        host.wal_root = wal_root
        host.columnar = columnar
        host.stores = {}
        host.stores[shard_id] = ClusterShard.recover(
            shard_id, decls, wal_root, columnar=columnar
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
                shard_id,
                decls,
                wal_root,
                columnar=columnar,
                group=group,
                wal_path=wal_path,
                checkpoint_path=os.path.join(
                    os.path.dirname(wal_path), "checkpoint.json"
                ),
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
