"""The cluster router: scatter/gather refresh over replicated shards.

The router owns the authoritative database (every client commit lands
here first) and drives N shard hosts through refresh cycles:

* **Placement.** Rows of a table with a declared partition key hash to
  exactly one placement *group* through the seeded consistent-hash
  ring; other tables are *replicated on demand* (a store receives their
  deltas only while it hosts a CQ touching them). Subscriptions over
  replicated tables hash to one group by canonical SQL text
  (``sql_key``); a CQ touching a partitioned table runs
  *partition-parallel* on every group, each evaluating over its slice
  (fragment-and-replicate: such a CQ may touch at most one partitioned
  table, so its partial result deltas are tid-disjoint across groups
  and merge by concatenation).

* **Replication.** With ``replicas > 0`` every group is placed on a
  primary host plus replicas on *distinct* hosts (ring-successor
  order, least-loaded first). Replicas are kept in lockstep by
  receiving the same WAL-first scattered slices every cycle but hold
  **no subscriptions** — their steady-state cost is the upsert apply,
  not a second evaluation, and their update logs stay prunable. Only
  the primary's gather feeds the merge.

* **Failure detection.** Every request runs under a deadline with
  bounded retries and jittered exponential backoff; missed acks drive
  the per-host alive → suspect → dead state machine
  (:class:`~repro.cluster.health.HealthMonitor`). A host that exhausts
  its retries is taken out of service mid-cycle.

* **Frames.** A store gets three frame types, one job each. The
  refresh frame (:class:`~repro.net.messages.ScatterMessage`, built
  by :meth:`ClusterRouter._plan` only) moves every window of the store
  and its reply is merged; the install frame
  (:class:`~repro.net.messages.ShardSyncMessage`) seeds, replays,
  promotes and rejoins, and moves no window it does not install; the
  drain frame detaches a store. So a store's window moves only where
  its delta is merged.

* **Failover.** When a primary goes down, the router promotes a
  replica *in the same refresh cycle*: an install frame installs the
  group's views over the replica's (hot, lockstep) tables once its
  clock is at the group's last-served timestamp, so the very next
  scatter window yields the failed cycle's delta bit-identically — no
  baseline transfer, no ``ClusterError``, no missed notification. Lost
  replica capacity is restored in the background by the next refresh
  cycles (``cluster_rereplications``), after which the dead host's
  pinned zone is auto-released instead of holding the logs forever.

* **Relevance scatter.** Each cycle consolidates the per-store missed
  window once and runs it through a router-side
  :class:`~repro.dra.predindex.PredicateIndex` holding every registered
  footprint. Stores none of whose CQ footprints the batch touches get an
  empty refresh frame instead of data (the Section 5.2 relevance
  theorem makes skipping sound); new subscriptions are seeded with a
  baseline in an install frame, so earlier skipped windows never leave
  a gap.

* **Gather + merge.** Partial result deltas come back per ``sql_key``
  from each group's primary; the router merges the tid-disjoint slices
  (a cross-slice row move arrives as delete-on-one-group +
  insert-on-another and is recombined into a modify), re-runs residual
  confirmation on the merged Z-set delta, applies it to the retained
  result, and notifies subscribers.

* **Recovery and resize.** Each store journals scattered state
  WAL-first. :meth:`recover_shard` is a *rejoin*: groups nobody else
  serves come back primary (delta replay while the logs still cover
  the horizon, baseline fallback after), groups that failed over in
  the meantime come back as catch-up replicas (demoted, stale
  registrations dropped). :meth:`add_shard` grows the fleet;
  :meth:`remove_shard` is its planned inverse — drain, hand off,
  stop — with a leading refresh so the handoff is gapless.

See DESIGN.md §12 for the protocol walk-through and recovery matrix.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ClusterError, RegistrationError
from repro.metrics import Metrics
from repro.relational.algebra import SPJQuery
from repro.relational.expressions import ColumnRef, Literal
from repro.relational.predicates import _COMPARE_OPS, _SWAPPED, Comparison
from repro.relational.relation import Relation
from repro.relational.sql import parse_query
from repro.storage.database import Database
from repro.storage.timestamps import Timestamp
from repro.core.gc import ActiveDeltaZones
from repro.delta.capture import deltas_since
from repro.delta.diff import diff
from repro.delta.differential import DeltaEntry, DeltaRelation
from repro.dra.algorithm import dra_initial
from repro.dra.predindex import PredicateIndex
from repro.obs.export import prometheus_text
from repro.cluster.dispatch import DRAIN, PROMOTE, REQUEST, CycleEngine
from repro.cluster.health import ALIVE, HealthMonitor
from repro.cluster.local import LocalBackend
from repro.cluster.ring import HashRing, Partition, partition_filter
from repro.cluster.shard import TableDecl
from repro.net.messages import (
    GatherReplyMessage,
    Message,
    ScatterMessage,
    ShardDrainMessage,
    ShardSyncMessage,
)

#: ``(cq_name, delta, ts)`` notification callback.
DeltaCallback = Callable[[str, DeltaRelation, Timestamp], None]


#: One residual conjunct over the output schema:
#: ``(output position, op, constant)``.
Residual = Tuple[int, Callable, object]


#: Gather-reply counters that proxy a store's refresh cost (the same
#: work counters the shard's per-CQ ``CQStats`` attribution charges);
#: their sum over a host's stores steers load-aware targeting.
_WORK_COUNTERS = (
    "terms_evaluated", "rows_scanned", "delta_rows_read", "predindex_probes"
)


class _SqlGroup:
    """Everything the router holds for one ``sql_key``: the query, the
    placement groups evaluating it, its members — ``(client, cq)`` to
    notification callback — and the one retained (merged) result.
    ``result`` is only ever *replaced*, never mutated, so every member
    aliases it; :meth:`ClusterRouter.result` hands out copies.
    ``reconcile`` asks for a snap to the authoritative result after
    the next refresh's merge (promotion-lag and rebuild healing).
    """

    __slots__ = (
        "sql_key",
        "query",
        "owners",
        "parallel",
        "residuals",
        "members",
        "result",
        "last_ts",
        "reconcile",
    )

    def __init__(
        self,
        sql_key: str,
        query: SPJQuery,
        parallel: bool,
        residuals: Tuple[Residual, ...],
    ):
        self.sql_key = sql_key
        self.query = query
        self.owners: Set[int] = set()  # see ClusterRouter._rehome
        self.parallel = parallel  # partition-parallel: runs on every group
        self.residuals = residuals
        self.members: Dict[Tuple[str, str], Optional[DeltaCallback]] = {}
        self.result: Optional[Relation] = None  # set once seeded
        self.last_ts: Timestamp = 0
        self.reconcile = False


class _Store:
    """One ``(host, group)`` store as the router accounts for it; it
    exists exactly while ``host`` is in ``group``'s placement."""

    __slots__ = ("horizon", "counters", "baselines")

    def __init__(self, horizon: Timestamp):
        self.horizon = horizon  # applied-through timestamp
        #: Last gathered counter snapshot (None until one arrives).
        self.counters: Optional[Dict[str, int]] = None
        #: Per table, ``(ts, ring version)`` of the last baseline this
        #: store confirmed (see ClusterRouter._sync_store).
        self.baselines: Dict[str, Tuple[Timestamp, int]] = {}


class _Group:
    """One placement group: ``hosts`` is its placement, primary first,
    in-service hosts only — the group is *lost* exactly when it is
    empty; ``served`` the last timestamp merged from its primary (the
    promotion registration point; 0 until one is, so a promotion before
    the first merge reconciles unless the replica has seen nothing);
    ``queued`` that it waits for background repair."""

    __slots__ = ("hosts", "served", "queued")

    def __init__(self) -> None:
        self.hosts: List[int] = []
        self.served: Timestamp = 0
        self.queued = False


class _Host:
    """One ring node: the stores it carries by group, whether it is out
    of service, and — once dead — ``pinned``, the groups it carried
    whose failover or repair has not completed. A dead host's GC zone
    is its pin on the router logs; it is released when ``pinned``
    empties."""

    __slots__ = ("stores", "dead", "pinned")

    def __init__(self) -> None:
        self.stores: Dict[int, _Store] = {}
        self.dead = False
        self.pinned: Set[int] = set()

    @property
    def cost(self) -> float:
        """Observed refresh cost: the work counters of every store's
        last gathered snapshot."""
        counters = [s.counters for s in self.stores.values() if s.counters]
        return float(
            sum(c.get(name, 0) for c in counters for name in _WORK_COUNTERS)
        )

    @property
    def horizon(self) -> Optional[Timestamp]:
        """The zone target: the oldest store horizon (None without a
        store) — every store has applied the logs through it."""
        return min(
            (store.horizon for store in self.stores.values()), default=None
        )


class GCReport(dict):
    """:meth:`ClusterRouter.collect_garbage`'s result.

    A plain dict of per-table pruned entry counts (the pre-replication
    return value, unchanged for callers that treat it as one), plus
    ``pinned``: what dead hosts' zones still hold back — boundary,
    retained log rows, and the groups awaiting failover or
    re-replication — so a leaking pin is visible instead of silently
    growing the logs.
    """

    def __init__(
        self,
        pruned: Dict[str, int],
        pinned: Dict[str, Dict[str, object]],
    ):
        super().__init__(pruned)
        self.pinned = pinned


class ClusterRouter:
    """Routes commits, subscriptions, and refreshes across N shards."""

    def __init__(
        self,
        shards: int = 3,
        seed: int = 0,
        metrics: Optional[Metrics] = None,
        backend: Optional[LocalBackend] = None,
        vnodes: int = 64,
        auto_gc: bool = False,
        replicas: int = 0,
        request_timeout: Optional[float] = 30.0,
        retries: int = 1,
        suspect_after: int = 1,
        dead_after: int = 2,
        backoff_base: float = 0.05,
        weights: Optional[Dict[int, float]] = None,
    ):
        if shards < 1:
            raise ClusterError("a cluster needs at least one shard")
        if replicas < 0:
            raise ClusterError("replicas must be >= 0")
        self.metrics = metrics if metrics is not None else Metrics()
        self.backend = backend if backend is not None else LocalBackend()
        #: The authoritative database: clients commit here; shards hold
        #: router-scattered copies (slices) of it.
        self.db = Database()
        self.seed = seed
        self.ring = HashRing(seed=seed, vnodes=vnodes)
        self.index = PredicateIndex(self.metrics)
        self.zones = ActiveDeltaZones(self.db)
        self.auto_gc = auto_gc
        #: Replica stores per group (best effort: capped by host count).
        self.replicas = replicas
        self.health = HealthMonitor(
            suspect_after=suspect_after,
            dead_after=dead_after,
            backoff_base=backoff_base,
            seed=seed,
        )
        self._request_timeout = request_timeout
        self._retries = retries
        #: Every frame leaves through this engine: a refresh cycle
        #: submits its whole plan, a control request one frame.
        self._engine = CycleEngine(self)
        #: Initial per-shard placement weights (heterogeneous fleets);
        #: :meth:`add_shard` takes a ``weight=`` for later joiners.
        self._initial_weights = dict(weights or {})
        self._n_initial = shards
        self._decls: Dict[str, TableDecl] = {}
        self._started = False
        self._seq = 0
        #: One record per subscribed ``sql_key``, and per subscription
        #: the record it is a member of (of that one only).
        self._sql_groups: Dict[str, _SqlGroup] = {}
        self._subs: Dict[Tuple[str, str], _SqlGroup] = {}
        #: One record per placement group and one per host, keyed by
        #: ring node (a host's own group has its id); ``_place`` and
        #: ``_unplace`` are the only code that adds or drops a store.
        self._groups: Dict[int, _Group] = {}
        self._hosts: Dict[int, _Host] = {}

    # -- setup -------------------------------------------------------------

    def declare_table(
        self,
        name: str,
        schema,
        partition_key: Optional[str] = None,
        indexes: Sequence[Sequence[str]] = (),
    ) -> TableDecl:
        """Declare one cluster table (before :meth:`start`)."""
        if self._started:
            raise ClusterError("declare tables before start()")
        decl = TableDecl(
            name, schema, partition_key=partition_key, indexes=indexes
        )
        self._decls[name] = decl
        self.db.create_table(name, decl.schema, indexes=decl.indexes)
        return decl

    def start(self) -> None:
        """Spawn the shard fleet and place it on the ring.

        Every shard is launched before any is waited on: a backend's
        ``spawn`` may return before its host is ready, and completes
        the handshake before that host's first frame, so the fleet
        boots side by side."""
        if self._started:
            raise ClusterError("cluster already started")
        self._started = True
        now = self.db.now()
        for shard_id in range(self._n_initial):
            self._spawn(shard_id, self._initial_weights.get(shard_id, 1.0))
        target = min(self.replicas, self._n_initial - 1)
        if target > 0:
            for group in sorted(self._groups):
                for host in self._replica_targets(group, target):
                    self._place(group, host, now)

    def _spawn(self, shard_id: int, weight: float) -> None:
        """Start one host: on the ring, zoned, and the primary (the
        first store) of its own new group."""
        self.backend.spawn(shard_id, list(self._decls.values()))
        self.ring.add_node(shard_id, weight=weight)
        self._groups[shard_id] = _Group()
        self._hosts[shard_id] = _Host()
        now = self.db.now()
        self.zones.register(self._zone(shard_id), self._all_tables(), now)
        self._place(shard_id, shard_id, now)

    @staticmethod
    def _zone(shard_id: int) -> str:
        return f"shard:{shard_id}"

    def _all_tables(self) -> Tuple[str, ...]:
        return tuple(sorted(self._decls))

    def _alive(self) -> List[int]:
        return [s for s in self.ring.nodes() if not self._hosts[s].dead]

    def _is_lost(self, group: int) -> bool:
        """Nobody serves ``group``: its last store's host died."""
        placed = self._groups.get(group)
        return placed is not None and not placed.hosts

    def _partition(self, table: str, group: int) -> Partition:
        decl = self._decls[table]
        return Partition(
            table, decl.partition_key, decl.key_position, self.ring, group
        )

    def _owned_keys(self, group: int) -> List[str]:
        return sorted(
            sql_key
            for sql_key, shared in self._sql_groups.items()
            if group in shared.owners
        )

    def _group_tables(self, sql_keys: Sequence[str]) -> List[str]:
        needed: Set[str] = set()
        for sql_key in sql_keys:
            needed.update(self._sql_groups[sql_key].query.table_names)
        return sorted(needed)

    # -- placement ----------------------------------------------------------

    def _place(self, group: int, host: int, ts: Timestamp) -> _Store:
        """Append ``host`` to ``group``'s placement: a new store,
        applied through ``ts``."""
        self._groups[group].hosts.append(host)
        store = self._hosts[host].stores[group] = _Store(ts)
        return store

    def _unplace(self, group: int, host: int) -> None:
        self._groups[group].hosts.remove(host)
        del self._hosts[host].stores[group]

    def _replica_targets(
        self, group: int, k: int, exclude: Optional[Set[int]] = None
    ) -> List[int]:
        """``k`` replica hosts for ``group``: ring-successor preference
        order (deterministic from seed + node set), filtered to live
        hosts not already placed, least-loaded first so replica stores
        spread instead of piling onto one ring neighbor.

        Load-aware and weight-aware: hosts are ordered by carried
        stores per unit of placement weight, observed refresh cost per
        unit of weight (both read off the host's stores), then ring
        preference rank (precomputed as a dict; ``pref.index`` inside
        the sort key was the O(groups·hosts·vnodes) re-replication hot
        spot).
        """
        if k <= 0:
            return []
        taken = set(self._groups[group].hosts).union(exclude or ())
        pref = self.ring.lookup_n(f"replica:{group}", len(self.ring))
        rank = {host: position for position, host in enumerate(pref)}
        hosts, weight = self._hosts, self.ring.weight
        ranked = sorted(
            (h for h in pref if h not in taken and not hosts[h].dead),
            key=lambda h: (
                len(hosts[h].stores) / weight(h),
                hosts[h].cost / weight(h),
                rank[h],
            ),
        )
        return ranked[:k]

    # -- transport ----------------------------------------------------------

    def _request(
        self, host: int, message: Message, kind: str = REQUEST
    ) -> Optional[GatherReplyMessage]:
        """One frame to one host, driven to its reply under the
        engine's deadline/retry/backoff policy. None means the host
        never answered — and unless the frame was a best-effort drain,
        the engine has by then taken the host out of service and
        failed its groups over. Never raises."""
        request = self._engine.submit(host, message, kind)
        self._engine.run()
        return request.reply

    def _sync_store(
        self,
        host: int,
        group: int,
        now: Timestamp,
        baselines: Sequence[str] = (),
        replay: Optional[Timestamp] = None,
        subscribe: Sequence[str] = (),
        unsubscribe: Sequence[str] = (),
    ) -> Optional[GatherReplyMessage]:
        """Bring one store in line outside the refresh plan with one
        install frame (:class:`ShardSyncMessage`), which moves no window
        of the store's: only :meth:`_plan`'s refresh frames do, and
        their replies are the ones merged.

        ``baselines`` names tables to (re-)seed with the group's slice
        of the authoritative state; ``replay`` is a horizon whose missed
        window is re-sent differentially instead;
        ``subscribe``/``unsubscribe`` are the ``sql_key`` registrations
        to add and drop.

        Only the baselines the store lacks are built and sent. A
        confirmed baseline stamps the store's record with ``(now, ring
        version)``; a table is left out while that stamp stands — under
        the current ring, with no commit to the table since. A ring
        change voids every stamp, and a store placed anew is a new
        record without any. The frame goes out even when it is left
        empty, so ``seq`` and every counter move as if it were full.

        Baselines take their tables on a placed store to ``now``, past
        its horizon (its last refresh), from which ``_plan`` reads the
        next window: there a row inserted before the baseline and
        deleted after it would net out of the window and stay on the
        store. So such a frame also replays the group's other tables
        from the horizon, and the horizon moves to ``now``.
        """
        store = self._hosts[host].stores.get(group)
        version = self.ring.version
        baselines = [
            name
            for name in baselines
            if store is None or not self._holds(store, name, version)
        ]
        if baselines and store is not None:
            replay = store.horizon
        deltas: Dict[str, DeltaRelation] = {}
        if replay is not None:
            # Read only the tables sliced: their logs reach back to
            # ``replay`` (a rejoin's caller checked; a placed store's
            # horizon is pinned by its host's zone), nobody else's.
            tables = [
                name
                for name in self._group_tables(self._owned_keys(group))
                if name not in baselines
            ]
            deltas = self._slice(
                deltas_since([self.db.table(name) for name in tables], replay),
                group,
                tables,
            )
        self._seq += 1
        reply = self._request(
            host,
            ShardSyncMessage(
                host,
                self._seq,
                now,
                deltas=deltas,
                baselines={
                    name: self._shard_view(name, group) for name in baselines
                },
                subscribe=self._specs(subscribe),
                unsubscribe=list(unsubscribe),
                group=group,
            ),
        )
        if reply is not None and store is not None:
            for name in baselines:
                store.baselines[name] = (now, version)
            if baselines:
                store.horizon = now
        return reply

    def _holds(self, store: _Store, table: str, version: int) -> bool:
        """Whether ``store`` still holds the baseline of ``table`` it
        last confirmed: stamped under ring ``version``, and nothing
        committed to the table after the stamp."""
        stamp = store.baselines.get(table)
        return (
            stamp is not None
            and stamp[1] == version
            and self.db.table(table).log.newest_ts <= stamp[0]
        )

    def _specs(self, sql_keys: Sequence[str]) -> List[Dict[str, str]]:
        """The wire form of shard-side registrations."""
        return [
            {"cq": key, "sql": self._sql_groups[key].query.to_sql()}
            for key in sql_keys
        ]

    def _slice(
        self, window: Dict[str, DeltaRelation], group: int, tables
    ) -> Dict[str, DeltaRelation]:
        """``group``'s non-empty share of ``window`` over ``tables``:
        replicated tables whole, partitioned tables by ring slice."""
        deltas: Dict[str, DeltaRelation] = {}
        for name in tables:
            delta = window.get(name)
            if delta is None:
                continue
            if self._decls[name].partition_key is not None:
                delta = partition_filter(delta, self._partition(name, group))
            if not delta.is_empty():
                deltas[name] = delta
        return deltas

    def _adopt(self, host: int, group: int, reply: GatherReplyMessage) -> None:
        """A store that just confirmed a sync joins ``group``'s
        placement and its host's GC zone — (re-)pinning the router logs
        for a host whose zone was released (a rejoined or freshly
        re-targeted replica host gaining its first store)."""
        self._place(group, host, reply.ts).counters = dict(reply.counters)
        if self.zones.boundary(self._zone(host)) is None:
            self.zones.register(self._zone(host), self._all_tables(), reply.ts)
        self._advance_zone(host)

    def _record_failure(self, host: int) -> None:
        before = self.health.state(host)
        after = self.health.failure(host)
        if before == ALIVE and after != ALIVE:
            self.metrics.count(Metrics.SUSPECTS)

    def _advance_zone(self, host: int) -> None:
        """Move the host's zone up to its stores' oldest horizon."""
        horizon = self._hosts[host].horizon
        if horizon is not None:
            self.zones.try_advance(self._zone(host), horizon)

    # -- subscriptions ------------------------------------------------------

    def subscribe(
        self,
        client_id: str,
        cq_name: str,
        sql: str,
        on_delta: Optional[DeltaCallback] = None,
    ) -> Relation:
        """Register a CQ cluster-wide; returns the initial result.

        The first subscription of a ``sql_key`` installs the footprint
        in the router's predicate index and seeds the owning group(s):
        partition-parallel queries (touching a partitioned table) on
        every group, replicated-only queries on the single group the
        key hashes to. The group's primary registers the CQ; its
        replicas receive the baseline tables only. Later identical
        subscriptions just join the existing group — shard work is
        independent of the subscriber count.
        """
        if not self._started:
            raise ClusterError("start() the cluster before subscribing")
        key = (client_id, cq_name)
        if key in self._subs:
            raise RegistrationError(
                f"client {client_id!r} already registered {cq_name!r}"
            )
        query = parse_query(sql)
        if not isinstance(query, SPJQuery):
            raise RegistrationError(
                "the cluster serves SPJ continual queries"
            )
        for name in set(query.table_names):
            if name not in self._decls:
                raise ClusterError(f"table {name!r} was never declared")
        partitioned = sorted(
            name
            for name in set(query.table_names)
            if self._decls[name].partition_key is not None
        )
        if len(partitioned) > 1:
            raise RegistrationError(
                "a cluster CQ may touch at most one partitioned table "
                f"(got {partitioned}); fragment-and-replicate needs the "
                "partial results to be tid-disjoint"
            )
        sql_key = query.to_sql()
        shared = self._sql_groups.get(sql_key)
        if shared is None:
            scopes = {
                ref.alias: self.db.table(ref.table).schema
                for ref in query.relations
            }
            self.index.add(sql_key, query, scopes)
            shared = self._sql_groups[sql_key] = _SqlGroup(
                sql_key,
                query,
                bool(partitioned),
                self._compile_residuals(query),
            )
            self._rehome(sql_key, self.db.now())
            # E_0 on the kernels, as every tier installs: one DRA term
            # seeded by a whole relation (``db.query`` is the oracle).
            shared.result = dra_initial(query, self.db, metrics=self.metrics)
            shared.last_ts = self.db.now()
        # Joining an existing group shares its retained result instead
        # of re-evaluating — subscriber count stays out of registration
        # cost, mirroring shard-side shared groups.
        shared.members[key] = on_delta
        self._subs[key] = shared
        return shared.result.copy()

    def unsubscribe(self, client_id: str, cq_name: str) -> None:
        """Drop a subscription; the last member of a ``sql_key`` also
        retires the footprint and the shard-side registrations."""
        shared = self._subs.pop((client_id, cq_name), None)
        if shared is None:
            raise RegistrationError(
                f"no subscription {cq_name!r} for client {client_id!r}"
            )
        del shared.members[(client_id, cq_name)]
        if shared.members:
            return
        for group in sorted(shared.owners):
            self._unseed_group(group, shared.sql_key, self.db.now())
        self.index.remove(shared.sql_key)
        del self._sql_groups[shared.sql_key]

    def _rehome(
        self, sql_key: str, now: Timestamp, dissolved: Optional[int] = None
    ) -> None:
        """Point ``sql_key`` at the groups the ownership rule names on
        the current ring — every group for a partition-parallel query,
        the group the key hashes to otherwise — unseeding the groups it
        leaves (but ``dissolved``, whose stores are drained instead)
        and seeding the ones it joins. A new record owns nothing yet,
        so this is also its first seeding."""
        shared = self._sql_groups[sql_key]
        before = shared.owners
        shared.owners = (
            set(self.ring.nodes())
            if shared.parallel
            else {self.ring.lookup(sql_key)}
        )
        for group in sorted(before - shared.owners - {dissolved}):
            self._unseed_group(group, sql_key, now)
        for group in sorted(shared.owners - before):
            self._seed_group(group, sql_key, now)

    def _seed_group(self, group: int, sql_key: str, now: Timestamp) -> None:
        """Install one ``sql_key`` on every live store of ``group``:
        baseline-sync every touched table (sliced for partitioned
        tables), registering the CQ on the primary only — replicas get
        lockstep tables without subscriptions. A store is sent only
        the baselines it lacks (:meth:`_sync_store`): a table it
        confirmed under the current ring, uncommitted since, is left
        out — every later commit would void the stamp, so what the
        store holds is what a fresh baseline would carry, and the gaps
        of earlier relevance-skipped scatters are still closed."""
        tables = sorted(set(self._sql_groups[sql_key].query.table_names))
        for index, host in enumerate(list(self._groups[group].hosts)):
            self._sync_store(
                host,
                group,
                now,
                baselines=tables,
                subscribe=[sql_key] if index == 0 else (),
            )

    def _unseed_group(self, group: int, sql_key: str, now: Timestamp) -> None:
        """Retire one ``sql_key`` from ``group``: only the primary
        holds the registration; replicas carry tables, not
        subscriptions."""
        hosts = self._groups[group].hosts
        if hosts:
            self._sync_store(hosts[0], group, now, unsubscribe=[sql_key])

    def _shard_view(self, table: str, group: int) -> Relation:
        """The slice of a table's authoritative state one group holds."""
        current = self.db.table(table).current
        decl = self._decls[table]
        if decl.partition_key is None:
            return current.copy()
        partition = self._partition(table, group)
        out = Relation(current.schema)
        for row in current:
            if partition.accepts(row.values):
                out.add(row.tid, row.values)
        return out

    # -- residual confirmation ---------------------------------------------

    def _compile_residuals(self, query: SPJQuery) -> Tuple[Residual, ...]:
        """The predicate conjuncts re-checkable on gathered entries.

        A conjunct survives compilation when it is a column-vs-literal
        comparison whose column is visible in the output schema (the
        projection keeps it, or the query is single-relation SELECT *).
        Everything else — join conditions, dropped columns — was
        already enforced shard-side and cannot be re-checked here.
        """
        positions: Dict[Tuple[Optional[str], str], int] = {}
        if query.projection is not None:
            for i, col in enumerate(query.projection):
                positions[(col.ref.qualifier, col.ref.name)] = i
                if col.ref.qualifier is not None:
                    positions.setdefault((None, col.ref.name), i)
        elif query.is_single_relation():
            ref = query.relations[0]
            schema = self.db.table(ref.table).schema
            for i, attribute in enumerate(schema):
                positions[(ref.alias, attribute.name)] = i
                positions[(None, attribute.name)] = i
        else:
            return ()
        out: List[Residual] = []
        for conj in query.predicate.conjuncts():
            if not isinstance(conj, Comparison):
                continue
            left, right = conj.left, conj.right
            if isinstance(left, ColumnRef) and isinstance(right, Literal):
                ref, const, op = left, right.value, _COMPARE_OPS[conj.op]
            elif isinstance(left, Literal) and isinstance(right, ColumnRef):
                ref, const = right, left.value
                op = _COMPARE_OPS[_SWAPPED[conj.op]]
            else:
                continue
            if const is None:
                continue
            position = positions.get((ref.qualifier, ref.name))
            if position is None:
                continue
            out.append((position, op, const))
        return tuple(out)

    def _confirm(
        self, shared: _SqlGroup, entries: List[DeltaEntry]
    ) -> List[DeltaEntry]:
        """Residual confirmation on a merged Z-set delta: a new side
        failing any re-checkable conjunct is dropped (the entry decays
        to its delete half, or vanishes), counted per occurrence."""
        residuals = shared.residuals
        if not residuals:
            return entries
        out: List[DeltaEntry] = []
        for entry in entries:
            new = entry.new
            if new is not None:
                ok = all(
                    new[position] is not None and op(new[position], const)
                    for position, op, const in residuals
                )
                if not ok:
                    self.metrics.count(Metrics.RESIDUAL_DROPS)
                    if entry.old is None:
                        continue
                    entry = DeltaEntry(entry.tid, entry.old, None, entry.ts)
            out.append(entry)
        return out

    # -- refresh ------------------------------------------------------------

    def refresh(self, collect: bool = True) -> int:
        """One cluster refresh cycle: scatter, gather, merge, notify.

        Returns the number of subscriptions that received a delta.
        ``collect`` asks each store to run its own garbage collection
        after refreshing (router-side collection is separate; see
        :meth:`collect_garbage`). A host that misses its deadlines
        mid-cycle is failed over *within* the cycle — its group's
        promoted replica serves the same window, so subscribers never
        see a gap or an error.
        """
        if not self._started:
            raise ClusterError("start() the cluster before refreshing")
        now = self.db.now()
        windows: Dict[Timestamp, Tuple[Dict, Set[str]]] = {}
        frames: Dict[Tuple[int, Timestamp], Dict[str, DeltaRelation]] = {}
        # Planning order (sorted groups, placement order within a
        # group) fixes the per-host FIFO queues, so a group's primary
        # frame still precedes its replicas' on a shared host.
        planned = [
            (
                host,
                group,
                self._engine.submit(
                    host,
                    self._plan(host, group, now, collect, windows, frames),
                ),
            )
            for group, placed in sorted(self._groups.items())
            for host in placed.hosts
        ]
        self._engine.run()
        # The engine only recorded replies; absorbing them in planning
        # order keeps merge inputs and notification order independent
        # of arrival order. A host that died mid-cycle (failover
        # already ran) is skipped: ``_on_host_down`` unplaced its
        # stores, and a reply that arrived before the verdict must not
        # resurrect them.
        pending: Dict[str, Tuple[List[DeltaRelation], Timestamp]] = {}
        for host, group, request in planned:
            if request.reply is None or self._hosts[host].dead:
                continue
            feeds = pending if self._groups[group].hosts[0] == host else None
            self._absorb(host, group, request.reply, feeds)
        notified = self._merge_and_notify(pending)
        self._drain_rereplication(now)
        keys = [
            sql_key
            for sql_key, shared in sorted(self._sql_groups.items())
            if shared.reconcile
        ]
        for sql_key in keys:
            self._sql_groups[sql_key].reconcile = False
        self._reconcile(keys, now)
        if self.auto_gc:
            self.collect_garbage()
        return notified

    def _plan(
        self,
        host: int,
        group: int,
        now: Timestamp,
        collect: bool,
        windows: Dict[Timestamp, Tuple[Dict, Set[str]]],
        frames: Dict[Tuple[int, Timestamp], Dict[str, DeltaRelation]],
    ) -> ScatterMessage:
        """The store's refresh frame for this cycle: it carries the
        missed window's slices when the window touches any of its
        group's footprints, and nothing otherwise.

        ``windows`` memoizes (window, routed-keys) by horizon for the
        cycle: in steady state every store shares one horizon, so the
        consolidated window is captured and footprint-matched once per
        cycle, not once per store. ``frames`` memoizes the sliced
        per-table deltas by (group, horizon): a group's primary and
        replicas receive identical slices — that is what keeps replicas
        in lockstep — so the slicing work is done once per group.
        """
        horizon = self._hosts[host].stores[group].horizon
        cached = windows.get(horizon)
        if cached is None:
            window = deltas_since(
                [self.db.table(name) for name in self._all_tables()], horizon
            )
            # A key the index quarantined (matching may quarantine one)
            # matches nothing, so routing cannot vouch for it: it counts
            # as routed, and its stores evaluate it unrouted.
            routed = (
                self.index.match_batch(window).keys() | self.index.stale()
                if window
                else set()
            )
            cached = windows[horizon] = (window, routed)
        window, routed = cached
        self._seq += 1
        deltas: Dict[str, DeltaRelation] = {}
        if window:
            deltas = frames.get((group, horizon))
            if deltas is None:
                local = {
                    sql_key
                    for sql_key in routed
                    if group in self._sql_groups[sql_key].owners
                }
                deltas = frames[(group, horizon)] = self._slice(
                    window, group, self._group_tables(local)
                )
            self.metrics.count(
                Metrics.SCATTERS if deltas else Metrics.SCATTER_SKIPPED
            )
        return ScatterMessage(
            host, self._seq, now, deltas=deltas, collect=collect, group=group
        )

    def _absorb(
        self,
        host: int,
        group: int,
        reply: GatherReplyMessage,
        pending: Optional[Dict[str, Tuple[List[DeltaRelation], Timestamp]]],
    ) -> None:
        """Record one store's reply; only the group primary's entries
        (``pending`` not None) feed the merge."""
        store = self._hosts[host].stores[group]
        store.counters = dict(reply.counters)
        store.horizon = reply.ts
        self._advance_zone(host)
        if pending is None:
            return
        placed = self._groups[group]
        placed.served = max(placed.served, reply.ts)
        for sql_key, delta, ts in reply.entries:
            if sql_key not in self._sql_groups:
                continue  # raced an unsubscribe
            parts, seen = pending.get(sql_key, ([], 0))
            parts.append(delta)
            pending[sql_key] = (parts, max(seen, ts))

    def _merge_and_notify(
        self, pending: Dict[str, Tuple[List[DeltaRelation], Timestamp]]
    ) -> int:
        """Per gathered ``sql_key``: merge the primaries' partial
        deltas, apply the merged delta to the one retained result, and
        notify the members."""
        notified = 0
        for sql_key, (parts, ts) in sorted(pending.items()):
            shared = self._sql_groups.get(sql_key)
            if shared is None:
                continue  # its last member left from an earlier callback
            merged = self._merge(shared, parts)
            if merged is not None:
                notified += self._advance(
                    shared, self._apply(merged, shared.result), merged, ts
                )
        return notified

    @staticmethod
    def _advance(
        shared: _SqlGroup,
        result: Relation,
        delta: DeltaRelation,
        ts: Timestamp,
    ) -> int:
        """Replace ``shared``'s retained result — once, for every
        member — and notify the members ``delta``. A callback may
        subscribe or unsubscribe: a joiner already aliases the new
        result and is not notified, a leaver is skipped."""
        shared.result = result
        shared.last_ts = ts
        notified = 0
        for key in list(shared.members):
            if key in shared.members:
                on_delta = shared.members[key]
                if on_delta is not None:
                    on_delta(key[1], delta, ts)
                notified += 1
        return notified

    def _merge(
        self, shared: _SqlGroup, parts: List[DeltaRelation]
    ) -> Optional[DeltaRelation]:
        """Concatenate tid-disjoint partial deltas into one Z-set delta.

        The only legitimate tid collision is a cross-slice row move (a
        partition-key update): the old owner contributes the delete
        half, the new owner the insert half — recombined into a modify
        and counted as a merge conflict.
        """
        self.metrics.count(Metrics.CLUSTER_MERGES)
        if len(parts) == 1:
            entries = list(parts[0])
            schema = parts[0].schema
        else:
            schema = parts[0].schema
            by_tid: Dict[object, DeltaEntry] = {}
            for part in parts:
                for entry in part:
                    existing = by_tid.get(entry.tid)
                    if existing is None:
                        by_tid[entry.tid] = entry
                        continue
                    self.metrics.count(Metrics.MERGE_CONFLICTS)
                    combined = self._combine(existing, entry)
                    if combined is None:
                        del by_tid[entry.tid]
                    else:
                        by_tid[entry.tid] = combined
            entries = list(by_tid.values())
        entries = self._confirm(shared, entries)
        if not entries:
            return None
        return DeltaRelation(schema, entries)

    @staticmethod
    def _combine(a: DeltaEntry, b: DeltaEntry) -> Optional[DeltaEntry]:
        ts = max(a.ts, b.ts)
        if a.new is None and b.old is None:
            old, new = a.old, b.new
        elif b.new is None and a.old is None:
            old, new = b.old, a.new
        else:
            # Not a clean move; keep the later sighting whole.
            later = a if a.ts >= b.ts else b
            old, new = later.old, later.new
        if old == new:
            return None
        return DeltaEntry(a.tid, old, new, ts)

    @staticmethod
    def _apply(delta: DeltaRelation, result: Relation) -> Relation:
        """``delta.apply_to`` tolerant of recovery-replay skew.

        A recovered shard's catch-up entries interleave with partial
        merges the alive shards already delivered, so two delete shapes
        need care: a re-delivered delete (row already gone — a no-op)
        and a *stale* delete, the old-owner half of a cross-slice row
        move whose new-owner insert landed cycles ago. The old side
        identifies what a delete removes; when it no longer matches the
        retained value, a later entry superseded it and the delete is
        dropped. Inserts and modifies carry the current value outright,
        so applying them late is always safe.
        """
        out = result.copy()
        for entry in delta:
            if entry.new is None:
                if out.get_or_none(entry.tid) == entry.old:
                    out.discard(entry.tid)
            else:
                out.add(entry.tid, entry.new)
        return out

    # -- failure handling ---------------------------------------------------

    def _on_host_down(self, host: int) -> None:
        """Take a host out of service and fail its groups over.

        Groups it served as primary promote a replica on the spot;
        groups left with no live store are *lost* (rebuilt from the
        authoritative database in the background when ``replicas > 0``,
        or held for :meth:`recover_shard` otherwise). Every affected
        group pins the host's zone until its capacity is restored.
        """
        record = self._hosts[host]
        if record.dead:
            return
        record.dead = True
        self.health.mark_dead(host)
        # Unplacing drops the dead host's store records with it: they
        # are meaningless now (rejoin reads the journal's own account,
        # not router memory) and must not leak into horizon aggregation
        # if the host comes back.
        affected = sorted(record.stores)
        record.pinned.update(affected)
        for group in affected:
            self._hand_off(group, host)

    def _hand_off(self, group: int, host: int) -> None:
        """``host`` stops carrying ``group``: a replica takes over when
        it was the primary, the group is lost when it was the last
        store, and the missing capacity is queued for repair."""
        placed = self._groups[group]
        was_primary = placed.hosts[0] == host
        self._unplace(group, host)
        if placed.hosts and was_primary:
            self._promote(group)
        if self.replicas:
            placed.queued = True

    def _promote(self, group: int) -> None:
        """Zero-downtime failover: the group's first surviving replica
        becomes primary through an install frame carrying the group's
        views and the last-served timestamp. The replica advances its
        clock to that timestamp and installs the views over its
        lockstep tables as of its clock then — the served timestamp
        when the replica has applied nothing past it, so the very next
        scatter window reproduces the failed primary's delta
        bit-identically, with no baseline transfer. The reply carries
        the store's clock before the frame; a mismatch with the served
        timestamp means the views start elsewhere than the members'
        results end, and the affected keys are queued for an exact
        reconcile instead of trusting the window.

        The promote frame is submitted at the *front* of the target's
        queue: if the new primary's lockstep scatter of this cycle has
        not been dispatched yet, the promote still precedes it (the
        bit-identical ordering); if the scatter already ran, the
        promote's horizon mismatch queues the reconcile. Whoever took
        the host down outside an engine run (:meth:`kill_shard`,
        :meth:`remove_shard`) runs the engine afterwards."""
        placed = self._groups[group]
        target = placed.hosts[0]
        self._seq += 1
        self._engine.submit(
            target,
            ShardSyncMessage(
                target,
                self._seq,
                placed.served,
                subscribe=self._specs(self._owned_keys(group)),
                group=group,
            ),
            kind=PROMOTE,
            front=True,
        )

    def _finish_promote(
        self, message: ShardSyncMessage, reply: GatherReplyMessage
    ) -> None:
        self.metrics.count(Metrics.FAILOVERS)
        store = self._hosts[message.shard_id].stores[message.group]
        store.counters = dict(reply.counters)
        if reply.horizon != message.ts:
            for spec in message.subscribe:
                shared = self._sql_groups.get(spec["cq"])
                if shared is not None:  # not raced by an unsubscribe
                    shared.reconcile = True

    def _drain_rereplication(self, now: Timestamp) -> None:
        """Background capacity repair, one batch per refresh cycle:
        rebuild lost groups from the authoritative database, then top
        replica counts back up; release dead hosts' pinned zones once
        every group they carried is healthy again. A group queued while
        the batch runs waits for the next one."""
        queue = [(g, p) for g, p in sorted(self._groups.items()) if p.queued]
        for _group, placed in queue:
            placed.queued = False
        for group, placed in queue:
            if not placed.hosts and not self._rebuild_group(group, now):
                placed.queued = True
                continue
            self._top_up(group, now)
            self._maybe_release(group)

    def _repair_all(self, now: Timestamp) -> None:
        """Queue every group for repair and drain once: what a host
        entering service (rejoined or added) owes the fleet."""
        if self.replicas:
            for placed in self._groups.values():
                placed.queued = True
            self._drain_rereplication(now)

    def _rebuild_group(self, group: int, now: Timestamp) -> bool:
        """Re-create a lost group's primary from the authoritative
        database on a surviving host; members are healed by an exact
        reconcile after this cycle's merge."""
        candidates = self._replica_targets(group, 1)
        if not candidates:
            return False
        host = candidates[0]
        owned = self._owned_keys(group)
        reply = self._sync_store(
            host,
            group,
            now,
            baselines=self._group_tables(owned),
            subscribe=owned,
        )
        if reply is None:
            return False
        self.metrics.count(Metrics.REREPLICATIONS)
        self._adopt(host, group, reply)
        self._groups[group].served = reply.ts
        for sql_key in owned:
            self._sql_groups[sql_key].reconcile = True
        return True

    def _strength(self) -> int:
        """Stores a healthy group keeps: the primary plus ``replicas``,
        capped by the hosts in service."""
        return 1 + min(self.replicas, max(len(self._alive()) - 1, 0))

    def _top_up(self, group: int, now: Timestamp) -> None:
        target = self._strength()
        placed = self._groups[group]
        for host in self._replica_targets(group, target - len(placed.hosts)):
            if self._seed_replica(group, host, now):
                self.metrics.count(Metrics.REREPLICATIONS)
        if len(placed.hosts) < target:
            placed.queued = True  # retry when capacity returns

    def _seed_replica(self, group: int, host: int, now: Timestamp) -> bool:
        """Baseline-sync one new replica store (tables only, no
        subscriptions); it joins the group's lockstep from the next
        cycle on."""
        reply = self._sync_store(
            host,
            group,
            now,
            baselines=self._group_tables(self._owned_keys(group)),
        )
        if reply is not None:
            self._adopt(host, group, reply)
        return reply is not None

    def _pinning(self) -> List[int]:
        """Dead hosts whose zone still pins the router logs."""
        return [
            host
            for host, record in sorted(self._hosts.items())
            if record.dead
            and self.zones.boundary(self._zone(host)) is not None
        ]

    def _maybe_release(self, group: int) -> None:
        """Unpin dead hosts' zones once ``group`` is healthy again
        (failed over and fully re-replicated) — the pinned-zone leak
        fix: a crashed host whose groups all moved on must not hold
        the update logs forever waiting for a rejoin that may never
        come."""
        if len(self._groups[group].hosts) < self._strength():
            return
        for host in self._pinning():
            pins = self._hosts[host].pinned
            pins.discard(group)
            if not pins:
                self.zones.remove(self._zone(host))

    # -- shard lifecycle ----------------------------------------------------

    def kill_shard(self, shard_id: int, release_zone: bool = False) -> None:
        """Simulate a shard crash: the process state is gone, the
        journal survives. With replicas the host's groups fail over
        immediately (promotion happens here, not at the next refresh);
        without, the groups are lost until :meth:`recover_shard`. The
        host's zone keeps the router logs pinned for delta replay
        unless ``release_zone`` lets GC move on — or until background
        re-replication restores the groups' capacity and auto-releases
        it."""
        record = self._hosts.get(shard_id)
        if record is not None and record.dead:
            raise ClusterError(f"shard {shard_id} is already dead")
        self.backend.kill(shard_id)
        self._on_host_down(shard_id)
        self._engine.run()  # the promotions that queued
        if release_zone:
            record.pinned.clear()
            self.zones.remove(self._zone(shard_id))

    def recover_shard(self, shard_id: int) -> bool:
        """Rejoin a dead host and resume it differentially.

        Returns True when the rejoin replayed update-log deltas — or
        when the cluster never lost anything because failover kept
        every group serving, making this a planned catch-up — and False
        for the baseline fallback (a lost group whose horizon the
        pruned router logs no longer reach).

        Per journaled store: a group nobody else serves comes back
        *primary* (the pre-replication recovery path — replay or
        re-seed, then an exact per-key reconcile of member results); a
        group that failed over while the host was down comes back as a
        catch-up *replica* (stale registrations dropped — the promoted
        primary keeps serving, no downtime); a group that was dissolved
        or is already at full strength is drained.
        """
        record = self._hosts.get(shard_id)
        if record is None or not record.dead:
            raise ClusterError(f"shard {shard_id} is not dead")
        hello = self.backend.recover(shard_id, list(self._decls.values()))
        record.dead = False
        record.pinned.clear()
        self.health.forget(shard_id)
        now = self.db.now()
        if any(self._is_lost(group) for group in hello.groups):
            intact = all(
                self.db.table(name).log.pruned_through <= hello.horizon
                for name in self._all_tables()
            )
            self.metrics.count(
                Metrics.SHARD_REPLAYS if intact else Metrics.SHARD_FALLBACKS
            )
        else:
            # Nothing was lost — failover kept every group serving, so
            # this is a planned catch-up, not a recovery.
            intact = True
            self.metrics.count(Metrics.SHARD_REPLAYS)
        self.zones.register(self._zone(shard_id), self._all_tables(), now)
        for group, info in sorted(hello.groups.items()):
            placed = self._groups.get(group)
            if self._is_lost(group):
                self._rejoin_primary(shard_id, group, info, now, intact)
            elif placed is not None and len(placed.hosts) < 1 + self.replicas:
                self._rejoin_replica(shard_id, group, info, now)
            else:
                self._drain_store(shard_id, group, now)
        self._advance_zone(shard_id)
        self._repair_all(now)
        if not record.stores:
            # Every store the journal held was drained (its groups are
            # served at full strength elsewhere): the host idles as
            # spare capacity, and an idle host must not pin the logs —
            # its zone would never advance again.
            self.zones.remove(self._zone(shard_id))
        return intact

    def _rejoin_primary(
        self,
        host: int,
        group: int,
        info: Dict,
        now: Timestamp,
        intact: bool,
    ) -> None:
        """The pre-replication recovery path, per group: replay the
        missed window differentially while the router logs still cover
        the store's horizon, or re-seed baselines after GC pruned past
        it; re-install every owned view as of ``now`` (drop what the
        journal held, install what the group owns); then snap member
        results to the authoritative database at ``now`` too — where
        the store's windows start (journal recovery rebases views on
        their registration-era state, so one exact re-evaluation per key
        at a rare recovery buys bit-identical convergence)."""
        held = sorted(info.get("subs", ()))
        owned = self._owned_keys(group)
        missing = [key for key in owned if key not in held]
        reply = self._sync_store(
            host,
            group,
            now,
            baselines=self._group_tables(missing if intact else owned),
            replay=info.get("horizon", 0) if intact else None,
            subscribe=owned,
            unsubscribe=held,
        )
        if reply is None:
            return
        self._adopt(host, group, reply)
        self._groups[group].served = reply.ts
        self._reconcile(owned, now)

    def _rejoin_replica(
        self, host: int, group: int, info: Dict, now: Timestamp
    ) -> None:
        """Catch a journaled store back up and demote it to replica:
        the group failed over while this host was down, so the promoted
        primary keeps serving — the rejoiner drops its stale
        registrations (its results were served-past by the failover)
        and just re-enters the lockstep."""
        horizon = info.get("horizon", 0)
        tables = self._group_tables(self._owned_keys(group))
        intact = all(
            self.db.table(name).log.pruned_through <= horizon
            for name in tables
        )
        reply = self._sync_store(
            host,
            group,
            now,
            baselines=() if intact else tables,
            replay=horizon if intact else None,
            unsubscribe=sorted(info.get("subs", ())),
        )
        if reply is not None:
            self._adopt(host, group, reply)

    def _drain_store(self, host: int, group: int, now: Timestamp) -> None:
        """Best-effort detach of one store (its group moved on): the
        one request whose failure does not take the host down."""
        self._seq += 1
        self._request(
            host, ShardDrainMessage(host, self._seq, now, group=group), DRAIN
        )

    def add_shard(self, weight: float = 1.0) -> int:
        """Grow the fleet by one shard (index handoff included).

        A leading refresh consumes every pending window first — commits
        between the last refresh and the resize would otherwise be
        re-sliced into baselines before any store evaluated them.
        Placement then moves with the ring: partitioned tables re-slice
        on every store (each converges onto its new slice through a
        local baseline diff), replicated ``sql_key`` subscriptions
        whose hash moved re-home (unsubscribe + baseline-seeded
        re-register), partition-parallel subscriptions additionally
        register on the new group, and with ``replicas > 0`` the new
        group gets its own replicas. ``weight`` scales the new shard's
        vnode count, so a beefier host immediately owns a
        proportionally larger share of slices and ``sql_key`` homes.
        """
        if not self._started:
            raise ClusterError("start() the cluster before adding shards")
        self.refresh(collect=False)
        new_id = max(self.ring.nodes()) + 1 if len(self.ring) else 0
        self._spawn(new_id, weight)
        now = self.db.now()
        self._reslice(now, skip=new_id)
        # Index handoff + new-group registrations.
        for sql_key in sorted(self._sql_groups):
            self._rehome(sql_key, now)
        # The new group gets its replicas, and — one more host in
        # service may have raised _strength() — so do the groups a
        # smaller fleet had capped below ``replicas`` (or they stay
        # queued), like the ones a rejoin finds short.
        self._repair_all(now)
        return new_id

    def _reslice(self, now: Timestamp, skip: int) -> None:
        """The ring changed: every store outside group ``skip`` (the
        one joining or dissolving) converges onto its new slice of each
        partitioned table — rows whose owner moved are deleted from the
        old group and inserted on the new one by each store's local
        baseline diff."""
        partitioned = sorted(
            name
            for name, decl in self._decls.items()
            if decl.partition_key is not None
        )
        if not partitioned:
            return
        for group, placed in sorted(self._groups.items()):
            if group != skip:
                for host in list(placed.hosts):
                    self._sync_store(host, group, now, baselines=partitioned)

    def remove_shard(self, shard_id: int) -> None:
        """Planned drain — the inverse of :meth:`add_shard`.

        A leading refresh makes the handoff gapless (the departing
        stores serve every pending window first). The host's replica
        and promoted stores hand off to survivors (promotion for the
        groups it led, background top-up for the capacity it carried);
        its own group dissolves — partitioned slices re-slice onto the
        survivors through the shrunken ring, replicated ``sql_key``
        subscriptions re-home to the groups their hash now names, and
        surviving replica stores of the dissolved group are drained.
        The process is then stopped cleanly (no journal replay owed),
        and every trace of the host leaves the routing state.
        """
        if not self._started:
            raise ClusterError("start() the cluster before removing shards")
        record = self._hosts.get(shard_id)
        if record is not None and record.dead:
            raise ClusterError(
                f"shard {shard_id} is dead — remove_shard is the planned "
                "drain; recover it first or leave it for recover_shard"
            )
        if record is None:
            raise ClusterError(f"shard {shard_id} is not in the cluster")
        if len(self._alive()) <= 1:
            raise ClusterError("cannot remove the last live shard")
        self.refresh(collect=False)
        now = self.db.now()
        # 1) Hand off the stores this host carries for *other* groups.
        for group in sorted(set(record.stores) - {shard_id}):
            if self._groups[group].hosts == [shard_id]:
                # Sole holder of a foreign group (it failed over here):
                # seed a replacement replica before letting go.
                candidate = self._replica_targets(
                    group, 1, exclude={shard_id}
                )
                if candidate:
                    self._seed_replica(group, candidate[0], now)
            self._hand_off(group, shard_id)
        self._engine.run()  # the promotions that queued
        # 2) Dissolve the host's own group (by now the only one the
        # host still carries): re-slice onto the shrunken ring, re-home
        # its subscriptions, drain its surviving replica stores, then
        # stop the departing process cleanly.
        own = shard_id
        replica_hosts = [h for h in self._groups[own].hosts if h != shard_id]
        self.ring.remove_node(shard_id)
        self._reslice(now, skip=own)
        for sql_key in sorted(self._sql_groups):
            self._rehome(sql_key, now, dissolved=own)
        for host in replica_hosts:
            if not self._hosts[host].dead:
                self._drain_store(host, own, now)
        self.backend.stop(shard_id)
        # 3) Forget the host and its group.
        for host in self._groups.pop(own).hosts:
            del self._hosts[host].stores[own]
        del self._hosts[shard_id]
        self.zones.remove(self._zone(shard_id))
        self.health.forget(shard_id)
        for other in self._hosts.values():
            other.pinned.discard(own)
        self._drain_rereplication(now)

    def _reconcile(self, sql_keys: Sequence[str], now: Timestamp) -> None:
        """Snap members of ``sql_keys`` to the authoritative result,
        notifying the exact catch-up delta each member missed."""
        for sql_key in sql_keys:
            shared = self._sql_groups.get(sql_key)
            if shared is None:
                continue
            oracle = self.db.query(shared.query, self.metrics)
            catch_up = diff(shared.result, oracle, ts=now)
            if not catch_up.is_empty():
                self._advance(shared, oracle, catch_up, now)

    # -- maintenance --------------------------------------------------------

    def collect_garbage(self) -> GCReport:
        """Prune the router's update logs up to the oldest shard zone.

        A dead host whose groups still await failover or
        re-replication pins every table (its replay window must
        survive); the pin auto-releases once the groups are healthy
        elsewhere, and ``.pinned`` on the report shows the boundary,
        retained log rows, and waiting groups of every pin still held.
        """
        pruned = self.zones.collect()
        return GCReport(pruned, self._pinned_report())

    def _pinned_report(self) -> Dict[str, Dict[str, object]]:
        report: Dict[str, Dict[str, object]] = {}
        for host in self._pinning():
            zone = self._zone(host)
            boundary = self.zones.boundary(zone)
            retained = sum(
                len(self.db.table(name).log.since(boundary))
                for name in self._all_tables()
            )
            report[zone] = {
                "boundary": boundary,
                "retained_rows": retained,
                "groups": sorted(self._hosts[host].pinned),
            }
        return report

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` unless the control-plane records
        agree with each other — the laws every membership, failover and
        repair path must leave standing (the soaks call this after
        every operation)."""
        ring = set(self.ring.nodes())
        placed = [
            (host, group)
            for group, record in self._groups.items()
            for host in record.hosts
        ]
        stored = {
            (host, group)
            for host, record in self._hosts.items()
            for group in record.stores
        }
        dead = {host for host, record in self._hosts.items() if record.dead}
        members = sum(len(s.members) for s in self._sql_groups.values())
        memberless = sorted(
            key
            for key, shared in self._sql_groups.items()
            if not shared.members
        )
        strength = self._strength()
        weak = sorted(
            group
            for group, record in self._groups.items()
            if 0 < len(record.hosts) < strength and not record.queued
        )
        zoned = set(self.zones.boundaries())
        carrying = {self._zone(host) for host, _group in stored}
        pinned = {self._zone(host) for host in dead}
        laws = [
            (
                set(self._groups) == ring and set(self._hosts) == ring,
                f"groups {sorted(self._groups)} and hosts "
                f"{sorted(self._hosts)} != ring nodes {sorted(ring)}",
            ),
            (
                len(set(placed)) == len(placed) and set(placed) == stored,
                f"placement {sorted(placed)} != stores {sorted(stored)}",
            ),
            (
                not {host for host, _group in stored} & dead,
                f"dead hosts placed: {sorted(dead)} in {sorted(stored)}",
            ),
            (
                not any(r.pinned for r in self._hosts.values() if not r.dead),
                "a live host pins groups",
            ),
            (
                members == len(self._subs)
                and all(
                    key in shared.members
                    and self._sql_groups.get(shared.sql_key) is shared
                    for key, shared in self._subs.items()
                ),
                "subscriptions and group member lists disagree",
            ),
            (not memberless, f"memberless sql_keys {memberless}"),
            (not weak, f"groups {weak} under strength and not queued"),
            (
                carrying <= zoned <= carrying | pinned,
                f"zones {sorted(zoned)} vs carrying {sorted(carrying)} "
                f"+ pinned {sorted(zoned & pinned)}",
            ),
        ]
        broken = [message for holds, message in laws if not holds]
        if broken:
            raise AssertionError("; ".join(broken))

    def result(self, client_id: str, cq_name: str) -> Relation:
        """The retained (merged) result of one subscription."""
        try:
            return self._subs[(client_id, cq_name)].result.copy()
        except KeyError:
            raise RegistrationError(
                f"no subscription {cq_name!r} for client {client_id!r}"
            ) from None

    # -- observability ------------------------------------------------------

    def _role(self, host: int, group: int) -> str:
        return "primary" if self._groups[group].hosts[0] == host else "replica"

    def stats(self) -> Dict[str, object]:
        """Router counters plus per-host aggregation, placement,
        health, and pinned-zone detail."""
        shards: Dict[int, Dict[str, object]] = {}
        totals: Dict[str, int] = {}
        for host, record in sorted(self._hosts.items()):
            counters: Dict[str, int] = {}
            groups: Dict[int, Dict[str, object]] = {}
            for group, store in sorted(record.stores.items()):
                for name, value in (store.counters or {}).items():
                    counters[name] = counters.get(name, 0) + value
                    totals[name] = totals.get(name, 0) + value
                groups[group] = {
                    "role": self._role(host, group),
                    "horizon": store.horizon,
                }
            shards[host] = {
                "alive": not record.dead,
                "health": self.health.state(host),
                "horizon": record.horizon,
                "zone": self.zones.boundary(self._zone(host)),
                "counters": counters,
                "groups": groups,
            }
        return {
            "now": self.db.now(),
            "seq": self._seq,
            "subscriptions": len(self._subs),
            "sql_keys": len(self._sql_groups),
            "replicas": self.replicas,
            "router": self.metrics.snapshot(),
            "shards": shards,
            "shard_totals": totals,
            "placement": {
                group: list(record.hosts)
                for group, record in sorted(self._groups.items())
            },
            "lost": sorted(g for g, p in self._groups.items() if not p.hosts),
            "health": self.health.snapshot(),
            "pinned": self._pinned_report(),
        }

    def prometheus(self, namespace: str = "repro") -> str:
        """One exposition: router samples plus per-store labelled
        samples (``{shard="<host>", group="<group>", role="..."}``),
        collision-free by construction."""
        chunks = [
            prometheus_text(
                self.metrics, namespace, labels={"role": "router"}
            )
        ]
        stores = sorted(
            (host, group, store)
            for host, record in self._hosts.items()
            for group, store in record.stores.items()
            if store.counters is not None  # nothing gathered from it yet
        )
        for host, group, store in stores:
            bag = Metrics()
            # A replica store evaluates nothing, so its counter bag can
            # be empty; the store-horizon sample keeps every store (and
            # its role label) present in the exposition regardless.
            bag.count("cluster_store_horizon", store.horizon)
            for name, value in store.counters.items():
                bag.count(name, value)
            chunks.append(
                prometheus_text(
                    bag,
                    namespace,
                    labels={
                        "shard": str(host),
                        "group": str(group),
                        "role": self._role(host, group),
                    },
                )
            )
        return "".join(chunks)

    def describe(self) -> List[Dict[str, object]]:
        out = []
        for (client_id, cq_name), shared in sorted(self._subs.items()):
            out.append(
                {
                    "client": client_id,
                    "cq": cq_name,
                    "sql_key": shared.sql_key,
                    "shards": sorted(shared.owners),
                    "parallel": shared.parallel,
                    "last_ts": shared.last_ts,
                    "result_rows": len(shared.result),
                }
            )
        return out

    def close(self) -> None:
        self.backend.close()

    def __repr__(self) -> str:
        return (
            f"ClusterRouter({len(self.ring)} shards, "
            f"{len(self._subs)} subscriptions, now={self.db.now()})"
        )
