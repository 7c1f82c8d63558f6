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
  and add).

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
  from each group's primary, each with its window ``(since, ts)``. The
  router holds one :class:`~repro.core.scheduler.SharedView` per key
  and merges each window exactly once: the parts are tid-disjoint
  slices of one Z-set delta, so they add (a cross-slice row move is the
  old owner's delete plus the new owner's insert, one modify), and the
  sum moves the view through its one step. A window that is not the
  view's, or a tid in two parts that is not a move, is a protocol
  violation and raises. A key is served whole or not at all: while one
  of its owner groups is lost its view does not move. A rejoined or
  rebuilt primary, a promotion that installed the key elsewhere than
  its view's ``since`` and a re-home of a view that is behind all
  leave the key behind until the end of the next refresh, where every
  owner store's tables have just reached one timestamp; there one
  catch-up re-installs the key at that timestamp on every owner
  primary and moves the router's view over its window of the router's
  own logs, in the sweep every other tier refreshes by. Members are
  notified only once every view of the cycle has moved.

* **Recovery and resize.** Each store journals scattered state
  WAL-first. :meth:`recover_shard` is a *rejoin*: groups nobody else
  serves come back primary (delta replay while the logs still cover
  the horizon, baseline fallback after), groups that failed over in
  the meantime come back as catch-up replicas (demoted, stale
  registrations dropped); either way the partitioned tables are
  re-seeded, since the ring may have moved while the host was down.
  :meth:`add_shard` grows the fleet;
  :meth:`remove_shard` is its planned inverse — drain, hand off,
  stop — with a leading refresh so the handoff is gapless.

See DESIGN.md §12 for the protocol walk-through and recovery matrix.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ClusterError, RegistrationError
from repro.metrics import Metrics
from repro.relational.algebra import SPJQuery
from repro.relational.relation import Relation
from repro.relational.sql import parse_query
from repro.storage.database import Database
from repro.storage.timestamps import Timestamp
from repro.core.gc import ActiveDeltaZones
from repro.core.scheduler import DeltaBatchCache, SharedView, sweep
from repro.delta.capture import deltas_since
from repro.delta.differential import DeltaEntry, DeltaRelation
from repro.dra.predindex import PredicateIndex
from repro.dra.prepared import PlanCache
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

#: A cycle's gathered parts: per ``sql_key``, ``(delta, since, ts)``
#: from each owner group's primary.
Parts = Dict[str, List[Tuple[DeltaRelation, Timestamp, Timestamp]]]


#: Gather-reply counters that proxy a store's refresh cost (the same
#: work counters the shard's per-CQ ``CQStats`` attribution charges);
#: their sum over a host's stores steers load-aware targeting.
_WORK_COUNTERS = (
    "terms_evaluated", "rows_scanned", "delta_rows_read", "predindex_probes"
)


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
    the first merge catches its keys up unless their views start at 0);
    ``queued`` that it waits for background repair."""

    __slots__ = ("hosts", "served", "queued")

    def __init__(self) -> None:
        self.hosts: List[int] = []
        self.served: Timestamp = 0
        self.queued = False


class _Host:
    """One ring node: the stores it carries by group, whether it is out
    of service, and — once dead — ``pinned``, the groups it carried
    whose failover or repair has not completed, and ``ring``, the ring
    version its journaled stores were sliced under. A dead host's GC
    zone is its pin on the router logs; it is released when ``pinned``
    empties."""

    __slots__ = ("stores", "dead", "pinned", "ring")

    def __init__(self) -> None:
        self.stores: Dict[int, _Store] = {}
        self.dead = False
        self.pinned: Set[int] = set()
        self.ring: Optional[int] = None

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
        self.plans = PlanCache(self.db, self.metrics)
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
        #: One view per subscribed ``sql_key`` (its ``members`` map
        #: ``(client, cq)`` to the notification callback; its step
        #: moves ``result`` in place, every member aliases it and
        #: :meth:`result` hands out copies), the placement groups
        #: evaluating it (see ``_rehome``), and per subscription the
        #: view it is a member of.
        self._views: Dict[str, SharedView] = {}
        self._owners: Dict[str, Set[int]] = {}
        self._subs: Dict[Tuple[str, str], SharedView] = {}
        #: Keys some owner store installed elsewhere than their view's
        #: ``since`` (a promotion, a rejoined or rebuilt primary, a
        #: re-home): they do not move until the end of a refresh
        #: catches them up (``_catch_up``).
        self._behind: Set[str] = set()
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
        self._place(shard_id, shard_id, self.db.now())

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
            for sql_key, owners in self._owners.items()
            if group in owners
        )

    def _group_tables(self, sql_keys: Sequence[str]) -> List[str]:
        needed: Set[str] = set()
        for sql_key in sql_keys:
            needed.update(self._views[sql_key].query.table_names)
        return sorted(needed)

    def _partitioned(self, query: SPJQuery) -> List[str]:
        """The partitioned tables ``query`` reads: a query reading one
        runs partition-parallel, on every group."""
        return sorted(
            name
            for name in set(query.table_names)
            if self._decls[name].partition_key is not None
        )

    def _lost_owner(self, sql_key: str) -> bool:
        return any(self._is_lost(group) for group in self._owners[sql_key])

    # -- placement ----------------------------------------------------------

    def _place(self, group: int, host: int, ts: Timestamp) -> _Store:
        """Append ``host`` to ``group``'s placement: a new store,
        applied through ``ts``."""
        self._groups[group].hosts.append(host)
        store = self._hosts[host].stores[group] = _Store(ts)
        self._rezone(host, ts)
        return store

    def _unplace(self, group: int, host: int) -> None:
        self._groups[group].hosts.remove(host)
        del self._hosts[host].stores[group]
        self._rezone(host, self.db.now())

    def _rezone(self, host: int, ts: Timestamp) -> None:
        """The one zone rule: a live host holds a GC zone exactly while
        it carries a store (registered at ``ts`` when it gains its
        first); a dead host's zone is its pin on the router logs, left
        to :meth:`_maybe_release`."""
        record, zone = self._hosts[host], self._zone(host)
        if record.dead:
            return
        if not record.stores:
            self.zones.remove(zone)
        elif self.zones.boundary(zone) is None:
            self.zones.register(zone, self._all_tables(), ts)

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

    @staticmethod
    def _specs(sql_keys: Sequence[str]) -> List[Dict[str, str]]:
        """The wire form of shard-side registrations (a ``sql_key`` is
        its query's canonical SQL)."""
        return [{"cq": key, "sql": key} for key in sql_keys]

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
        placement, and so its host's GC zone."""
        self._place(group, host, reply.ts).counters = dict(reply.counters)
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
        partitioned = self._partitioned(query)
        if len(partitioned) > 1:
            raise RegistrationError(
                "a cluster CQ may touch at most one partitioned table "
                f"(got {partitioned}); fragment-and-replicate needs the "
                "partial results to be tid-disjoint"
            )
        sql_key = query.to_sql()
        view = self._views.get(sql_key)
        if view is None:
            scopes = {
                ref.alias: self.db.table(ref.table).schema
                for ref in query.relations
            }
            self.index.add(sql_key, query, scopes)
            # E_0 on the kernels, as every tier installs. The view
            # exists before its seeding frames go out, so a promotion
            # they cause sees it.
            now = self.db.now()
            plan = self.plans.get(sql_key, query)
            view = self._views[sql_key] = SharedView.at(
                query, sql_key, self.plans, plan, now, self.metrics
            )
            self._owners[sql_key] = set()
            self._rehome(sql_key, now)
        # Joining an existing view shares its retained result instead
        # of re-evaluating — subscriber count stays out of registration
        # cost, mirroring shard-side shared views.
        view.members[key] = on_delta
        self._subs[key] = view
        return view.result.copy()

    def unsubscribe(self, client_id: str, cq_name: str) -> None:
        """Drop a subscription; the last member of a ``sql_key`` also
        retires the footprint and the shard-side registrations."""
        view = self._subs.pop((client_id, cq_name), None)
        if view is None:
            raise RegistrationError(
                f"no subscription {cq_name!r} for client {client_id!r}"
            )
        del view.members[(client_id, cq_name)]
        if view.members:
            return
        sql_key = view.sql_key
        # Owners go first: a promotion the unseeding causes must not
        # install the key on the new primary.
        for group in sorted(self._owners.pop(sql_key)):
            self._unseed_group(group, sql_key, self.db.now())
        self.index.remove(sql_key)
        self.plans.invalidate(sql_key)
        del self._views[sql_key]
        self._behind.discard(sql_key)

    def _rehome(
        self, sql_key: str, now: Timestamp, dissolved: Optional[int] = None
    ) -> None:
        """Point ``sql_key`` at the groups the ownership rule names on
        the current ring — every group for a partition-parallel query,
        the group the key hashes to otherwise — unseeding the groups it
        leaves (but ``dissolved``, whose stores are drained instead)
        and seeding the ones it joins. A new view owns nothing yet, so
        this is also its first seeding. A joined group starts the key
        at ``now``: when the view is behind that, the key is left
        behind, to be caught up at the end of the next refresh."""
        before = self._owners[sql_key]
        owners = self._owners[sql_key] = (
            set(self.ring.nodes())
            if self._partitioned(self._views[sql_key].query)
            else {self.ring.lookup(sql_key)}
        )
        for group in sorted(before - owners - {dissolved}):
            self._unseed_group(group, sql_key, now)
        joined = sorted(owners - before)
        for group in joined:
            self._seed_group(group, sql_key, now)
        if joined and self._views[sql_key].since != now:
            self._behind.add(sql_key)

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
        tables = sorted(set(self._views[sql_key].query.table_names))
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

    # -- refresh ------------------------------------------------------------

    def refresh(self, collect: bool = True) -> int:
        """One cluster refresh cycle: scatter, gather, merge, notify.

        Returns the number of members notified, caught-up keys'
        included. ``collect`` asks each store to run its own garbage
        collection after refreshing (router-side collection is
        separate; see :meth:`collect_garbage`). A host that misses its
        deadlines mid-cycle is failed over *within* the cycle — its
        group's promoted replica serves the same window, so subscribers
        never see a gap or an error. One window of the router's logs,
        charging no counters, serves the frames and the catch-up.
        """
        if not self._started:
            raise ClusterError("start() the cluster before refreshing")
        now = self.db.now()
        window = DeltaBatchCache(self.db)
        frames: Dict[Tuple[int, Timestamp], Dict[str, DeltaRelation]] = {}
        # Planning order (sorted groups, placement order within a
        # group) fixes the per-host FIFO queues, so a group's primary
        # frame still precedes its replicas' on a shared host.
        planned = [
            (
                host,
                group,
                self._engine.submit(
                    host, self._plan(host, group, now, collect, window, frames)
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
        pending: Parts = {}
        for host, group, request in planned:
            reply = request.reply
            if reply is None or self._hosts[host].dead:
                continue
            store = self._hosts[host].stores[group]
            store.counters, store.horizon = dict(reply.counters), reply.ts
            self._advance_zone(host)
            placed = self._groups[group]
            if placed.hosts[0] == host:  # a primary's entries feed the merge
                placed.served = max(placed.served, reply.ts)
                for sql_key, delta, since, ts in reply.entries:
                    pending.setdefault(sql_key, []).append((delta, since, ts))
        notified = self._merge_and_notify(pending, now, window)
        if self.auto_gc:
            self.collect_garbage()
        return notified

    def _plan(
        self,
        host: int,
        group: int,
        now: Timestamp,
        collect: bool,
        window: DeltaBatchCache,
        frames: Dict[Tuple[int, Timestamp], Dict[str, DeltaRelation]],
    ) -> ScatterMessage:
        """The store's refresh frame for this cycle: it carries the
        missed window's slices when the window touches any of its
        group's footprints, and nothing otherwise.

        ``window`` consolidates and routes each horizon's window once
        per cycle (:meth:`DeltaBatchCache.due`): in steady state every
        store shares one horizon. ``frames`` memoizes the sliced
        per-table deltas by (group, horizon): a group's primary and
        replicas receive identical slices — that is what keeps replicas
        in lockstep — so the slicing work is done once per group.
        """
        horizon = self._hosts[host].stores[group].horizon
        tables = self._all_tables()
        deltas = window.deltas(tables, horizon, now)
        self._seq += 1
        if deltas:
            sliced = frames.get((group, horizon))
            if sliced is None:
                local = [
                    sql_key
                    for sql_key in window.due(self.index, tables, horizon, now)
                    if group in self._owners[sql_key]
                ]
                sliced = frames[(group, horizon)] = self._slice(
                    deltas, group, self._group_tables(local)
                )
            deltas = sliced
            self.metrics.count(
                Metrics.SCATTERS if deltas else Metrics.SCATTER_SKIPPED
            )
        return ScatterMessage(
            host, self._seq, now, deltas=deltas, collect=collect, group=group
        )

    def _merge_and_notify(
        self, pending: Parts, now: Timestamp, window: DeltaBatchCache
    ) -> int:
        """Move every view, then notify; returns the members notified.
        Every served view — no owner group lost, not behind — moves to
        ``now`` by the sum of its owner primaries' partial deltas, the
        capacity repair runs, the keys behind are caught up; then the
        members each move found are notified, merged keys first, then
        caught-up keys, each in key order, also when a later move
        raised. No callback
        runs while a window is still to be read, and a member joining
        meanwhile holds the moved result, so it is not notified.

        Each owner store of a served key moved its window from the
        view's ``since`` to ``now`` this cycle, so a part over any other
        window is a protocol violation; the parts of a key that is not
        served are left unread."""
        lost = {group for group, placed in self._groups.items() if not placed.hosts}
        moved: List[Tuple[SharedView, DeltaRelation, list]] = []
        try:
            for sql_key, view in sorted(self._views.items()):
                if sql_key in self._behind or lost & self._owners[sql_key]:
                    continue
                parts = pending.get(sql_key, ())
                for __, since, ts in parts:
                    if (since, ts) != (view.since, now):
                        raise ClusterError(
                            f"{sql_key!r}: a part over ({since}, {ts}] is not "
                            f"the view's window ({view.since}, {now}]"
                        )
                delta = self._merge([part for part, __, __ in parts])
                view.step(delta, view.since, now, view.result)
                if delta is not None and not delta.is_empty():
                    moved.append((view, delta, list(view.members.items())))
            self._drain_rereplication(now)
            if self._behind:
                self._catch_up(now, window, moved)
        finally:
            notified = 0
            for view, delta, members in moved:
                live = view.members
                for key, on_delta in members:
                    if key in live:  # a callback may have unsubscribed it
                        if on_delta is not None:
                            on_delta(key[1], delta, now)
                        notified += 1
        return notified

    def _merge(self, parts: List[DeltaRelation]) -> Optional[DeltaRelation]:
        """The Z-set sum of one key's partial deltas.

        The parts are tid-disjoint slices, so a tid in two of them can
        only be a cross-slice row move (a partition-key update): the
        old owner's delete plus the new owner's insert, which sum to one
        modify (counted as a merge conflict) or, with equal sides, to
        nothing. Any other collision is a protocol violation.
        """
        if not parts:
            return None
        self.metrics.count(Metrics.CLUSTER_MERGES)
        if len(parts) == 1:
            return parts[0]
        merged: Dict[object, DeltaEntry] = {}
        moves = 0
        for part in parts:
            for entry in part:
                other = merged.get(entry.tid)
                if other is None:
                    merged[entry.tid] = entry
                    continue
                gone, came = (other, entry) if other.new is None else (entry, other)
                if gone.new is not None or came.old is not None:
                    raise ClusterError(
                        f"tid {entry.tid!r} is in two slices and is not a "
                        f"cross-slice move: {other!r}, {entry!r}"
                    )
                moves += 1
                merged[entry.tid] = DeltaEntry(
                    entry.tid, gone.old, came.new, max(gone.ts, came.ts)
                )
        entries = merged.values()
        if moves:
            self.metrics.count(Metrics.MERGE_CONFLICTS, moves)
            entries = [e for e in entries if e.old != e.new]
        return DeltaRelation(parts[0].schema, entries)

    def _catch_up(
        self,
        now: Timestamp,
        window: DeltaBatchCache,
        moved: List[Tuple[SharedView, DeltaRelation, list]],
    ) -> None:
        """Move the keys behind to ``now``, at the end of a refresh,
        where every placed store's tables have just reached ``now``:
        re-install each on every owner primary as of ``now``, one
        install frame per group, and move its view over ``(since, now]``
        of the router's logs in one :func:`~repro.core.scheduler.sweep`
        (a window GC retired is evaluated whole and diffed), appending
        each changed one to ``moved``. A key with a lost owner group
        waits for the group's return, its view unmoved; one whose owner
        changed primary meanwhile stays behind, for the next refresh."""
        keys = sorted(key for key in self._behind if not self._lost_owner(key))
        done: Dict[int, Optional[int]] = {}
        for group in sorted(set().union(*(self._owners[key] for key in keys))):
            hosts = self._groups[group].hosts
            if hosts:
                owned = [key for key in keys if group in self._owners[key]]
                reply = self._sync_store(
                    hosts[0], group, now, subscribe=owned, unsubscribe=owned
                )
                done[group] = hosts[0] if reply is not None else None
        ready = [
            self._views[key]
            for key in keys
            if all(self._groups[g].hosts[:1] == [done.get(g)] for g in self._owners[key])
        ]
        try:
            for view, __, delta in sweep(ready, window, self.index, now, self.metrics):
                if delta is not None and not delta.is_empty():
                    moved.append((view, delta, list(view.members.items())))
        finally:
            self._behind.difference_update(
                view.sql_key for view in ready if view.since == now
            )

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
        record.ring = self.ring.version
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
        the store's clock before the frame, so the router knows where
        the views start: a key whose view does not start there is left
        behind, to be caught up instead of trusting the window.

        The promote frame is submitted at the *front* of the target's
        queue: if the new primary's lockstep scatter of this cycle has
        not been dispatched yet, the promote still precedes it (the
        bit-identical ordering); if it already ran, the views start
        past the served timestamp and are caught up. Whoever took
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
        installed = max(reply.horizon, message.ts)
        for spec in message.subscribe:
            view = self._views.get(spec["cq"])
            if view is not None and view.since != installed:
                self._behind.add(view.sql_key)

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
        database on a surviving host."""
        candidates = self._replica_targets(group, 1)
        tables = self._group_tables(self._owned_keys(group))
        if candidates and self._restore(candidates[0], group, now, baselines=tables):
            self.metrics.count(Metrics.REREPLICATIONS)
            return True
        return False

    def _restore(self, host: int, group: int, now: Timestamp, **sync) -> bool:
        """Make ``host`` the primary of lost ``group`` with one install
        frame bringing its tables to ``now`` (``sync``) and installing
        every key the group owns as of ``now``; whether it confirmed.
        A rejoin and a rebuild both end here. The other owners' tables
        may still be at their last refresh, so the keys are left behind
        for the end of the next one, where every owner is at one ts."""
        owned = self._owned_keys(group)
        reply = self._sync_store(host, group, now, subscribe=owned, **sync)
        if reply is None:
            return False
        self._adopt(host, group, reply)
        self._groups[group].served = reply.ts
        self._behind.update(owned)
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
        re-seed; its keys are caught up, and their members notified, at
        the end of the next refresh); a
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
        self._rezone(shard_id, now)  # no store yet: its pin goes
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
        it; drop what the journal held and re-install every owned view
        as of ``now``. Partitioned tables are re-seeded if the ring
        changed while the host was down (:meth:`_sliced`)."""
        held = sorted(info.get("subs", ()))
        owned = self._owned_keys(group)
        missing = [key for key in owned if key not in held]
        tables = self._group_tables(missing if intact else owned)
        self._restore(
            host,
            group,
            now,
            baselines=sorted({*tables, *self._sliced(owned, host)}),
            replay=info.get("horizon", 0) if intact else None,
            unsubscribe=held,
        )

    def _rejoin_replica(
        self, host: int, group: int, info: Dict, now: Timestamp
    ) -> None:
        """Catch a journaled store back up and demote it to replica:
        the group failed over while this host was down, so the promoted
        primary keeps serving — the rejoiner drops its stale
        registrations (its results were served-past by the failover)
        and just re-enters the lockstep, its partitioned tables
        re-seeded if the ring changed meanwhile (:meth:`_sliced`)."""
        horizon = info.get("horizon", 0)
        owned = self._owned_keys(group)
        tables = self._group_tables(owned)
        intact = all(
            self.db.table(name).log.pruned_through <= horizon
            for name in tables
        )
        reply = self._sync_store(
            host,
            group,
            now,
            baselines=self._sliced(owned, host) if intact else tables,
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
        for sql_key in sorted(self._views):
            self._rehome(sql_key, now)
        # The new group gets its replicas, and — one more host in
        # service may have raised _strength() — so do the groups a
        # smaller fleet had capped below ``replicas`` (or they stay
        # queued), like the ones a rejoin finds short.
        self._repair_all(now)
        return new_id

    def _sliced(self, sql_keys: Sequence[str], host: int) -> List[str]:
        """The partitioned tables ``sql_keys`` read, if the ring changed
        while ``host`` was down: what its journaled store re-seeds when
        it rejoins. A lost group's stores are not there to re-slice
        (:meth:`_reslice`): a replay onto the journal's slice would keep
        rows that moved away and miss rows that moved in. On the ring
        it was cut under, the journal's slice takes the replay."""
        if self._hosts[host].ring == self.ring.version:
            return []
        return [
            name
            for name in self._group_tables(sql_keys)
            if self._decls[name].partition_key is not None
        ]

    def _reslice(self, now: Timestamp, skip: int) -> None:
        """The ring changed: every store outside group ``skip`` (the
        one joining or dissolving) converges onto its new slice of each
        partitioned table — rows whose owner moved are deleted from the
        old group and inserted on the new one by each store's local
        baseline diff. A lost group has no store to re-slice; it
        converges when it rejoins (:meth:`_sliced`)."""
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
        for sql_key in sorted(self._views):
            self._rehome(sql_key, now, dissolved=own)
        for host in replica_hosts:
            if not self._hosts[host].dead:
                self._drain_store(host, own, now)
        self.backend.stop(shard_id)
        # 3) Forget the host and its group.
        for host in list(self._groups[own].hosts):
            self._unplace(own, host)
        del self._groups[own], self._hosts[shard_id]
        self.health.forget(shard_id)
        for other in self._hosts.values():
            other.pinned.discard(own)
        self._drain_rereplication(now)

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
        views = self._views
        members = sum(len(view.members) for view in views.values())
        memberless = sorted(key for key, view in views.items() if not view.members)
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
                    key in view.members and views.get(view.sql_key) is view
                    for key, view in self._subs.items()
                ),
                "subscriptions and view member lists disagree",
            ),
            (not memberless, f"memberless sql_keys {memberless}"),
            (
                len(self.plans) == len(views) and all(k in self.plans for k in views),
                "cached plans and views disagree",
            ),
            (
                self._owners.keys() == views.keys() >= self._behind,
                "owners, views and keys behind disagree",
            ),
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
        # The result law, as at every tier: a key no lost group owns
        # holds Q(state at since).
        for sql_key, view in views.items():
            if not self._lost_owner(sql_key):
                view.check(self.db)

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
            "sql_keys": len(self._views),
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
        for (client_id, cq_name), view in sorted(self._subs.items()):
            out.append(
                {
                    "client": client_id,
                    "cq": cq_name,
                    "sql_key": view.sql_key,
                    "shards": sorted(self._owners[view.sql_key]),
                    "parallel": bool(self._partitioned(view.query)),
                    "last_ts": view.since,
                    "result_rows": len(view.result),
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
