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
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import NetworkError, RegistrationError
from repro.metrics import Metrics
from repro.obs.stats import CQStats, TeeMetrics
from repro.obs.table import format_table
from repro.obs.trace import Tracer
from repro.relational.algebra import SPJQuery
from repro.relational.relation import Relation
from repro.relational.sql import parse_query
from repro.storage.database import Database
from repro.storage.timestamps import Timestamp
from repro.delta.capture import deltas_since
from repro.delta.diff import diff
from repro.delta.propagate import evaluate_as_of
from repro.dra.algorithm import dra_execute
from repro.dra.predindex import PredicateIndex
from repro.dra.prepared import PlanCache
from repro.core.gc import ActiveDeltaZones
from repro.core.scheduler import DeltaBatchCache
from repro.net.codec import encode_delta_body
from repro.net.digest import apply_delta, relation_digest
from repro.net.messages import (
    DeltaAvailableMessage,
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


#: Refreshed differentially: members of a :class:`SharedGroup` when
#: the server has a fan-out index.
_DRA = (Protocol.DRA_DELTA, Protocol.DRA_LAZY)


class Subscription:
    """One client's registration of one continual query, built by
    :meth:`CQServer._install` only. A group member has no window of its
    own: ``last_ts`` is its group's."""

    __slots__ = (
        "client_id",
        "cq_name",
        "query",
        "sql_key",
        "protocol",
        "group",
        "last_ts",
        "previous_result",
        "digest",
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
        group: Optional["SharedGroup"],
        last_ts: Timestamp,
        previous_result: Relation,
        digest: str,
        arrived_ts: Timestamp,
    ):
        self.client_id = client_id
        self.cq_name = cq_name
        self.query = query
        # Canonical SQL, rendered once: the key under which this
        # subscription shares evaluation groups and prepared plans with
        # identical subscriptions from other clients.
        self.sql_key = query.to_sql()
        self.protocol = protocol
        self.group = group
        self.last_ts = last_ts
        # Retained server-side copy of the last shipped result state
        # (Section 3.3: "the copy is maintained at the site where the
        # differential query refresh is carried out"). Replaced only
        # through retain(), with its running digest and the timestamp
        # of the change (see horizon()).
        self.retain(previous_result, digest, last_ts)
        #: Timestamp of the last frame that reached the client's
        #: endpoint: what an in-process client has applied.
        self.arrived_ts = arrived_ts
        # DRA_LAZY only: deltas accumulated since the client's last
        # fetch, composed so repeated changes to one tuple net out.
        self.pending_delta = None

    def retain(self, result: Relation, digest: str, ts: Timestamp) -> None:
        """Replace the retained copy: the result, its digest and the
        refresh timestamp at which it changed move together."""
        self.previous_result = result
        self.digest = digest
        self.changed_ts = ts

    def apply(self, delta, ts: Timestamp) -> None:
        """Fold the result delta of refresh ``ts`` into the retained
        copy and its running digest."""
        if not delta.is_empty():
            self.retain(
                *apply_delta(delta, self.previous_result, self.digest), ts
            )

    def fold(self):
        """Fold the un-fetched DRA_LAZY accumulation into the retained
        copy and return it (None: nothing was pending). A group
        member's copy ∘ pending *is* the group's result, so it is
        aliased, not recomputed."""
        pending, self.pending_delta = self.pending_delta, None
        ts = self.changed_ts if pending is None else self.last_ts
        if self.group is not None:
            self.retain(self.group.result, self.group.digest, ts)
        elif pending is not None:
            self.apply(pending, ts)
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


class SharedGroup:
    """All DRA subscriptions sharing one canonical SQL text.

    The group owns the fan-out unit of work: one predicate-index entry
    (``sub_id`` = ``sql_key``), one maintained result, one refresh
    window ``(last_ts, now]`` and one DRA evaluation per cycle.
    ``result`` is only ever *replaced* (``apply_delta`` returns a fresh
    relation), never mutated in place, so member subscriptions alias it
    as their retained copy and lazily-degraded snapshots stay coherent.
    """

    __slots__ = ("sql_key", "query", "tables", "members", "result", "digest", "last_ts")

    def __init__(
        self,
        sql_key: str,
        query: SPJQuery,
        result: Relation,
        digest: str,
        last_ts: Timestamp,
    ):
        self.sql_key = sql_key
        self.query = query
        self.tables: Tuple[str, ...] = tuple(sorted(set(query.table_names)))
        #: Members by ``(client_id, cq_name)``, in joining order.
        self.members: Dict[Tuple[str, str], Subscription] = {}
        self.last_ts = last_ts
        self.retain(result, digest)

    def retain(self, result: Relation, digest: str) -> None:
        """Replace the maintained result — Q(state at ``last_ts``) —
        together with its running digest, which members copy."""
        self.result = result
        self.digest = digest


class CQServer:
    """Hosts the database and serves continual-query subscriptions.

    A refresh cycle has one shape whatever the protocol mix: every
    subscription's window is consolidated through one per-cycle
    :class:`~repro.core.scheduler.DeltaBatchCache` (subscriptions with
    *different* queries still share one update-log pass per (table,
    window) — observable as ``delta_batches_reused``), every
    differential evaluation runs through :meth:`_evaluate`, and every
    result delta leaves through :meth:`_ship`.

    With ``fanout`` (the Section 5.2 "extracting common subexpressions"
    refinement applied at subscription granularity), DRA subscriptions
    with the same query text form a :class:`SharedGroup` that is
    evaluated once per cycle and whose delta is shipped once to each
    client holding members, in one frame addressing all of them
    — server compute per cycle is independent of the subscriber count
    (experiment E3b). A group's window moves in :meth:`_refresh_group`
    only; a member never has its own.
    """

    def __init__(
        self,
        db: Database,
        network: SimulatedNetwork,
        name: str = "server",
        metrics: Optional[Metrics] = None,
        audit_interval: int = 0,
        tracer: Optional[Tracer] = None,
        fanout: bool = False,
        columnar: bool = False,
    ):
        self.db = db
        self.network = network
        #: Columnar term evaluation (DESIGN.md §11): refreshes run the
        #: struct-of-arrays kernel pipelines instead of the per-row
        #: interpreter; deltas shipped to clients are identical.
        self.columnar = columnar
        self.name = name
        self.metrics = metrics if metrics is not None else Metrics()
        #: Observability (DESIGN.md §9): spans around each
        #: subscription's refresh and each wire delivery, plus per-CQ
        #: cumulative cost attribution in ``stats``.
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        self.stats = CQStats()
        # Installed around one subscription's refresh: a scoped
        # TeeMetrics that also charges self.metrics, feeding stats.
        self._scoped_metrics: Optional[TeeMetrics] = None
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
        #: Those in no group (REEVAL_* baselines; all of a server
        #: without a fan-out index), refreshed one by one.
        self._solo: Dict[Tuple[str, str], Subscription] = {}
        # Subscriptions per CQ name, the key ``stats`` attributes cost
        # under: the last holder to leave takes the name's stats along.
        self._holders: Counter = Counter()
        #: Predicate-index fan-out (DESIGN.md §10): subscriptions group
        #: by ``sql_key``; one index entry per group routes each cycle's
        #: consolidated batch to the affected groups, each of which
        #: evaluates once and ships the delta to every member — server
        #: compute per cycle scales with affected *templates*, not
        #: subscribers. Detached members are skipped (their zones keep
        #: the replay window); deregistering the last member drops the
        #: group and its index entry.
        self.fanout_index: Optional[PredicateIndex] = (
            PredicateIndex(self.metrics) if fanout else None
        )
        self._groups: Dict[str, SharedGroup] = {}

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
            # Outside a scoped refresh (group frames, fetch, resync,
            # replay) the per-CQ byte attribution is charged here: a
            # shared frame's bytes are split so the per-CQ sums equal
            # what crossed the wire, and each CQ got one delivery.
            names = getattr(message, "cq_names", None) or (message.cq_name,)
            share, extra = divmod(size, len(names))
            for i, cq_name in enumerate(names):
                self.stats.record(
                    cq_name,
                    {
                        Metrics.BYTES_SENT: share + (i < extra),
                        Metrics.MESSAGES_SENT: 1,
                    },
                )
        return True

    # -- GC zones ----------------------------------------------------------

    @staticmethod
    def _zone(client_id: str, cq_name: str) -> str:
        return f"{client_id}:{cq_name}"

    def _note_refresh(
        self, subscription: Subscription, arrived: Optional[Timestamp] = None
    ) -> None:
        """Advance the subscription's zone after a refresh; ``arrived``
        is the timestamp of a frame that just reached the client (None:
        a quiet refresh, or the frame was lost).

        Session endpoints (real sockets) set ``defer_zone_advance``:
        their boundary only moves when the client *acknowledges* having
        applied a refresh, so the replay window survives in-flight
        loss. In-process clients apply synchronously, so they are
        current through the horizon of the last frame that arrived.
        """
        if arrived is not None:
            subscription.arrived_ts = arrived
        client = self._clients.get(subscription.client_id)
        if client is not None and getattr(client, "defer_zone_advance", False):
            return
        self.zones.try_advance(
            self._zone(subscription.client_id, subscription.cq_name),
            subscription.horizon(subscription.arrived_ts),
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
        defaults to DRA_DELTA.
        """
        if (client_id, message.cq_name) in self._subscriptions:
            raise RegistrationError(
                f"client {client_id!r} already registered {message.cq_name!r}"
            )
        if protocol is None:
            protocol = (
                Protocol(message.protocol)
                if message.protocol
                else Protocol.DRA_DELTA
            )
        query = parse_query(message.sql)
        if not isinstance(query, SPJQuery):
            raise RegistrationError(
                "the client-server protocol serves SPJ queries; aggregate "
                "CQs are managed by CQManager"
            )
        now = self.db.now()
        subscription = self._install(
            client_id, message.cq_name, query, protocol, now
        )
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
                message.cq_name, subscription.previous_result, now, subscription.digest
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
        group's window and result, anyone else the result as of
        ``last_ts``."""
        key = (client_id, cq_name)
        sql_key = query.to_sql()
        group = None
        if protocol in _DRA:
            # Compile before E_0: auto-created join indexes serve the
            # initial evaluation and every later differential refresh.
            self.plans.get(sql_key, query)
            group = self._groups.get(sql_key)
        if group is not None:
            # A join that finds the window behind it moves it the way
            # every cycle does: the members there get that delta now.
            if group.last_ts < last_ts:
                cache = DeltaBatchCache(self.db, self.metrics, self.tracer)
                self._refresh_group(group, cache, self.db.now())
            self.metrics.count(Metrics.SHARED_GROUP_HITS)
            window, result, digest = group.last_ts, group.result, group.digest
        else:
            # Q(state at last_ts) — or, when the logs no longer reach
            # back (baseline-flattened history), as of now.
            window = last_ts
            try:
                result = evaluate_as_of(query, self.db, window, self.metrics)
            except ValueError:
                window = self.db.now()
                result = evaluate_as_of(query, self.db, window, self.metrics)
            digest = relation_digest(result)
            if protocol in _DRA and self.fanout_index is not None:
                # The first subscription of a template pays that E_0
                # for its group, and installs the index entry.
                group = self._groups[sql_key] = SharedGroup(
                    sql_key, query, result, digest, window
                )
                scopes = {
                    ref.alias: self.db.table(ref.table).schema
                    for ref in query.relations
                }
                self.fanout_index.add(sql_key, query, scopes)
                self.metrics.count(Metrics.SHARED_GROUPS)
        subscription = Subscription(
            *key, query, protocol, group, window, result, digest, last_ts
        )
        (self._solo if group is None else group.members)[key] = subscription
        self._subscriptions[key] = subscription
        self._holders[cq_name] += 1
        self.zones.register(self._zone(*key), tuple(query.table_names), last_ts)
        return subscription

    def deregister(self, client_id: str, cq_name: str) -> None:
        """Drop a subscription, its GC-protected zone, and its shared
        ``sql_key`` group membership — the last member leaving also
        drops the group and its predicate-index entry, so no later
        batch is ever routed (or fanned out) to a dead subscriber."""
        key = (client_id, cq_name)
        subscription = self._subscriptions.pop(key, None)
        if subscription is None:
            raise RegistrationError(
                f"no subscription {cq_name!r} for client {client_id!r}"
            )
        self.zones.remove(self._zone(client_id, cq_name))
        group = subscription.group
        if group is None:
            del self._solo[key]
        else:
            del group.members[key]
            if not group.members:
                del self._groups[group.sql_key]
                self.fanout_index.remove(group.sql_key)
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
        addresses).

        One predicate-index pass per (footprint, window) decides which
        ``sql_key`` groups see relevant entries this cycle. Everyone in
        no group — REEVAL baselines, every subscription of a server
        without fan-out — refreshes alone."""
        now = self.db.now()
        cache = DeltaBatchCache(self.db, self.metrics, self.tracer)
        sent = 0
        for group in list(self._groups.values()):
            sent += self._refresh_group(group, cache, now)
        for subscription in list(self._solo.values()):
            sent += self._refresh_scoped(subscription, cache)
        return sent

    def _refresh_group(
        self,
        group: SharedGroup,
        cache: DeltaBatchCache,
        now: Timestamp,
        skip: Optional[Subscription] = None,
    ) -> int:
        """Move one group's window to ``now`` — the only place it moves
        — and every member's with it: each cycle, before a join that
        finds it open, and around a replay (whose member is ``skip``:
        :meth:`replay` aligns it and ships its own window).

        An unrouted group advances without evaluating anything (the
        Section 5.2 relevance theorem makes its result delta provably
        empty); a routed one evaluates once and fans the delta out: one
        frame per attached client, addressing all of its DRA_DELTA
        members, whose retained copies are now the one group result.
        Lazy members are announced one by one. Detached members are
        skipped, not raised on — their zones hold the replay window for
        reconnect. Returns the subscriptions reached."""
        since = group.last_ts
        deltas, routed = cache.routed(self.fanout_index, group.tables, since, now)
        group.last_ts = now
        members = [s for s in group.members.values() if s is not skip]
        delta = None
        seeds = routed.get(group.sql_key)
        if seeds is not None:
            result = self._evaluate(
                group.query,
                group.sql_key,
                deltas,
                now,
                group.result,
                seeds,
            )
            if result.has_changes():
                applied = apply_delta(result.delta, group.result, group.digest)
                group.retain(*self._audited(group.query, *applied))
                delta = result.delta
            if len(members) > 1:
                self.metrics.count(
                    Metrics.SHARED_GROUP_HITS, len(members) - 1
                )
        sent = 0
        by_client: Dict[str, List[Subscription]] = {}
        for s in members:
            s.last_ts = now
            if delta is None:
                self._note_refresh(s)
            elif s.protocol is Protocol.DRA_LAZY:
                sent += self._announce_lazy(s, delta, now)
            else:
                s.retain(group.result, group.digest, now)
                if s.client_id in self._clients:
                    by_client.setdefault(s.client_id, []).append(s)
        if by_client:
            # The group's delta, encoded once for all its frames.
            body = encode_delta_body(delta)
            for bucket in by_client.values():
                if self._ship(bucket, delta, now, body):
                    sent += len(bucket)
        return sent

    def _refresh_scoped(
        self, subscription: Subscription, cache: DeltaBatchCache
    ) -> bool:
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
                delivered = self._refresh_one(subscription, cache)
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

    def _evaluate(
        self,
        query: SPJQuery,
        sql_key: str,
        deltas,
        now: Timestamp,
        previous: Optional[Relation] = None,
        seeds=None,
    ):
        """The one evaluate step: every differential evaluation this
        server runs — group refresh, private refresh, reconnect
        replay — so all of them charge the scoped metrics,
        share the prepared plan cached under ``sql_key``, emit
        ``dra.term`` spans and honour ``columnar``. ``seeds`` is the
        group's routed entry for exactly these ``deltas`` (the sides
        the index already selected); the unrouted callers filter."""
        return dra_execute(
            query,
            self.db,
            deltas=deltas,
            previous=previous,
            ts=now,
            metrics=self._metrics(),
            prepared=self.plans.get(sql_key, query),
            tracer=self.tracer,
            columnar=self.columnar,
            seeds=seeds,
        )

    def _ship(
        self,
        members: Sequence[Subscription],
        delta,
        ts: Timestamp,
        body: Optional[str] = None,
    ) -> bool:
        """The one ship step for result frames: ``delta``, already
        applied to the members' one retained copy, or (``delta`` None)
        a single subscription's copy whole. ``members`` share a client
        and that copy (one group's DRA_DELTA members), so one frame
        addresses them all. It carries the copy's running digest so the
        client can verify each of its own after applying — the frame
        built here, at ``ts``, is the one it has to apply to hold that
        copy — and its arrival, or its loss, is noted for every member
        it addressed. ``body`` is ``delta`` pre-encoded (a group
        shipping several frames). Returns False when the network lost
        the message."""
        first = members[0]
        for s in members:
            s.changed_ts = ts
        if delta is None:
            message = FullResultMessage(
                first.cq_name, first.previous_result, ts, first.digest
            )
        else:
            names = [s.cq_name for s in members]
            message = DeltaMessage(names, delta, ts, first.digest, body)
        delivered = self._deliver(first.client_id, message)
        for s in members:
            self._note_refresh(s, ts if delivered else None)
        return delivered

    def _announce_lazy(
        self, subscription: Subscription, delta, now: Timestamp
    ) -> bool:
        """DRA_LAZY delivery: compose ``delta`` onto what the client
        has not fetched yet (repeated changes to one tuple net out) and
        announce the accumulation's size; the content ships on fetch.
        A detached client's accumulation grows unannounced."""
        if delta.is_empty():
            return False
        pending = subscription.pending_delta
        pending = delta if pending is None else pending.compose(delta)
        if pending.is_empty():
            subscription.pending_delta = None
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
        return self._ship([subscription], pending, subscription.last_ts)

    def handle_resync(self, client_id: str, message: ResyncMessage) -> bool:
        """Re-ship the retained result copy to a client whose cache is
        unusable (e.g. a delta raced a client restart). No recompute:
        the server's Section 3.3 copy is exactly the last shipped
        state."""
        subscription = self._subscriptions.get((client_id, message.cq_name))
        if subscription is None:
            return False
        self.metrics.count(Metrics.RESYNCS)
        return self._ship([subscription], None, subscription.last_ts)

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
        # delta folded in: a member by aligning it to its group, whose
        # window moves for everyone else as in any cycle.
        group = subscription.group
        if group is not None:
            cache = DeltaBatchCache(self.db, self.metrics, self.tracer)
            self._refresh_group(group, cache, now, skip=subscription)
            subscription.fold()
        elif differential:
            subscription.fold()
            own_window = deltas_since(tables, subscription.last_ts)
            realigned = self._evaluate(
                query, sql_key, own_window, now, subscription.previous_result
            )
            subscription.apply(realigned.delta, now)
        else:
            result = self.db.query(query, self.metrics)
            subscription.retain(result, relation_digest(result), now)
            subscription.pending_delta = None
        subscription.last_ts = now
        self.zones.register(
            self._zone(client_id, cq_name), tuple(query.table_names), since_ts
        )
        if not differential:
            if subscription.protocol is not Protocol.REEVAL_FULL:
                self.metrics.count(Metrics.REPLAY_FALLBACKS)
            self._ship([subscription], None, now)
            return False
        # The client's replay: one consolidated delta over its whole
        # missed window, applicable directly to its cached copy, whose
        # post-apply state is the current result the server now retains.
        replayed = self._evaluate(
            query, sql_key, deltas_since(tables, since_ts), now
        )
        self.metrics.count(Metrics.REPLAYS)
        if not replayed.delta.is_empty():
            self._ship([subscription], replayed.delta, now)
        return True

    def _refresh_one(
        self, subscription: Subscription, cache: DeltaBatchCache
    ) -> bool:
        """Refresh one subscription in no group over its own window
        (the DRA branch: the index-less E3b/E11 ablation arm only)."""
        now = self.db.now()
        query = subscription.query
        if subscription.protocol in _DRA:
            # A lazy subscription's retained copy trails its pending
            # accumulation, so it cannot serve as the evaluation's base.
            lazy = subscription.protocol is Protocol.DRA_LAZY
            result = self._evaluate(
                query,
                subscription.sql_key,
                cache.deltas(set(query.table_names), subscription.last_ts, now),
                now,
                None if lazy else subscription.previous_result,
            )
            subscription.last_ts = now
            if lazy:
                return self._announce_lazy(subscription, result.delta, now)
            if not result.has_changes():
                self._note_refresh(subscription)
                return False
            applied = apply_delta(
                result.delta, subscription.previous_result, subscription.digest
            )
            subscription.retain(*self._audited(query, *applied), now)
            return self._ship([subscription], result.delta, now)

        new_result = self.db.query(query, self._metrics())
        subscription.last_ts = now
        if subscription.protocol is Protocol.REEVAL_DELTA:
            delta = diff(subscription.previous_result, new_result, now)
            if delta.is_empty():
                self._note_refresh(subscription)
                return False
            subscription.apply(delta, now)
            return self._ship([subscription], delta, now)

        # REEVAL_FULL ships unconditionally: without a retained diff
        # there is no way to know nothing changed.
        subscription.retain(new_result, relation_digest(new_result), now)
        return self._ship([subscription], None, subscription.last_ts)

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

        index = self.fanout_index if self.fanout_index is not None else ()
        law(len(index) == len(self._groups), "index entries != groups")
        placed = dict(self._solo)
        for sql_key, group in self._groups.items():
            placed.update(group.members)
            law(sql_key == group.sql_key in index, f"{sql_key!r}: not indexed")
            law(bool(group.members), f"{sql_key!r}: memberless group")
            law(
                all(s.group is group for s in group.members.values()),
                f"{sql_key!r}: holds another group's member",
            )
            law(
                group.digest == digest_in_full(group.result),
                f"{sql_key!r}: digest does not describe the group's result",
            )
        law(placed == self._subscriptions, "subscriptions != solo + members")
        names = Counter(name for __, name in placed)
        law(self._holders == names, f"_holders {self._holders} != {names}")
        for key, s in placed.items():
            group = self._groups.get(s.sql_key) if s.protocol in _DRA else None
            law(
                s.group is group and (key in self._solo) is (group is None),
                f"{key}: not in exactly its sql_key's group",
            )
            law(
                s.digest == digest_in_full(s.previous_result),
                f"{key}: digest does not describe the retained copy",
            )
            if group is None:
                continue
            held = s.previous_result
            if s.pending_delta is not None:
                held = s.pending_delta.apply_to(held)
            elif s.protocol is Protocol.DRA_DELTA:
                law(held is group.result, f"{key}: a private copy")
            law(
                (s.last_ts, held) == (group.last_ts, group.result),
                f"{key}: window or copy ∘ pending differs from its group's",
            )

    def describe(self) -> List[Dict[str, object]]:
        """One status record per subscription (for ops tooling)."""
        out = []
        for (client_id, cq_name), sub in self._subscriptions.items():
            pending = sub.pending_delta
            cost = self.stats.counters(cq_name)
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
                    "rows_scanned": cost.get(Metrics.ROWS_SCANNED, 0),
                    "delta_rows_read": cost.get(Metrics.DELTA_ROWS_READ, 0),
                    "bytes_sent": cost.get(Metrics.BYTES_SENT, 0),
                    # Columnar kernel attribution (DESIGN.md §11).
                    "kernel_calls": cost.get(Metrics.KERNEL_CALLS, 0),
                    "rows_per_kernel_call": (
                        round(
                            cost.get(Metrics.KERNEL_ROWS, 0)
                            / cost[Metrics.KERNEL_CALLS],
                            3,
                        )
                        if cost.get(Metrics.KERNEL_CALLS)
                        else 0
                    ),
                    # Fan-out group membership (DESIGN.md §10); the
                    # global routing counters live in the metrics bag.
                    "sql_group_size": (
                        None if sub.group is None else len(sub.group.members)
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
        calls = m.get(Metrics.KERNEL_CALLS)
        if calls:
            report += (
                f"\nkernels: calls={calls} "
                f"rows={m.get(Metrics.KERNEL_ROWS)} "
                f"rows_per_call={m.get(Metrics.KERNEL_ROWS) / calls:.1f}"
            )
        if self.fanout_index is not None:
            info = self.fanout_index.describe()
            report += (
                f"\nfanout: groups={len(self._groups)} "
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
