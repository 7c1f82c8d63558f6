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
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import NetworkError, RegistrationError
from repro.metrics import Metrics
from repro.obs.stats import CQStats, TeeMetrics
from repro.obs.trace import Tracer
from repro.relational.algebra import SPJQuery
from repro.relational.relation import Relation
from repro.relational.sql import parse_query
from repro.storage.database import Database
from repro.storage.timestamps import Timestamp
from repro.delta.capture import deltas_since
from repro.delta.diff import diff
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


class Subscription:
    """One client's registration of one continual query."""

    __slots__ = (
        "client_id",
        "cq_name",
        "query",
        "sql_key",
        "protocol",
        "last_ts",
        "previous_result",
        "digest",
        "changed_ts",
        "pending_delta",
    )

    def __init__(
        self,
        client_id: str,
        cq_name: str,
        query: SPJQuery,
        protocol: Protocol,
        last_ts: Timestamp,
        previous_result: Relation,
    ):
        self.client_id = client_id
        self.cq_name = cq_name
        self.query = query
        # Canonical SQL, rendered once: the key under which this
        # subscription shares evaluation groups and prepared plans with
        # identical subscriptions from other clients.
        self.sql_key = query.to_sql()
        self.protocol = protocol
        self.last_ts = last_ts
        # Retained server-side copy of the last shipped result state
        # (Section 3.3: "the copy is maintained at the site where the
        # differential query refresh is carried out"). Replaced only
        # through retain(), with its running digest and the timestamp
        # of the change; a subscription recovered from the WAL starts
        # with neither (see stamp() and horizon()).
        self.previous_result = previous_result
        self.digest: Optional[str] = None
        self.changed_ts: Optional[Timestamp] = None
        # DRA_LAZY only: deltas accumulated since the client's last
        # fetch, composed so repeated changes to one tuple net out.
        self.pending_delta = None

    def retain(self, result: Relation, digest: str, ts: Timestamp) -> None:
        """Replace the retained copy: the result, its digest and the
        refresh timestamp at which it changed move together."""
        self.previous_result = result
        self.digest = digest
        self.changed_ts = ts

    def stamp(self) -> str:
        """The retained copy's digest, seeded in full on first use."""
        if self.digest is None:
            self.digest = relation_digest(self.previous_result)
        return self.digest

    def apply(self, delta, ts: Timestamp) -> None:
        """Fold the result delta of refresh ``ts`` into the retained
        copy and its running digest."""
        if not delta.is_empty():
            self.retain(
                *apply_delta(delta, self.previous_result, self.stamp()), ts
            )

    def horizon(self, applied: Timestamp) -> Timestamp:
        """Through when a client reporting ``applied`` is really current.

        Once it has applied the frame that last changed the retained
        copy — counted from when the frame is *built*, so one lost in
        flight keeps holding the boundary — and nothing is pending, its
        cache *is* that copy, Q(state at ``last_ts``). Without this a
        quiet subscription acks its registration timestamp forever and
        pins the update log (Section 5.4).
        """
        if (
            self.changed_ts is not None
            and applied >= self.changed_ts
            and not self.pending_delta
        ):
            return max(applied, self.last_ts)
        return applied


class SharedGroup:
    """All subscriptions sharing one canonical SQL text.

    The group owns the fan-out unit of work: one predicate-index entry
    (``sub_id`` = ``sql_key``), one maintained result, one DRA
    evaluation per refresh cycle. ``result`` is only ever *replaced*
    (``apply_delta`` returns a fresh relation), never mutated in
    place, so member subscriptions may alias it as their retained copy
    and lazily-degraded snapshots stay coherent.
    """

    __slots__ = ("sql_key", "query", "members", "result", "digest", "last_ts")

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
        #: Subscription keys ``(client_id, cq_name)`` in the group.
        self.members: Set[Tuple[str, str]] = set()
        self.last_ts = last_ts
        self.retain(result, digest)

    def retain(self, result: Relation, digest: str) -> None:
        """Replace the maintained result — Q(state at ``last_ts``) —
        together with its running digest, which members copy."""
        self.result = result
        self.digest = digest

    @property
    def tables(self) -> Tuple[str, ...]:
        return tuple(sorted(set(self.query.table_names)))


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
    evaluated once per cycle and whose delta is shipped to every member
    — server compute per cycle is independent of the subscriber count
    (experiment E3b).
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
        cq_name = getattr(message, "cq_name", None)
        if cq_name is not None and self._scoped_metrics is None:
            # Outside a scoped refresh (fetch / resync / replay) the
            # per-CQ byte attribution is charged here directly.
            self.stats.record(
                cq_name,
                {Metrics.BYTES_SENT: size, Metrics.MESSAGES_SENT: 1},
            )
        return True

    # -- GC zones ----------------------------------------------------------

    @staticmethod
    def _zone(client_id: str, cq_name: str) -> str:
        return f"{client_id}:{cq_name}"

    def _note_refresh(self, subscription: Subscription, delivered: bool) -> None:
        """Advance the subscription's zone after a refresh.

        Session endpoints (real sockets) set ``defer_zone_advance``:
        their boundary only moves when the client *acknowledges* having
        applied a refresh, so the replay window survives in-flight
        loss. In-process clients apply synchronously, so a successful
        delivery (or an empty window) advances immediately.
        """
        client = self._clients.get(subscription.client_id)
        if client is not None and getattr(client, "defer_zone_advance", False):
            return
        if delivered:
            self.zones.try_advance(
                self._zone(subscription.client_id, subscription.cq_name),
                subscription.last_ts,
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
        key = (client_id, message.cq_name)
        if key in self._subscriptions:
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
        if protocol in (Protocol.DRA_DELTA, Protocol.DRA_LAZY):
            # Compile before E_0: auto-created join indexes serve the
            # initial evaluation and every later differential refresh.
            self.plans.get(query.to_sql(), query)
        now = self.db.now()
        group = None
        if self.fanout_index is not None:
            group = self._join_group(query, now)
            result, digest = group.result, group.digest
        else:
            result = self.db.query(query, self.metrics)
            digest = relation_digest(result)
        subscription = Subscription(
            client_id, message.cq_name, query, protocol, now, result
        )
        subscription.retain(result, digest, now)
        self._subscriptions[key] = subscription
        self._holders[message.cq_name] += 1
        if group is not None:
            group.members.add(key)
        self.zones.register(
            self._zone(client_id, message.cq_name),
            tuple(query.table_names),
            now,
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
            InitialResultMessage(message.cq_name, result, now, digest),
        )
        return subscription

    def deregister(self, client_id: str, cq_name: str) -> None:
        """Drop a subscription, its GC-protected zone, and its shared
        ``sql_key`` group membership — the last member leaving also
        drops the group and its predicate-index entry, so no later
        batch is ever routed (or fanned out) to a dead subscriber."""
        subscription = self._subscriptions.pop((client_id, cq_name), None)
        if subscription is None:
            raise RegistrationError(
                f"no subscription {cq_name!r} for client {client_id!r}"
            )
        self.zones.remove(self._zone(client_id, cq_name))
        self._leave_group(subscription, (client_id, cq_name))
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

    # -- shared materialization groups -------------------------------------

    def _join_group(self, query: SPJQuery, now: Timestamp) -> SharedGroup:
        """The shared group for one query, its result current at ``now``.

        The first subscription of a template pays the full E_0 and
        installs the group's predicate-index entry; every later one
        reuses the maintained group result — advanced differentially to
        ``now`` first — instead of re-running the query.
        """
        sql_key = query.to_sql()
        group = self._groups.get(sql_key)
        if group is None:
            result = self.db.query(query, self.metrics)
            group = SharedGroup(
                sql_key, query, result, relation_digest(result), now
            )
            self._groups[sql_key] = group
            scopes = {
                ref.alias: self.db.table(ref.table).schema
                for ref in query.relations
            }
            self.fanout_index.add(sql_key, query, scopes)
            self.metrics.count(Metrics.SHARED_GROUPS)
        else:
            self._advance_group(group, now)
            self.metrics.count(Metrics.SHARED_GROUP_HITS)
        return group

    def _leave_group(
        self, subscription: Subscription, key: Tuple[str, str]
    ) -> None:
        if self.fanout_index is None:
            return
        group = self._groups.get(subscription.sql_key)
        if group is None:
            return
        group.members.discard(key)
        if not group.members:
            del self._groups[subscription.sql_key]
            self.fanout_index.remove(subscription.sql_key)

    def rebuild_groups(self) -> int:
        """Re-seed shared groups and the fan-out index after recovery.

        WAL replay rebuilds subscriptions but not the per-name holder
        counts, the in-memory shared materialization groups or their
        predicate-index entries (all derived state). Re-derive them:
        one group per distinct DRA ``sql_key``, its result evaluated
        fresh at ``now`` — exactly the state a clean registration
        sequence would have produced.
        Returns the number of groups created."""
        self._holders = Counter(name for __, name in self._subscriptions)
        if self.fanout_index is None:
            return 0
        created = 0
        now = self.db.now()
        for key, subscription in sorted(self._subscriptions.items()):
            if subscription.protocol not in (
                Protocol.DRA_DELTA,
                Protocol.DRA_LAZY,
            ):
                continue
            group = self._groups.get(subscription.sql_key)
            if group is None:
                before = len(self._groups)
                group = self._join_group(subscription.query, now)
                created += len(self._groups) - before
            group.members.add(key)
        return created

    def _advance_group(self, group: SharedGroup, now: Timestamp) -> None:
        """Bring ``group.result`` forward to Q(state at ``now``)."""
        if group.last_ts >= now:
            return
        deltas = deltas_since(
            [self.db.table(name) for name in group.tables], group.last_ts
        )
        if deltas:
            result = self._evaluate(
                group.query, group.sql_key, deltas, now, group.result
            )
            if result.has_changes():
                group.retain(
                    *apply_delta(result.delta, group.result, group.digest)
                )
        group.last_ts = now

    # -- refresh ------------------------------------------------------------------

    def refresh_all(self) -> int:
        """Recompute and ship every subscription; returns message count."""
        now = self.db.now()
        cache = DeltaBatchCache(self.db, self.metrics, self.tracer)
        sent, handled = self._refresh_groups(cache, now)
        # Everyone else — REEVAL baselines, diverged windows, every
        # subscription of a server without fan-out — refreshes alone.
        for key, subscription in list(self._subscriptions.items()):
            if key not in handled:
                sent += self._refresh_scoped(subscription, cache)
        return sent

    def _refresh_groups(
        self, cache: DeltaBatchCache, now: Timestamp
    ) -> Tuple[int, Set[Tuple[str, str]]]:
        """One predicate-index pass decides which ``sql_key`` groups see
        relevant entries this cycle; unaffected groups advance without
        evaluating anything (the Section 5.2 relevance theorem makes
        their result deltas provably empty), affected groups evaluate
        once and fan the delta out to every member. Members whose
        window diverged from the group's (a reconnect replay realigned
        them mid-cycle) are left to the per-subscription path and
        rejoin the group next cycle. Detached members are skipped, not
        raised on — their zones hold the replay window for reconnect.

        Returns the messages sent and the subscriptions refreshed here
        (none on a server without fan-out: it has no groups).
        """
        sent = 0
        routes: Dict[Tuple[Tuple[str, ...], Timestamp], Set[str]] = {}
        handled: Set[Tuple[str, str]] = set()
        for sql_key in list(self._groups):
            group = self._groups[sql_key]
            since = group.last_ts
            tables = group.tables
            sharable = [
                s
                for s in map(self._subscriptions.get, sorted(group.members))
                if s is not None
                and s.protocol in (Protocol.DRA_DELTA, Protocol.DRA_LAZY)
                and s.last_ts == since
            ]
            routed = routes.get((tables, since))
            if routed is None:
                routed = self.fanout_index.match_batch(
                    cache.deltas(tables, since, now)
                )
                routes[(tables, since)] = routed
            group.last_ts = now
            if sql_key not in routed:
                for s in sharable:
                    s.last_ts = now
                    self._note_refresh(s, True)
                    handled.add((s.client_id, s.cq_name))
                continue
            result = self._evaluate(
                group.query,
                sql_key,
                cache.deltas(tables, since, now),
                now,
                group.result,
            )
            if result.has_changes():
                applied = apply_delta(result.delta, group.result, group.digest)
                group.retain(*self._audited(group.query, *applied))
            if len(sharable) > 1:
                self.metrics.count(
                    Metrics.SHARED_GROUP_HITS, len(sharable) - 1
                )
            # The group's delta, encoded once for all attached members.
            body = None
            for s in sharable:
                handled.add((s.client_id, s.cq_name))
                s.last_ts = now
                if s.protocol is Protocol.DRA_LAZY:
                    sent += self._announce_lazy(s, result.delta, now)
                elif result.delta.is_empty():
                    self._note_refresh(s, True)
                else:
                    s.retain(group.result, group.digest, now)
                    if s.client_id in self._clients:
                        if body is None:
                            body = encode_delta_body(result.delta)
                        sent += self._ship(s, result.delta, now, body)
        return sent, handled

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
    ):
        """The one evaluate step: every differential evaluation this
        server runs — group refresh and catch-up, private refresh,
        reconnect replay — so all of them charge the scoped metrics,
        share the prepared plan cached under ``sql_key``, emit
        ``dra.term`` spans and honour ``columnar``."""
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
        )

    def _ship(
        self,
        subscription: Subscription,
        delta,
        ts: Timestamp,
        body: Optional[str] = None,
    ) -> bool:
        """The one ship step for result deltas. ``delta`` is already
        applied to ``subscription.previous_result``; the message carries
        that retained copy's running digest so the client can verify
        its own copy after applying, and a delivery that arrives
        advances the subscription's replay zone. ``body`` is ``delta``
        pre-encoded (a group shipping to many members). Returns False
        when the network lost the message."""
        delivered = self._deliver(
            subscription.client_id,
            DeltaMessage(
                subscription.cq_name, delta, ts, subscription.stamp(), body
            ),
        )
        self._note_refresh(subscription, delivered)
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
        pending = subscription.pending_delta
        if pending is None or pending.is_empty():
            return False
        subscription.pending_delta = None
        subscription.apply(pending, subscription.last_ts)
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
        return self._deliver(
            client_id,
            FullResultMessage(
                subscription.cq_name,
                subscription.previous_result,
                subscription.last_ts,
                subscription.stamp(),
            ),
        )

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
        tables = [
            self.db.table(name) for name in set(subscription.query.table_names)
        ]
        window_intact = all(
            table.log.pruned_through <= since_ts for table in tables
        )
        if subscription.protocol is Protocol.REEVAL_FULL or not window_intact:
            result = self.db.query(subscription.query, self.metrics)
            subscription.retain(result, relation_digest(result), now)
            subscription.pending_delta = None
            subscription.last_ts = now
            if subscription.protocol is not Protocol.REEVAL_FULL:
                self.metrics.count(Metrics.REPLAY_FALLBACKS)
            self.zones.register(
                self._zone(client_id, cq_name),
                tuple(subscription.query.table_names),
                since_ts,
            )
            self._deliver(
                client_id,
                FullResultMessage(cq_name, result, now, subscription.digest),
            )
            return False
        # Realign the server's retained copy to state(now) over its own
        # (narrower) window first: previous_result is at last_ts, with
        # any un-fetched lazy delta still pending on top of it.
        if subscription.pending_delta is not None:
            subscription.apply(subscription.pending_delta, now)
            subscription.pending_delta = None
        query, sql_key = subscription.query, subscription.sql_key
        own_window = deltas_since(tables, subscription.last_ts)
        if own_window:
            realigned = self._evaluate(
                query, sql_key, own_window, now, subscription.previous_result
            )
            subscription.apply(realigned.delta, now)
        subscription.last_ts = now
        # The client's replay: one consolidated delta over its whole
        # missed window, applicable directly to its cached copy.
        replayed = self._evaluate(
            query, sql_key, deltas_since(tables, since_ts), now
        )
        self.metrics.count(Metrics.REPLAYS)
        self.zones.register(
            self._zone(client_id, cq_name),
            tuple(subscription.query.table_names),
            since_ts,
        )
        if not replayed.delta.is_empty():
            # The post-apply state of the *client's* copy is the same
            # realigned current result the server now retains.
            self._ship(subscription, replayed.delta, now)
        return True

    def _refresh_one(
        self, subscription: Subscription, cache: DeltaBatchCache
    ) -> bool:
        now = self.db.now()
        query = subscription.query
        if subscription.protocol in (Protocol.DRA_DELTA, Protocol.DRA_LAZY):
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
                self._note_refresh(subscription, True)
                return False
            applied = apply_delta(
                result.delta, subscription.previous_result, subscription.stamp()
            )
            subscription.retain(*self._audited(query, *applied), now)
            return self._ship(subscription, result.delta, now)

        new_result = self.db.query(query, self._metrics())
        if subscription.protocol is Protocol.REEVAL_DELTA:
            delta = diff(subscription.previous_result, new_result, now)
            subscription.last_ts = now
            if delta.is_empty():
                self._note_refresh(subscription, True)
                return False
            subscription.apply(delta, now)
            return self._ship(subscription, delta, now)

        # REEVAL_FULL ships unconditionally: without a retained diff
        # there is no way to know nothing changed.
        subscription.last_ts = now
        subscription.retain(new_result, relation_digest(new_result), now)
        delivered = self._deliver(
            subscription.client_id,
            FullResultMessage(
                subscription.cq_name, new_result, now, subscription.digest
            ),
        )
        self._note_refresh(subscription, delivered)
        return delivered

    # -- introspection -----------------------------------------------------

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
                        len(self._groups[sub.sql_key].members)
                        if self.fanout_index is not None
                        and sub.sql_key in self._groups
                        else None
                    ),
                }
            )
        return out

    def status_report(self) -> str:
        """Subscriptions plus connection counters as a text report."""
        from repro.bench.harness import format_table

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
