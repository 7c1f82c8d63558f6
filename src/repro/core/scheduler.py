"""Shared-delta refresh scheduling (paper Sections 5.2–5.4 at scale).

The naive poll loop asks every registered CQ to consolidate its own
delta batch and test its own trigger — with thousands of CQs over a
handful of hot tables, identical delta batches are recomputed once per
CQ. These are the records ``CQManager.poll()`` shares work through:

* :class:`DeltaBatchCache` — one refresh *window*: consolidation runs
  once per ``(table, since_ts, now_ts)`` and predicate-index routing
  once per ``(tables, since_ts, now_ts)``, shared by every CQ (on the
  server, every subscription) reading that window;
* :class:`Cohort` — the active CQs of one operand-table footprint
  share a swept-through timestamp. A poll routes each touched cohort's
  batch over ``(swept, now]`` once — while routing leaves someone out
  — and visits only the routed ``lazy`` members plus the ``always``
  set; nobody iterates the registry. A visit is skipped only when it is
  provably unobservable: on a quiet footprint, every :func:`is_skip_safe`
  CQ; on a touched one, only unrouted ``lazy`` members — trigger exactly
  ``OnEveryChange``, stop ``Never`` — whose visit would execute over a
  provably irrelevant window (Section 5.2) and only move the window
  start. A stateful data trigger must still be visited: an ``OnUpdate``
  armed during an unrouted window would otherwise fire a poll late;
* :class:`SharedView` — the members of one SQL text share one plan,
  one index entry, one evaluation per window and one retained result;
  the manager and the server both refresh through it, and the cluster
  router merges into it and catches it up through it;
* :class:`Family` — SPJ views whose texts differ only in one alias's
  local predicate share one execution per routed window on their
  shape's plan, demultiplexed into each view's own delta;
* :func:`sweep` — one circuit, a sink per tier: the refresh of the
  server and of the shard store, the cluster router's catch-up of keys
  left behind, and the start of a manager's poll, which moves each
  touched cohort's lazy views: only the views routing selects
  (:meth:`DeltaBatchCache.due`'s rule, the manager's cohorts' too) are
  evaluated; the others move to ``now`` by assignment.

At the manager, the sweep runs first, charged to each cohort's first
due lazy member; then runnable CQs take their turns one after another
in registration order, so the notification sequence is the paper's. A
lazy member standing at the window the sweep moved its view over only
receives its view's delta (``DeltaBatchCache.moved``); a family's
routed window was executed once, for every routed view of the family.
Sharing only removes provably redundant work, and adds counters and a
latency histogram.
"""

from __future__ import annotations

import functools
from typing import Dict, Iterable, Iterator, List, Mapping, Optional
from typing import Sequence, Set, Tuple

from repro.metrics import Metrics
from repro.obs.trace import NULL_SPAN, Tracer
from repro.relational.algebra import SPJQuery
from repro.relational.planning import plan_predicate
from repro.relational.predicates import conjunction
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.relational.sql.parser import PARSE_MEMO_SIZE
from repro.storage.database import Database
from repro.storage.timestamps import Timestamp
from repro.delta.capture import delta_since
from repro.delta.diff import diff
from repro.delta.propagate import evaluate_as_of
from repro.delta.differential import DeltaRelation
from repro.dra.algorithm import dra_execute, dra_initial
from repro.dra.assembly import to_delta
from repro.dra.predindex import PredicateIndex, Routed
from repro.dra.prepared import PlanCache, PreparedCQ
from repro.core.continual_query import ContinualQuery
from repro.core.termination import Never
from repro.core.triggers import (
    AllOf,
    AnyOf,
    EpsilonTrigger,
    OnEveryChange,
    OnUpdate,
    Trigger,
)


class DeltaBatchCache:
    """One refresh window: consolidated per-table delta batches keyed
    ``(table, since_ts, now_ts)`` and the predicate index's routing of
    them keyed ``(tables, since_ts, now_ts)`` — two readers of one
    window share one consolidation pass over the update log and one
    ``match_batch``. ``now_ts`` rides in the key because the logical
    clock moves on commits: one made while the window is open (by a
    notification callback) opens new keys, so the window never serves a
    batch that is missing it.

    A family's evaluation of a routed window (:meth:`family`) is kept
    under ``(shape, since_ts, now_ts)``, and each view a :func:`sweep`
    moved by an evaluation under ``moved`` (``(since, now, delta)``: what
    the manager's turns deliver), so they too die with the window.

    One poll, one commit observed by an IMMEDIATE manager or one server
    refresh cycle builds one window, reads it from one thread and drops
    it; a consolidation or an evaluation that raises caches nothing, so
    a later reader retries.
    """

    def __init__(
        self,
        db: Database,
        metrics: Optional[Metrics] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.db = db
        self.metrics = metrics
        self.tracer = tracer
        self._batches: Dict[Tuple[str, Timestamp, Timestamp], DeltaRelation] = {}
        self._routes: Dict[
            Tuple[Tuple[str, ...], Timestamp, Timestamp],
            Tuple[Dict[str, DeltaRelation], Routed],
        ] = {}
        self._families: Dict[
            Tuple[Tuple[str, str], Timestamp, Timestamp], Dict[str, DeltaRelation]
        ] = {}
        #: The keys the index had quarantined when it routed this
        #: window: routing cannot vouch for them, so they read unrouted.
        self.stale: Set[str] = set()
        # Windows a sweep routed that no read has taken yet.
        self._unread: Set[Tuple[Tuple[str, ...], Timestamp, Timestamp]] = set()
        self.moved: Dict[
            "SharedView", Tuple[Timestamp, Timestamp, Optional[DeltaRelation]]
        ] = {}
        self.hits = 0
        self.misses = 0

    def batch(
        self, table_name: str, since: Timestamp, now: Timestamp
    ) -> DeltaRelation:
        """The consolidated delta of one table over ``(since, now]``."""
        key = (table_name, since, now)
        batch = self._batches.get(key)
        if batch is not None:
            self.hits += 1
            if self.metrics:
                self.metrics.count(Metrics.DELTA_BATCHES_REUSED)
            return batch
        self.misses += 1
        span = (
            self.tracer.span(
                "delta.consolidate", table=table_name, since=since, now=now
            )
            if self.tracer is not None
            else NULL_SPAN
        )
        with span:
            batch = delta_since(self.db.table(table_name), since)
            span.set(entries=len(batch))
        self._batches[key] = batch
        if self.metrics:
            self.metrics.count(Metrics.DELTA_BATCHES_COMPUTED)
        return batch

    def deltas(
        self, table_names: Sequence[str], since: Timestamp, now: Timestamp
    ) -> Dict[str, DeltaRelation]:
        """Per-table consolidated deltas after ``since`` (skipping
        no-ops) — the drop-in shared equivalent of
        :func:`repro.delta.capture.deltas_since`."""
        out: Dict[str, DeltaRelation] = {}
        for name in table_names:
            batch = self.batch(name, since, now)
            if not batch.is_empty():
                out[name] = batch
        return out

    def routed(
        self,
        index: PredicateIndex,
        table_names: Tuple[str, ...],
        since: Timestamp,
        now: Timestamp,
        read: bool = True,
    ) -> Tuple[Dict[str, DeltaRelation], Routed]:
        """The window's :meth:`deltas` (a counted read) and the
        subscriptions ``index`` routes them to, each with the entry
        sides its aliases select: one pass however many readers ask,
        and a repeat read is one lookup returning the same pair, charged
        one reuse per table as a batch-by-batch read would be.

        ``read=False`` routes for a :func:`sweep`, which reads for no
        view: it charges nothing a first read would not, and the next
        read of the window is its first."""
        key = (table_names, since, now)
        pair = self._routes.get(key)
        if pair is None:
            deltas = self.deltas(table_names, since, now)
            pair = self._routes[key] = (deltas, index.match_batch(deltas))
            self.stale = index.stale()
            if not read:
                self._unread.add(key)
        elif key in self._unread:
            if read:
                self._unread.discard(key)
        elif read:
            self.hits += len(table_names)
            if self.metrics:
                self.metrics.count(Metrics.DELTA_BATCHES_REUSED, len(table_names))
        return pair

    def due(
        self,
        index: PredicateIndex,
        table_names: Tuple[str, ...],
        since: Timestamp,
        now: Timestamp,
        read: bool = True,
    ) -> Set[str]:
        """The keys a sweep of the window must evaluate, routed through
        :meth:`routed`: those ``index`` routes entries to, and those it
        had quarantined (routing cannot vouch for them) — the rule
        :func:`sweep` selects its views by, and the manager's cohorts
        their due members."""
        routed = self.routed(index, table_names, since, now, read)[1]
        return routed.keys() | self.stale

    def family(
        self,
        family: "Family",
        tables: Tuple[str, ...],
        since: Timestamp,
        now: Timestamp,
        metrics: Optional[Metrics] = None,
        tracer: Optional[Tracer] = None,
    ) -> Dict[str, DeltaRelation]:
        """Every routed member's delta over ``(since, now]``, from one
        :meth:`Family.evaluate` of the routing :meth:`routed` already
        holds for ``tables``; a repeat read is one lookup, charged
        nothing."""
        key = (family.key, since, now)
        out = self._families.get(key)
        if out is None:
            deltas, routed = self._routes[(tables, since, now)]
            out = family.evaluate(self.db, deltas, routed, now, metrics, tracer)
            self._families[key] = out
        return out

    def __repr__(self) -> str:
        return (
            f"DeltaBatchCache({len(self._batches)} batches, "
            f"hits={self.hits}, misses={self.misses})"
        )


_DATA_ONLY_TRIGGERS = (OnEveryChange, OnUpdate, EpsilonTrigger)


def is_data_only_trigger(trigger: Trigger) -> bool:
    """True when ``trigger`` can only fire because of a committed
    update to a relevant table.

    ``OnEveryChange`` fires on pending updates; ``OnUpdate`` arms from
    observed delta entries; epsilon specs accumulate divergence from
    observed deltas and reset at each execution — none of them can
    become true while the relevant logs are quiet. Time triggers
    (``Every``, ``At``, ...) and ``Custom`` can, so they are not
    data-only.
    """
    if isinstance(trigger, (AnyOf, AllOf)):
        return all(is_data_only_trigger(child) for child in trigger.children)
    return isinstance(trigger, _DATA_ONLY_TRIGGERS)


def is_skip_safe(cq: ContinualQuery) -> bool:
    """True when skipping the CQ on a quiet poll is unobservable.

    Requires a data-only trigger *and* the default ``Never`` stop
    condition: ``AtTime``/``WhenCondition``/``AfterExecutions`` stops
    are tested on every poll and may finalize a CQ without any update.
    """
    return isinstance(cq.stop, Never) and is_data_only_trigger(cq.trigger)


class Cohort:
    """The active CQs of one operand-table footprint.

    ``lazy`` members (classified by :meth:`CQManager._install`) are
    visited only when routed: an unvisited one's window start is
    ``max(cq.last_execution_ts, swept)``, and the cohort's one GC zone
    at ``swept`` protects it; a poll's :func:`sweep` moves the ``views``
    of its lazy SPJ members to ``now``, so each stands at ``swept`` or
    ahead of it (a late joiner's). ``always`` members keep their own
    window and zone. ``late`` holds lazy members whose window does not
    start at ``swept`` — registered after a commit the cohort has not
    swept, or visited by a poll that did not finish — so the next poll
    visits them whatever it routes.

    ``routing``: whether the reads of a footprint with lazy members go
    through the index. A routed sweep selecting every lazy member turns
    it off (sweeps then visit them all, unrouted: always sound); an
    unrouted one where a lazy member finds nothing, an install or an
    uninstall turns it back on.
    """

    __slots__ = ("tables", "swept", "lazy", "views", "always", "late", "routing")

    def __init__(self, tables: Tuple[str, ...], swept: Timestamp):
        self.tables = tables
        self.swept = swept
        self.lazy: Dict[str, ContinualQuery] = {}
        self.views: Dict[str, SharedView] = {}
        self.always: Dict[str, ContinualQuery] = {}
        self.late: Dict[str, ContinualQuery] = {}
        self.routing = True


class SharedView:
    """One ``sql_key``'s retained copy where refresh runs (Section 3.3),
    held as DBSP holds a view: one state each window's delta advances.
    The manager and the server both refresh through it; the cluster
    router holds one per key too, moved by the sum of its shard stores'
    deltas and, when it was left behind, by a :func:`sweep` over its
    own window; a shard store holds resultless ones.

    ``result`` is Q(state at ``since``): one integral per view, moved
    in place by :meth:`step`. Holders at its window read it (a manager
    member riding the view's steps, a server DRA_DELTA member), a
    holder the view leaves behind owns a copy, and what a tier hands
    out is a copy. ``digest`` describes it where the tier ships digests
    (the server), else None. ``last`` is the last evaluation to
    ``since``, ``(from, since, delta)``; a window that is its ``from``
    takes the delta, which a manager's view keeps (its members take it,
    and a rider a step leaves behind is parted by it; elsewhere, or
    when nothing was evaluated, None: a retained delta nobody asks for
    costs memory locality). A view holding a result is built by
    :meth:`at` and moves only through :meth:`step`; one built plainly
    holds none until a member's copy moves it (its members so far —
    aggregates, baselines — evaluate on their own).

    ``family`` is the :class:`Family` of the view's shape while the
    view is indexed and has a shape (else None): a routed window it
    shares with another member is evaluated once for them all.

    Membership is the tier's: ``members`` (the manager's CQs by name,
    the server's subscriptions and the router's notification callbacks
    by ``(client_id, cq_name)``), ``readers`` (the manager's delta
    readers: the index entry lives while there is one), ``buckets``
    (the server's members per client) and ``cost`` (what a
    :func:`sweep`'s evaluations of the view charged: the server's
    ``describe`` reads it).
    """

    __slots__ = (
        "query",
        "sql_key",
        "tables",
        "plans",
        "since",
        "result",
        "digest",
        "last",
        "family",
        "members",
        "readers",
        "buckets",
        "cost",
    )

    def __init__(
        self,
        query: SPJQuery,
        sql_key: str,
        plans: PlanCache,
        since: Timestamp,
        result: Optional[Relation] = None,
    ):
        self.query = query
        self.sql_key = sql_key
        # (in FROM order, as a CQ's and its cohort's: one routing pass)
        self.tables: Tuple[str, ...] = tuple(dict.fromkeys(query.table_names))
        self.plans = plans
        self.since = since
        self.result = result
        self.digest: Optional[str] = None
        self.last: Optional[Tuple[Timestamp, Timestamp, Optional[DeltaRelation]]] = None
        self.family: Optional[Family] = None
        self.members: Dict = {}
        self.readers = 0
        self.buckets: Dict[str, Dict] = {}
        self.cost: Dict[str, int] = {}

    @classmethod
    def at(
        cls,
        query: SPJQuery,
        sql_key: str,
        plans: PlanCache,
        plan: PreparedCQ,
        ts: Timestamp,
        metrics: Optional[Metrics] = None,
    ) -> "SharedView":
        """The view as of ``ts``: E_0 as one kernel term on ``plan``,
        the plan ``plans`` caches under ``sql_key`` (:func:`dra_initial`;
        a ``ts`` GC has passed raises the log's ``ValueError``)."""
        result = dra_initial(query, plans.db, ts, plan, metrics)
        return cls(query, sql_key, plans, ts, result)

    def read(
        self,
        window: DeltaBatchCache,
        index: Optional[PredicateIndex],
        since: Timestamp,
        now: Timestamp,
    ) -> Tuple[Dict[str, DeltaRelation], Optional[Routed]]:
        """The window ``(since, now]`` and the entry sides ``index``
        routed here (DRA's operand seeds): unrouted — no seeds — when
        ``index`` is None or quarantined this key (routing cannot vouch
        for it), nothing when the index proves every entry irrelevant
        (Section 5.2)."""
        if index is None:
            return window.deltas(self.tables, since, now), None
        deltas, routed = window.routed(index, self.tables, since, now)
        seeds = routed.get(self.sql_key)
        if seeds is None and self.sql_key not in window.stale:
            return {}, None
        return deltas, seeds

    def evaluate(
        self,
        window: DeltaBatchCache,
        read: Optional[Tuple[Dict[str, DeltaRelation], Optional[Routed]]],
        since: Timestamp,
        now: Timestamp,
        metrics: Optional[Metrics] = None,
        tracer: Optional[Tracer] = None,
        held: Optional[Relation] = None,
    ) -> Optional[DeltaRelation]:
        """The result delta over ``(since, now]`` on the kernels, moving
        nothing, from ``read`` (the window's :meth:`read`); None when it
        is empty. ``read`` None is a window GC retired: Q evaluated
        whole, diffed with ``held`` (a shard store holds nothing, but its
        zones keep every open window). The window ``last`` names is not
        evaluated again; one evaluated beside a view already at ``now``
        becomes ``last`` while a second reader may ask for it.

        A routed window in which only the table of the family's
        parameter alias changed is the family's, when the family has
        another member: the delta is this view's share of the window's
        one :meth:`Family.evaluate`. Anything else — a family of one, an
        unrouted or quarantined read, another table touched — runs this
        view's own execution."""
        if read is None:
            if held is None:
                raise ValueError(f"{self.sql_key!r}: ({since}, {now}] was retired")
            return diff(held, window.db.query(self.query, metrics), now)
        deltas, seeds = read
        if not deltas:
            return None
        last = self.last
        if last is not None and last[2] is not None and last[:2] == (since, now):
            return last[2]
        key, family = self.sql_key, self.family
        if (
            family is not None
            and seeds is not None
            and len(family.members) > 1
            and len(deltas) == 1
            and family.table in deltas
        ):
            # (the window's one evaluation, read without a call per member)
            shares = window._families.get((family.key, since, now))
            if shares is None:
                shares = window.family(family, self.tables, since, now, metrics, tracer)
            delta = shares[key]
        else:
            span = (
                tracer.span("dra.apply", view=key)
                if tracer is not None and tracer.enabled
                else NULL_SPAN
            )
            with span:
                result = dra_execute(
                    self.query,
                    window.db,
                    deltas=deltas,
                    ts=now,
                    metrics=metrics,
                    prepared=self.plans.get(key, self.query),
                    tracer=tracer,
                    seeds=seeds,
                )
                if span is not NULL_SPAN:
                    span.set(
                        changed=",".join(sorted(result.changed_aliases)),
                        terms=result.terms_evaluated,
                        delta_rows=len(result.delta),
                    )
            delta = result.delta
        if now == self.since and self.readers > 1:
            self.last = (since, now, delta)
        return delta

    def step(
        self,
        delta: Optional[DeltaRelation],
        since: Timestamp,
        now: Timestamp,
        held: Optional[Relation],
    ) -> None:
        """The one move of a view: ``held``, the result as of ``since``,
        with ``delta`` applied (folding ``digest`` through
        :func:`apply_delta`) becomes ``result``; ``last`` records the
        window, with the delta at the manager (its members take it, and
        a rider the step left behind is parted by it), and ``since``
        becomes ``now``. :func:`sweep` ends a view's evaluation with it
        at every tier, the manager's member that moves a view from its
        own window or copy does, and so does the cluster router's merge
        of the deltas its shard stores evaluated.

        The view's own result moves in place, at O(|delta|); a member's
        copy the view takes over, or a result handed out that the delta
        changes (to code outside the tier, or to a member that left the
        view and still lives), is copied first. An apply that raises
        moves nothing. A view holding no result (a shard store's) moves
        its window alone."""
        changed = held is not None and delta is not None and not delta.is_empty()
        out = changed and held.handed_out
        if held is not self.result or (out and (out is True or out() is not None)):
            held = held.copy()
        if changed:
            if self.digest is None:
                delta.apply_in_place(held)
            else:
                self.digest = apply_delta(delta, held, self.digest)
        kept = delta if self.readers else None
        self.result, self.last, self.since = held, (since, now, kept), now

    def check(self, db: Database) -> None:
        """Raise ``AssertionError`` unless ``result`` is Q(state at
        ``since``) — while the logs reach back there — and ``digest``,
        if kept, describes it: the laws both tiers hold their views to."""
        key, result = self.sql_key, self.result
        if result is None:
            return
        if all(db.table(t).log.pruned_through <= self.since for t in self.tables):
            if result != evaluate_as_of(self.query, db, self.since):
                raise AssertionError(f"{key!r}: result is not Q(state at since)")
        if self.digest not in (None, relation_digest(result)):
            raise AssertionError(f"{key!r}: digest does not describe the result")


def sweep(
    views: Iterable[SharedView],
    window: DeltaBatchCache,
    index: Optional[PredicateIndex],
    now: Timestamp,
    metrics: Optional[Metrics],
    tracer: Optional[Tracer] = None,
) -> Iterator[Tuple[SharedView, Timestamp, Optional[DeltaRelation]]]:
    """Move ``views`` to ``now`` in their order, yielding ``(view, since,
    delta)`` for each evaluated one for the tier to deliver (and
    recording it in ``window.moved``): the refresh of the server and of
    a shard store, the cluster router's catch-up, and the start of a
    manager's poll.

    Each footprint's window ``(since, now]`` is routed once, and every
    view of it reads that routing. A view it does not select
    (:meth:`DeltaBatchCache.due`'s rule) moves by assignment alone: the
    Section 5.2 relevance theorem makes its delta empty. A selected one
    is evaluated through :meth:`SharedView.evaluate` (a routed family's
    window once for all its members) and stepped, what it charged
    folded once into ``metrics`` and the view's ``cost``. With no
    ``index`` every view is evaluated unrouted, and a window GC retired
    whole. An evaluation that raises leaves its view, and those after
    it, where they stand. ``delta_batches_reused`` reads as if each
    view had read its window, charged at the end."""
    routes: Dict[Tuple[Tuple[str, ...], Timestamp], Optional[Tuple]] = {}
    unread: Dict[Tuple[Tuple[str, ...], Timestamp], int] = {}
    moved, bag = window.moved, Metrics()
    charged = bag._counters  # (a share of a family's evaluation charges nothing)
    reads = skipped = 0
    try:
        for view in views:
            tables, since, key = view.tables, view.since, view.sql_key
            at = (tables, since)
            if at not in routes:
                routes[at] = None
                try:
                    if index is None:
                        routes[at] = window.deltas(tables, since, now), None
                        reads -= len(tables)  # (the first view's read)
                    else:
                        routes[at] = window.routed(index, tables, since, now, False)
                        unread[at] = len(tables)
                except ValueError:
                    pass
            pair = routes[at]
            read = None
            if pair is not None:
                deltas, routed = pair
                seeds = None
                if routed is not None:
                    seeds = routed.get(key)
                    if seeds is None and key not in window.stale:
                        skipped += len(tables)
                        view.last, view.since = (since, now, None), now
                        continue
                    unread.pop(at, None)
                    if (tables, since, now) in window._unread:  # (its first read)
                        window._unread.discard((tables, since, now))
                        reads -= len(tables)
                reads += len(tables)
                read = deltas, seeds
            try:
                held = view.result
                delta = view.evaluate(window, read, since, now, bag, tracer, held)
                view.step(delta, since, now, held)
            finally:
                if charged:
                    if metrics is not None:
                        metrics.merge(bag)
                    cost = view.cost
                    for name, value in bag.snapshot().items():
                        cost[name] = cost.get(name, 0) + value
                    bag.reset()
            moved[view] = (since, now, delta)
            yield view, since, delta
    finally:
        # (a window no evaluated view read was first read by a quiet one)
        skipped += reads - sum(unread.values())
        window.hits += reads
        if skipped and window.metrics is not None:
            window.metrics.count(Metrics.DELTA_BATCHES_REUSED, skipped)


@functools.lru_cache(maxsize=PARSE_MEMO_SIZE)
def query_shape(
    query: SPJQuery, schemas: Tuple[Schema, ...]
) -> Optional[Tuple[Tuple[str, str], SPJQuery]]:
    """``((shape SQL, P), shape)`` for an SPJ text, or None when it has
    none. The parameter alias P is the first alias in FROM order with a
    local predicate, and P's table must appear once in FROM; the shape
    is the query with P's local conjuncts removed. Everything else —
    the other aliases' local conjuncts, constant conjuncts, cross-alias
    predicates, the projection — stays verbatim, so two texts are in
    one :class:`Family` iff their keys are equal.

    ``schemas`` are the aliases' in FROM order (they resolve unqualified
    columns). Memoised as :func:`~repro.relational.sql.parse_query` is:
    the decomposition runs once per distinct text, not per
    registration."""
    local = plan_predicate(query.predicate, dict(zip(query.aliases, schemas))).local
    for ref in query.relations:
        if local[ref.alias]:
            break
    else:
        return None
    if query.table_names.count(ref.table) > 1:
        return None
    dropped = set(map(id, local[ref.alias]))
    rest = [c for c in query.predicate.conjuncts() if id(c) not in dropped]
    shape = SPJQuery(query.relations, conjunction(rest), query.projection)
    return (shape.to_sql(), ref.alias), shape


class Family:
    """The indexed SPJ views of one shape (:func:`query_shape`): texts
    that differ only in the local predicate of the parameter alias P —
    one query instantiated with many literals, P's being input
    variables bound per access (Kara et al., free access patterns).

    A routed window in which only P's table changed is evaluated once,
    on the shape's plan (``plans`` caches it under the shape's SQL),
    seeded with the union of the P-sides routing sent the members,
    each ``(tid, sign)`` once. The outputs stay apart per seed side and
    each member's delta is assembled from the outputs of its own sides
    only: a modify whose old side routes to one member and new side to
    another is a delete in the first and an insert in the second, even
    where the two projected rows are equal, which a signed sum over the
    union would cancel. Routing already applied each member's whole
    local conjunction on P (Section 5.2), so nobody tests it again.
    Each member's view takes its share in its own
    :meth:`SharedView.evaluate`, in the :func:`sweep` that moves it.

    ``members`` maps each member's ``sql_key`` to its view.
    """

    __slots__ = ("key", "query", "table", "position", "plans", "members")

    def __init__(self, key: Tuple[str, str], query: SPJQuery, plans: PlanCache):
        self.key = key
        self.query = query
        aliases = query.aliases
        at = aliases.index(key[1])
        self.table = query.table_names[at]
        #: P's place in a composite result tid (None: the tid is P's).
        self.position = None if len(aliases) == 1 else at
        self.plans = plans
        self.members: Dict[str, SharedView] = {}

    def evaluate(
        self,
        db: Database,
        deltas: Mapping[str, DeltaRelation],
        routed: Routed,
        now: Timestamp,
        metrics: Optional[Metrics] = None,
        tracer: Optional[Tracer] = None,
    ) -> Dict[str, DeltaRelation]:
        """Each routed member's delta over ``deltas``, in which only
        P's table changed, from one :func:`dra_execute` on the shape's
        plan. A seed side travels under its place in the union as its
        tid, so no two sides' outputs meet in the signed sum; the real
        tid is put back as the outputs are sorted to their sides."""
        alias = self.key[1]
        place: Dict[Tuple, int] = {}
        tids: List = []
        rows: List = []
        signs: List[int] = []
        owned: List[Tuple[str, List[int]]] = []
        for key in self.members:
            seeds = routed.get(key)
            if seeds is None:
                continue
            mine = []
            for tid, row, sign in zip(*seeds[alias]):
                i = place.setdefault((tid, sign), len(tids))
                if i == len(tids):
                    tids.append(tid)
                    rows.append(row)
                    signs.append(sign)
                mine.append(i)
            owned.append((key, mine))
        span = (
            tracer.span("dra.apply", family=self.key[0], members=len(owned))
            if tracer is not None and tracer.enabled
            else NULL_SPAN
        )
        with span:
            prepared = self.plans.get(self.key[0], self.query)
            result = dra_execute(
                self.query,
                db,
                deltas=deltas,
                ts=now,
                metrics=metrics,
                prepared=prepared,
                tracer=tracer,
                seeds={alias: (list(range(len(tids))), rows, signs)},
            )
            outputs: List[List] = [[] for __ in tids]
            at = self.position
            for (ctid, values), weight in result.weights.items():
                i = ctid if at is None else ctid[at]
                real = tids[i] if at is None else (*ctid[:at], tids[i], *ctid[at + 1 :])
                outputs[i].append(((real, values), weight))
            schema, shares = prepared.out_schema, {}
            for key, mine in owned:
                weights: Dict = {}
                for i in mine:
                    for pair, weight in outputs[i]:
                        total = weights.get(pair, 0) + weight
                        if total:
                            weights[pair] = total
                        else:
                            del weights[pair]
                shares[key] = to_delta(weights, schema, now)
            if span is not NULL_SPAN:
                span.set(seed_rows=len(tids), outputs=len(result.weights))
        return shares


def join_family(
    families: Dict[Tuple[str, str], Family],
    view: SharedView,
    scopes: Mapping[str, Schema],
) -> None:
    """Enter a newly indexed SPJ view into the family of its shape,
    founding the family if it is the first; a text without a shape
    stays alone."""
    query = view.query
    shape = query_shape(query, tuple(scopes[alias] for alias in query.aliases))
    if shape is None:
        return
    key, query = shape
    family = families.get(key)
    if family is None:
        family = families[key] = Family(key, query, view.plans)
    family.members[view.sql_key] = view
    view.family = family


def leave_family(
    families: Dict[Tuple[str, str], Family], view: SharedView, views: Mapping
) -> None:
    """Take a view whose index entry goes out of its family. The last
    member takes the family and its shape's plan along — unless a live
    view of ``views`` has the shape's text as its own."""
    family = view.family
    if family is None:
        return
    view.family = None
    del family.members[view.sql_key]
    if not family.members:
        del families[family.key]
        if family.key[0] not in views:
            family.plans.invalidate(family.key[0])


def check_families(
    families: Dict[Tuple[str, str], Family],
    views: Mapping[str, SharedView],
    indexed: Set[str],
    db: Database,
) -> None:
    """Raise ``AssertionError`` unless every ``indexed`` view with a
    shape is a member of its shape's family, no other view is in one,
    and no family is memberless: the laws both tiers hold their
    families to."""
    placed = {}
    for key, family in families.items():
        if not family.members:
            raise AssertionError(f"{key}: a memberless family")
        for sql_key, view in family.members.items():
            if views.get(sql_key) is not view or view.family is not family:
                raise AssertionError(f"{sql_key!r}: not a live member of {key}")
            placed[sql_key] = key
    for sql_key, view in views.items():
        shape = None
        if sql_key in indexed:
            query = view.query
            schemas = tuple(db.table(t).schema for t in query.table_names)
            shape = query_shape(query, schemas)
        if placed.get(sql_key) != (shape and shape[0]):
            raise AssertionError(f"{sql_key!r}: not in the family of its shape")


# Last: importing repro.net runs its package, whose server imports this
# module's names.
from repro.net.digest import apply_delta, relation_digest  # noqa: E402
