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
  batch over ``(swept, now]`` once and visits only the routed ``lazy``
  members plus the ``always`` set; nobody iterates the registry. A
  visit is skipped only when it is provably unobservable: on a quiet
  footprint, every :func:`is_skip_safe` CQ; on a touched one, only
  unrouted ``lazy`` members — trigger exactly ``OnEveryChange``, stop
  ``Never`` — whose visit would execute over a provably irrelevant
  window (Section 5.2) and only move the window start. A stateful data
  trigger must still be visited: an ``OnUpdate`` armed during an
  unrouted window would otherwise fire a poll late;
* :class:`SqlGroup` — the active CQs of one SQL text share one plan,
  one index entry, one evaluation per window and one retained result.

Runnable CQs refresh one after another in registration order, so the
notification sequence is the paper's: sharing only removes provably
redundant work, and adds counters and a refresh-latency histogram.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.metrics import Metrics
from repro.obs.trace import NULL_SPAN, Tracer
from repro.relational.relation import Relation
from repro.storage.database import Database
from repro.storage.timestamps import Timestamp
from repro.delta.capture import delta_since
from repro.delta.differential import DeltaRelation
from repro.dra.predindex import PredicateIndex, Routed
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

    One poll, one commit observed by an IMMEDIATE manager or one server
    refresh cycle builds one window, reads it from one thread and drops
    it; a consolidation that raises caches nothing, so a later reader
    retries.
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
        self._routes: Dict[Tuple[Tuple[str, ...], Timestamp, Timestamp], Routed] = {}
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
    ) -> Tuple[Dict[str, DeltaRelation], Routed]:
        """The window's :meth:`deltas` (a counted read) and the
        subscriptions ``index`` routes them to, each with the entry
        sides its aliases select: one pass however many readers ask."""
        deltas = self.deltas(table_names, since, now)
        key = (table_names, since, now)
        routed = self._routes.get(key)
        if routed is None:
            routed = self._routes[key] = index.match_batch(deltas)
        return deltas, routed

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
    at ``swept`` protects it. ``always`` members keep their own window
    and zone. ``late`` holds lazy members whose window does not start
    at ``swept`` — registered after a commit the cohort has not swept,
    or visited by a poll that did not finish — so the next poll visits
    them whatever it routes.
    """

    __slots__ = ("tables", "swept", "lazy", "always", "late")

    def __init__(self, tables: Tuple[str, ...], swept: Timestamp):
        self.tables = tables
        self.swept = swept
        self.lazy: Dict[str, ContinualQuery] = {}
        self.always: Dict[str, ContinualQuery] = {}
        self.late: Dict[str, ContinualQuery] = {}


class SqlGroup:
    """The active CQs of one SQL text: one plan, one predicate-index
    entry, one evaluation per window, one retained result.

    ``members`` by name; ``readers`` of them read deltas on an indexed
    manager (a baseline joins for the plan and the result, never for
    the routing): the index entry lives while there is one. ``last`` is
    the last evaluation ``(since, now, delta)``; a member with that very
    window takes the delta — kept while there is a second reader to do
    so — instead of evaluating again. ``result`` is Q(state at that
    ``now``), the one object every keeper there holds: replaced, never
    mutated; None until one has taken it.
    """

    __slots__ = ("members", "readers", "last", "result")

    def __init__(self) -> None:
        self.members: Dict[str, ContinualQuery] = {}
        self.readers = 0
        self.last: Optional[Tuple[Timestamp, Timestamp, DeltaRelation]] = None
        self.result: Optional[Relation] = None

    def delta_over(self, since: Timestamp, now: Timestamp) -> Optional[DeltaRelation]:
        """The last evaluation's delta, if kept and over ``(since, now]``."""
        last = self.last
        return last[2] if last and last[:2] == (since, now) else None

    def retain(self, cq: ContinualQuery, now: Timestamp, delta=None) -> None:
        """Hand a keeper whose own copy, with ``delta`` applied (None or
        empty: as it is), is Q(state at ``now``) the group's one object
        for that state; the first to ask leaves its own. A no-op unless
        the group was evaluated as of ``now``."""
        if not self.last or self.last[1] != now:
            return
        if self.result is None:
            held = cq.previous_result
            self.result = delta.apply_to(held) if delta else held
        cq.previous_result = self.result
