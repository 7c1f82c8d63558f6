"""Shared-delta refresh scheduling (paper Sections 5.2–5.4 at scale).

The naive poll loop asks every registered CQ to consolidate its own
delta batch and test its own trigger — with thousands of CQs over a
handful of hot tables, identical delta batches are recomputed once per
CQ. This module is the sharing layer between ``CQManager.poll()`` and
the per-CQ refresh machinery:

* :class:`DeltaBatchCache` — a per-poll cache keyed by
  ``(table, since_ts, now_ts)`` so ``deltas_since`` consolidation runs
  once per table per poll window and is shared by every CQ (and, on
  the server, every subscription) reading that table;
* *cohorts* — the active CQs of one operand-table footprint share a
  swept-through timestamp. A poll routes each touched cohort's batch
  over ``(swept, now]`` through the predicate index once and visits
  only the routed ``lazy`` members plus the ``always`` set; nobody
  iterates the registry. A visit is skipped only when it is provably
  unobservable: on a quiet footprint, every :func:`is_skip_safe` CQ; on
  a touched one, only unrouted ``lazy`` members — trigger exactly
  ``OnEveryChange``, stop ``Never`` — whose visit would execute over a
  provably irrelevant window (Section 5.2) and do nothing but move the
  window start. A stateful data trigger must still be visited: an
  ``OnUpdate`` armed during an unrouted window would otherwise stay
  armed and fire a poll late.

Runnable CQs refresh one after another in registration order, so the
notification sequence is the paper's: sharing only removes provably
redundant work and adds observability counters
(``delta_batches_reused``, ``groups_skipped``) plus a refresh-latency
histogram.
"""

from __future__ import annotations

import time
from operator import attrgetter
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.metrics import Metrics
from repro.obs.stats import TeeMetrics
from repro.obs.trace import NULL_SPAN, Tracer
from repro.storage.database import Database
from repro.storage.timestamps import Timestamp
from repro.delta.capture import delta_since
from repro.delta.differential import DeltaRelation
from repro.core.continual_query import ContinualQuery, CQStatus
from repro.core.termination import Never
from repro.core.triggers import (
    AllOf,
    AnyOf,
    EpsilonTrigger,
    OnEveryChange,
    OnUpdate,
    Trigger,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.manager import CQManager


class DeltaBatchCache:
    """A per-poll cache of consolidated per-table delta batches.

    Keyed by ``(table, since_ts, now_ts)``: two readers with the same
    refresh window share one consolidation pass over the update log.
    ``now_ts`` rides in the key because the logical clock only moves
    on commits — within one poll it is constant, so the cache can never
    serve a batch that is missing a mid-poll commit.

    One poll (or server refresh cycle) builds one cache and reads it
    from one thread; a consolidation that raises caches nothing, so a
    later reader retries.
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

    def __len__(self) -> int:
        return len(self._batches)

    def __repr__(self) -> str:
        return (
            f"DeltaBatchCache({len(self)} batches, "
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


# What one constant-time receive charges (no engine counter, no latency).
_RECEIVED = {Metrics.CQ_REFRESHES: 1, Metrics.SHARED_GROUP_HITS: 1}


class RefreshScheduler:
    """Selects and refreshes the runnable CQs of one poll.

    A drop-in behind :meth:`CQManager.poll`; see the module docstring
    for the two sharing layers.
    """

    def __init__(self, manager: "CQManager"):
        self.manager = manager

    # -- one poll ---------------------------------------------------------

    def run(self, now: Timestamp) -> None:
        """Evaluate one poll: sweep every cohort, refresh what is due
        in registration order, then move the cohorts' windows."""
        manager = self.manager
        with manager.tracer.span(
            "scheduler.poll", now=now, registered=len(manager._cqs)
        ) as poll_span:
            manager._delta_cache = DeltaBatchCache(
                manager.db, manager.metrics, manager.tracer
            )
            try:
                cohorts = list(manager._cohorts.values())
                runnable = [cq for cohort in cohorts for cq in self._due(cohort)]
                runnable.sort(key=attrgetter("order"))
                poll_span.set(runnable=len(runnable))
                for cq in runnable:
                    # (An earlier visit's callback may have deregistered it.)
                    if cq.status is CQStatus.ACTIVE and not self._receive(cq):
                        self._refresh_one(cq)
                for cohort in cohorts:
                    cohort.swept = now
                    manager.zones.try_advance(cohort.tables, now)
                    # Visited; only a window that starts after the sweep
                    # (registered mid-poll, or visited after a commit an
                    # earlier visit's callback made) stays late.
                    cohort.late = {
                        name: cq
                        for name, cq in cohort.late.items()
                        if cq.last_execution_ts > now
                    }
            finally:
                manager._delta_cache = None

    def _due(self, cohort: Cohort) -> List[ContinualQuery]:
        """The members of ``cohort`` this poll must visit."""
        manager = self.manager
        due = [
            cq
            for cq in cohort.always.values()
            if not is_skip_safe(cq)
            or manager._touched(cohort.tables, cq.last_execution_ts)
        ]
        if cohort.lazy and manager._touched(cohort.tables, cohort.swept):
            keys = manager._fanout_routed(cohort.tables, cohort.swept)
            for key in keys.keys() | manager.fanout_index.stale():
                for name, cq in manager._sql_groups.get(key, {}).items():
                    if name in cohort.lazy:
                        cohort.late[name] = cq
            for cq in cohort.late.values():
                manager._settle(cq, cohort.swept)
            due.extend(cohort.late.values())
        if not due and manager.metrics:
            manager.metrics.count(Metrics.GROUPS_SKIPPED)
        return due

    # -- refresh ----------------------------------------------------------

    def _receive(self, cq: ContinualQuery) -> bool:
        """The constant-time visit of a lazy member whose group already
        evaluated its window: an earlier member's full visit left the
        ``(delta, result)`` pair for ``(sql_key, since, now)``, so this
        one aliases the result, moves its window and is notified.

        Nothing observable is skipped. For the lazy class the stop is
        ``Never``, ``OnEveryChange`` fires iff the window is touched —
        which the pair's existence proves — and ignores
        ``notify_fired``, and there is no zone of the member's own to
        advance. Returns False — take the full visit — for everyone
        else: the first member of a group (its visit *is* the group's
        evaluation), always-visit members, a window that differs (a
        late joiner; anything after a callback's commit moved
        ``db.now()``).
        """
        manager = self.manager
        if (
            cq.name not in manager._cohorts[cq.table_names].lazy
            or not cq.keep_result
        ):
            return False
        now = manager.db.now()
        shared = manager._shared_results.get(
            (cq.sql_key, cq.last_execution_ts, now)
        )
        if shared is None:
            return False
        delta, cq.previous_result = shared
        cq.last_execution_ts = now
        if manager.auto_gc:
            manager.zones.collect()
        manager.stats.record(cq.name, _RECEIVED)
        if manager.metrics:
            for name in _RECEIVED:
                manager.metrics.count(name)
        if not delta.is_empty():
            cq.executions += 1
            cq.last_result_ts = now
            manager._emit(cq, manager._notification(cq, delta, now))
        return True

    def _refresh_one(self, cq: ContinualQuery) -> None:
        """One visit, stamped with the time its window really ends: the
        log's tail, which a commit made by an earlier visit's callback
        has moved past the poll's start."""
        manager = self.manager
        now = manager.db.now()
        # Scope counter charges to this refresh: the tee still charges
        # the shared bag, the scoped copy feeds per-CQ attribution.
        scoped = TeeMetrics(manager.metrics if manager.metrics else None)
        manager._scoped_metrics = scoped
        start = time.perf_counter()
        span = manager.tracer.span(
            "cq.refresh", cq=cq.name, tables=",".join(cq.table_names)
        )
        with span:
            try:
                manager._maybe_execute(cq, now)
            finally:
                manager._scoped_metrics = None
                latency_us = (time.perf_counter() - start) * 1e6
                counters = {
                    name: value
                    for name, value in scoped.snapshot().items()
                    if value
                }
                manager.stats.record(cq.name, counters, latency_us)
                span.set(latency_us=round(latency_us, 3), **counters)
                if manager.metrics:
                    manager.metrics.observe(
                        Metrics.REFRESH_LATENCY_US, latency_us
                    )
                manager._note_slow_refresh(cq.name, latency_us, counters)
