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
* *grouped trigger evaluation* — CQs are partitioned by operand-table
  footprint; a whole group is skipped when none of its tables saw a
  commit since the members' last executions, provided the members'
  trigger/stop conditions are purely data-driven (a time trigger can
  fire without any update, so such CQs are always evaluated).

Runnable CQs refresh one after another in registration order, so the
notification sequence is the paper's: sharing only removes provably
redundant work and adds observability counters
(``delta_batches_reused``, ``groups_skipped``) plus a refresh-latency
histogram.
"""

from __future__ import annotations

import time
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


class RefreshScheduler:
    """Selects and refreshes the runnable CQs of one poll.

    A drop-in behind :meth:`CQManager.poll`; see the module docstring
    for the two sharing layers.
    """

    def __init__(self, manager: "CQManager"):
        self.manager = manager

    # -- one poll ---------------------------------------------------------

    def run(self, now: Timestamp) -> None:
        """Evaluate one poll: select runnable CQs, refresh them."""
        manager = self.manager
        with manager.tracer.span(
            "scheduler.poll", now=now, registered=len(manager._cqs)
        ) as poll_span:
            runnable = self._select(list(manager._cqs.values()))
            poll_span.set(runnable=len(runnable))
            manager._delta_cache = DeltaBatchCache(
                manager.db, manager.metrics, manager.tracer
            )
            try:
                for cq in runnable:
                    self._refresh_one(cq, now)
            finally:
                manager._delta_cache = None

    # -- grouped trigger evaluation ---------------------------------------

    def _select(self, cqs: Sequence[ContinualQuery]) -> List[ContinualQuery]:
        """Registration-ordered CQs whose trigger check cannot be
        skipped, with whole-group skip accounting."""
        manager = self.manager
        latest: Dict[str, Timestamp] = {}

        def latest_ts(table_name: str) -> Timestamp:
            ts = latest.get(table_name)
            if ts is None:
                ts = manager.db.table(table_name).log.latest_ts()
                latest[table_name] = ts
            return ts

        runnable: List[ContinualQuery] = []
        # footprint -> [active members, skipped members]
        groups: Dict[Tuple[str, ...], List[int]] = {}
        for cq in cqs:
            if cq.status is not CQStatus.ACTIVE:
                continue
            tally = groups.setdefault(cq.table_names, [0, 0])
            tally[0] += 1
            if is_skip_safe(cq) and not any(
                latest_ts(name) > cq.last_execution_ts
                for name in cq.table_names
            ):
                tally[1] += 1
                continue
            runnable.append(cq)
        if manager.metrics:
            skipped_groups = sum(
                1 for active, skipped in groups.values() if active == skipped
            )
            if skipped_groups:
                manager.metrics.count(Metrics.GROUPS_SKIPPED, skipped_groups)
        return runnable

    # -- refresh ----------------------------------------------------------

    def _refresh_one(self, cq: ContinualQuery, now: Timestamp) -> None:
        manager = self.manager
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
