"""Lightweight operation counters, shared across subsystems.

The paper's performance arguments (Section 5.1) are about work *not*
done: base rows never scanned, bytes never shipped. Wall-clock time in
Python is noisy and implementation-biased, so the benchmark harness
reports deterministic operation counts alongside timings. Any engine
entry point accepts an optional :class:`Metrics` and charges counters
to it.

Counters are thread-safe: the cluster's ``LocalBackend`` pool threads
and user threads may all charge the same :class:`Metrics`. ``count``
takes an internal lock, so totals stay exact under contention;
alternatively give each thread its own instance and :meth:`merge` them
afterwards.

Besides counters, a :class:`Metrics` holds named :class:`Histogram`
distributions (power-of-two buckets) via :meth:`observe` — the refresh
scheduler records per-CQ refresh latency there.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterator, List, Optional, Tuple


class Histogram:
    """A power-of-two-bucketed distribution of non-negative samples.

    Bucket ``e`` counts samples with ``2**(e-1) < value <= 2**e``
    (bucket 0 holds values <= 1). Exact ``count``/``total``/``min``/
    ``max`` ride along, so means are exact and percentiles are bucket
    upper bounds — plenty for latency reporting, cheap to merge.
    """

    __slots__ = ("count", "total", "min", "max", "_buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._buckets: Dict[int, int] = {}

    def observe(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"histogram samples must be >= 0, got {value}")
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        exp = 0
        bound = 1.0
        while value > bound:
            exp += 1
            bound *= 2.0
        self._buckets[exp] = self._buckets.get(exp, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """The bucket upper bound covering the ``p``-th percentile,
        clamped to the observed ``max`` so the estimate never exceeds a
        value that was actually seen. ``percentile(0)`` is ``min``.
        """
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if not self.count:
            return 0.0
        if p == 0:
            return float(self.min if self.min is not None else 0.0)
        observed_max = float(self.max if self.max is not None else 0.0)
        target = self.count * p / 100.0
        seen = 0
        for exp in sorted(self._buckets):
            seen += self._buckets[exp]
            if seen >= target:
                return min(float(2**exp), observed_max)
        return observed_max

    def merge(self, other: "Histogram") -> None:
        self.count += other.count
        self.total += other.total
        for bound in (other.min, other.max):
            if bound is not None:
                self.min = bound if self.min is None else min(self.min, bound)
                self.max = bound if self.max is None else max(self.max, bound)
        for exp, n in other._buckets.items():
            self._buckets[exp] = self._buckets.get(exp, 0) + n

    def copy(self) -> "Histogram":
        out = Histogram()
        out.merge(self)
        return out

    def buckets(self) -> List[Tuple[int, int]]:
        """``(upper_bound_exponent, count)`` pairs, ascending."""
        return sorted(self._buckets.items())

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:
        return (
            f"Histogram(count={self.count}, mean={self.mean:.1f}, "
            f"p95<={self.percentile(95):.0f}, max={self.max})"
        )


class Metrics:
    """A named bag of monotonically increasing counters."""

    __slots__ = ("_counters", "_histograms", "_lock")

    # Canonical counter names used across the engine. Free-form names
    # are also allowed; these constants just prevent typos.
    ROWS_SCANNED = "rows_scanned"
    INDEX_PROBES = "index_probes"
    ROWS_EMITTED = "rows_emitted"
    DELTA_ROWS_READ = "delta_rows_read"
    TERMS_EVALUATED = "terms_evaluated"
    BYTES_SENT = "bytes_sent"
    MESSAGES_SENT = "messages_sent"
    EXECUTIONS = "executions"
    EXECUTIONS_SKIPPED = "executions_skipped"
    # Shared-delta refresh scheduler (Section 5.2/5.4 sharing layer).
    DELTA_BATCHES_COMPUTED = "delta_batches_computed"
    DELTA_BATCHES_REUSED = "delta_batches_reused"
    GROUPS_SKIPPED = "groups_skipped"
    CQ_REFRESHES = "cq_refreshes"
    # Prepared-plan compilation layer (registration-time compile).
    PREDICATE_PLANS = "predicate_plans"
    PLANS_PREPARED = "plans_prepared"
    PLAN_CACHE_HITS = "plan_cache_hits"
    PLAN_CACHE_INVALIDATIONS = "plan_cache_invalidations"
    # Base-operand probes that degraded to a transient scan because no
    # maintained index covered the probe positions.
    BASE_SCANS = "base_scans"
    # Transport layer (wire codec, sessions, reconnect replay).
    BYTES_ENCODED = "bytes_encoded"
    MESSAGES_DROPPED = "messages_dropped"
    RECONNECTS = "reconnects"
    HEARTBEATS_MISSED = "heartbeats_missed"
    REPLAY_FALLBACKS = "replay_fallbacks"
    REPLAYS = "replays"
    BACKPRESSURE_DEGRADES = "backpressure_degrades"
    RESYNCS = "resyncs"
    # Predicate-index fan-out layer (repro.dra.predindex): candidate
    # entries inspected while routing a batch, subscriptions routed,
    # signature recompiles forced by schema changes, and shared
    # materialization groups (created / joined beyond the first member).
    PREDINDEX_PROBES = "predindex_probes"
    PREDINDEX_MATCHES = "predindex_matches"
    PREDINDEX_INVALIDATIONS = "predindex_invalidations"
    SHARED_GROUPS = "shared_groups"
    SHARED_GROUP_HITS = "shared_group_hits"
    # Columnar kernel execution layer (repro.dra.kernels): kernel
    # invocations and rows swept per invocation. rows/calls is the
    # batch-efficiency signal the cost tables derive.
    KERNEL_CALLS = "kernel_calls"
    KERNEL_ROWS = "kernel_rows"
    # Durability and self-verification layer (WAL, digests, audits).
    WAL_APPENDS = "wal_appends"
    WAL_RECOVERED = "wal_recovered"
    WAL_TORN_TRUNCATIONS = "wal_torn_truncations"
    DIGEST_MISMATCHES = "digest_mismatches"
    AUDITS = "audits"
    AUDIT_DIVERGENCES = "audit_divergences"
    CODEC_ERRORS = "codec_errors"
    # Sharded cluster layer (repro.cluster): scatter cycles sent vs
    # skipped by router-side relevance, cross-shard merges and the
    # conflicts/residual drops they resolved, and shard recovery via
    # delta replay vs baseline fallback.
    SCATTERS = "cluster_scatters"
    SCATTER_SKIPPED = "cluster_scatter_skipped"
    CLUSTER_MERGES = "cluster_merges"
    MERGE_CONFLICTS = "cluster_merge_conflicts"
    RESIDUAL_DROPS = "cluster_residual_drops"
    SHARD_REPLAYS = "cluster_shard_replays"
    SHARD_FALLBACKS = "cluster_shard_fallbacks"
    # Cluster fault tolerance: hosts suspected by the health state
    # machine, request retries and deadline misses, replica promotions
    # (zero-downtime failover), and replacement replicas seeded after a
    # host left a placement group.
    SUSPECTS = "cluster_suspects"
    SCATTER_RETRIES = "cluster_scatter_retries"
    SCATTER_TIMEOUTS = "cluster_scatter_timeouts"
    FAILOVERS = "cluster_failovers"
    REREPLICATIONS = "cluster_rereplications"
    # Overlapped scatter/gather transport: replies that could not be
    # paired with an in-flight request (late answers of timed-out
    # attempts, seqless frames) and torn connections failed over
    # immediately because the process behind the pipe was gone.
    STALE_REPLIES = "cluster_stale_replies"
    SCATTER_FAILFASTS = "cluster_scatter_failfasts"
    # Histogram names.
    REFRESH_LATENCY_US = "refresh_latency_us"

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._lock = threading.Lock()

    def count(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` (creating it at zero)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def get(self, name: str) -> int:
        return self._counters.get(name, 0)

    def __getitem__(self, name: str) -> int:
        return self.get(name)

    def __iter__(self) -> Iterator[Tuple[str, int]]:
        return iter(sorted(self.snapshot().items()))

    def __len__(self) -> int:
        return len(self._counters)

    def __bool__(self) -> bool:
        # Always truthy: engine code guards counter charging with a bare
        # `if metrics:`, which must hold even before the first count —
        # and regardless of how many counters this instance has seen.
        # Short-lived per-thread instances rely on this exactly like
        # the long-lived shared one.
        return True

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._histograms.clear()

    def snapshot(self) -> Dict[str, int]:
        """An independent copy of the current counter values."""
        with self._lock:
            return dict(self._counters)

    def merge(self, other: "Metrics") -> None:
        """Add all of ``other``'s counters and histograms into this one."""
        counters = other.snapshot()
        with other._lock:
            histograms = {
                name: hist.copy() for name, hist in other._histograms.items()
            }
        with self._lock:
            for name, value in counters.items():
                self._counters[name] = self._counters.get(name, 0) + value
            for name, hist in histograms.items():
                mine = self._histograms.get(name)
                if mine is None:
                    self._histograms[name] = hist
                else:
                    mine.merge(hist)

    def diff(self, earlier: Dict[str, int]) -> Dict[str, int]:
        """Counter increases since an earlier :meth:`snapshot`."""
        out = {}
        for name, value in self.snapshot().items():
            delta = value - earlier.get(name, 0)
            if delta:
                out[name] = delta
        return out

    # -- histograms -------------------------------------------------------

    def observe(self, name: str, value: float) -> None:
        """Record a sample in histogram ``name`` (creating it empty)."""
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = Histogram()
            hist.observe(value)

    def histogram(self, name: str) -> Histogram:
        """Histogram ``name`` (an empty one if nothing was observed)."""
        with self._lock:
            hist = self._histograms.get(name)
            return hist.copy() if hist is not None else Histogram()

    def histograms(self) -> Dict[str, Histogram]:
        with self._lock:
            return {name: h.copy() for name, h in self._histograms.items()}

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self)
        return f"Metrics({inner})"
