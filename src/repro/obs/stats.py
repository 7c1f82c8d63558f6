"""Per-CQ cost attribution on top of the shared :class:`Metrics` bag.

The engine charges counters to whatever ``Metrics`` it is handed. To
attribute that work to an individual CQ without forking every call
site, a refresh temporarily swaps in a :class:`TeeMetrics` — a real
``Metrics`` that *also* forwards every charge to the shared parent —
then folds the scoped counts into a :class:`CQStats` table keyed by CQ
name. The shared totals stay exact; the per-CQ table is pure addition.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Optional, Sequence

from repro.metrics import Histogram, Metrics


class TeeMetrics(Metrics):
    """A scoped ``Metrics`` that mirrors every charge to a parent.

    Counter reads (``get``/``snapshot``/``diff``) see only the scoped
    values, so a refresh can measure exactly what it charged; the
    parent still receives every count and observation, so shared
    totals are unaffected by the indirection.
    """

    __slots__ = ("parent",)

    def __init__(self, parent: Optional[Metrics] = None) -> None:
        super().__init__()
        self.parent = parent

    def count(self, name: str, amount: int = 1) -> None:
        # A scope is charged from the one thread running its refresh:
        # only the shared parent needs its lock.
        counters = self._counters
        counters[name] = counters.get(name, 0) + amount
        if self.parent is not None:
            self.parent.count(name, amount)

    def observe(self, name: str, value: float) -> None:
        super().observe(name, value)
        if self.parent is not None:
            self.parent.observe(name, value)

    def merge(self, other: Metrics) -> None:
        super().merge(other)
        if self.parent is not None:
            self.parent.merge(other)

    def charged(self) -> Dict[str, int]:
        """The non-zero counters this scope was charged."""
        return {name: value for name, value in self._counters.items() if value}


class CQStats:
    """Cumulative per-key cost table: counters plus a latency histogram.

    Keys are CQ names (or subscription identities on the server side).
    ``record`` adds one refresh's scoped counter deltas and latency;
    readers get copies, so the table is safe to render while refreshes
    continue on other threads.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Dict[str, int]] = {}
        self._latency: Dict[str, Histogram] = {}

    def record(
        self,
        key: str,
        counters: Dict[str, int],
        latency_us: Optional[float] = None,
    ) -> None:
        with self._lock:
            mine = self._counters.setdefault(key, {})
            for name, value in counters.items():
                if value:
                    mine[name] = mine.get(name, 0) + value
            if latency_us is not None:
                hist = self._latency.get(key)
                if hist is None:
                    hist = self._latency[key] = Histogram()
                hist.observe(latency_us)

    def record_each(self, keys: Iterable[str], counters: Dict[str, int]) -> None:
        """Add ``counters`` to every key, under one lock: what a poll's
        lazy turns of one kind were each charged."""
        items = [(name, value) for name, value in counters.items() if value]
        with self._lock:
            table = self._counters
            for key in keys:
                mine = table.get(key)
                if mine is None:
                    mine = table[key] = {}
                for name, value in items:
                    mine[name] = mine.get(name, 0) + value

    def record_split(
        self, keys: Sequence[str], name: str, total: int, each: Dict[str, int]
    ) -> None:
        """Charge ``total`` of counter ``name`` split over ``keys`` —
        evenly, the first ``total % len(keys)`` one more, so the shares
        sum to ``total`` — and ``each`` to every key: one frame's bytes
        over the CQs it addresses."""
        share, extra = divmod(total, len(keys))
        self.record_each(keys[:extra], {name: share + 1, **each})
        self.record_each(keys[extra:], {name: share, **each})

    def forget(self, key: str) -> None:
        """Drop a key's counters and histogram (its CQ was deregistered)."""
        with self._lock:
            self._counters.pop(key, None)
            self._latency.pop(key, None)

    def counters(self, key: str) -> Dict[str, int]:
        with self._lock:
            return dict(self._counters.get(key, {}))

    def latency(self, key: str) -> Histogram:
        with self._lock:
            hist = self._latency.get(key)
            return hist.copy() if hist is not None else Histogram()

    def keys(self):
        with self._lock:
            return sorted(set(self._counters) | set(self._latency))

    def to_dict(self) -> Dict[str, Dict[str, object]]:
        """``{key: {counters..., latency: {count, mean, p95, max}}}``."""
        out: Dict[str, Dict[str, object]] = {}
        for key in self.keys():
            row: Dict[str, object] = dict(self.counters(key))
            hist = self.latency(key)
            if hist.count:
                row["latency"] = {
                    "count": hist.count,
                    "mean_us": round(hist.mean, 3),
                    "p95_us": hist.percentile(95),
                    "max_us": hist.max,
                }
            out[key] = row
        return out

    def __len__(self) -> int:
        with self._lock:
            return len(set(self._counters) | set(self._latency))

    def __repr__(self) -> str:
        return f"CQStats({len(self)} keys)"


def cost_columns(cost: Dict[str, int]) -> Dict[str, object]:
    """The cost columns of a ``describe`` record, from one CQ's
    counters (DESIGN.md §9; kernel attribution, §11)."""
    calls = cost.get(Metrics.KERNEL_CALLS, 0)
    rows = cost.get(Metrics.KERNEL_ROWS, 0)
    return {
        "rows_scanned": cost.get(Metrics.ROWS_SCANNED, 0),
        "delta_rows_read": cost.get(Metrics.DELTA_ROWS_READ, 0),
        "kernel_calls": calls,
        "rows_per_kernel_call": round(rows / calls, 3) if calls else 0,
    }


def kernel_summary(metrics: Metrics) -> str:
    """A status report's ``kernels:`` line ("" before any kernel call)."""
    calls = metrics.get(Metrics.KERNEL_CALLS)
    if not calls:
        return ""
    rows = metrics.get(Metrics.KERNEL_ROWS)
    return f"\nkernels: calls={calls} rows={rows} rows_per_call={rows / calls:.1f}"
