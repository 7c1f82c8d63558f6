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
from typing import Dict, Optional

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
        super().count(name, amount)
        if self.parent is not None:
            self.parent.count(name, amount)

    def observe(self, name: str, value: float) -> None:
        super().observe(name, value)
        if self.parent is not None:
            self.parent.observe(name, value)


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
