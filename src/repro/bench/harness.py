"""Experiment harness shared by the benchmark suite.

Benchmarks report two kinds of numbers:

* *deterministic operation counts* (rows scanned, delta rows read,
  bytes shipped) from :class:`repro.metrics.Metrics` — these carry the
  paper's claims and are asserted on;
* *wall-clock timings* via :func:`time_fn` or pytest-benchmark — these
  illustrate the same shapes but are never asserted on (Python timing
  noise is not evidence).

:func:`repro.obs.format_table` renders sweep results as aligned text,
which each benchmark prints and EXPERIMENTS.md records.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Callable, Dict

if TYPE_CHECKING:  # pragma: no cover
    from repro.metrics import Histogram


def time_fn(fn: Callable[[], Any], repeat: int = 3) -> float:
    """Best-of-``repeat`` wall time of ``fn`` in seconds."""
    best = float("inf")
    for __ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def summarize_latency(histogram: "Histogram", unit: str = "us") -> Dict[str, Any]:
    """One row of latency summary stats from a metrics histogram.

    Feed the result rows to :func:`repro.obs.format_table`; percentiles
    are bucket upper bounds (see :class:`repro.metrics.Histogram`), which
    is the right resolution for illustrating refresh-latency shapes
    without pretending Python timings are precise.
    """
    return {
        "n": histogram.count,
        f"mean_{unit}": round(histogram.mean, 1),
        f"p50_{unit}": histogram.percentile(50),
        f"p95_{unit}": histogram.percentile(95),
        f"max_{unit}": round(histogram.max or 0.0, 1),
    }
