"""Observability: refresh-pipeline tracing, attribution, and export.

See DESIGN.md §9. The pieces:

* :mod:`repro.obs.trace` — ``Tracer``/``Span``: seeded-sampled,
  injectable-clock spans around every refresh stage.
* :mod:`repro.obs.stats` — ``TeeMetrics`` (scoped counter capture that
  still charges the shared bag) and ``CQStats`` (per-CQ cumulative
  cost tables + latency histograms).
* :mod:`repro.obs.export` — Prometheus text exposition for ``Metrics``
  counters and histograms, plus a parser for format checks.
* :mod:`repro.obs.sink` — JSON-lines trace sink with rotation.
* :mod:`repro.obs.table` — ``format_table``: the aligned text tables
  ``status_report`` and the benchmarks print.
"""

from repro.obs.export import counter_value, parse_prometheus_text, prometheus_text
from repro.obs.sink import JsonlTraceSink, read_spans
from repro.obs.stats import CQStats, TeeMetrics
from repro.obs.table import format_table
from repro.obs.trace import NULL_SPAN, Span, Tracer

__all__ = [
    "CQStats",
    "JsonlTraceSink",
    "NULL_SPAN",
    "Span",
    "TeeMetrics",
    "Tracer",
    "counter_value",
    "format_table",
    "parse_prometheus_text",
    "prometheus_text",
    "read_spans",
]
