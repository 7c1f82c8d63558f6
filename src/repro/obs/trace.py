"""Lightweight structured tracing for the refresh pipeline.

The paper's cost model is about work *not* done; the trace layer is
about *where* the remaining work goes. A :class:`Tracer` produces
:class:`Span` records around each stage of a refresh — trigger
evaluation, delta consolidation, DRA term evaluation, result
apply/notify, wire encode/send — each carrying per-CQ and per-table
attribution plus the operation counters charged during the stage.

Design constraints (all deliberate):

* dependency-free — no OpenTelemetry; a span is a plain dict record;
* deterministic in tests — the clock is injectable (any ``() ->
  float`` seconds source) and sampling is seeded, so traced test runs
  never read the wall clock and never flake on sampling;
* cheap when off — a disabled tracer hands out one shared no-op span,
  and an unsampled trace creates spans that record nothing;
* thread-aware — each thread keeps its own span stack, so threads
  tracing at once (the cluster's ``LocalBackend`` pool, user threads)
  nest their spans under their own roots instead of interleaving into
  one trace.

Sampling is decided once per *trace* (at the root span) and inherited
by every child, so a sampled refresh is always complete.
"""

from __future__ import annotations

import itertools
import random
import threading
import time
from typing import Any, Callable, Dict, List, Optional


class _NullSpan:
    """The shared do-nothing span a disabled tracer hands out."""

    __slots__ = ()

    sampled = False
    name = None
    attrs: Dict[str, Any] = {}
    duration_us = None

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def __repr__(self) -> str:
        return "NullSpan()"


NULL_SPAN = _NullSpan()


class Span:
    """One timed, attributed stage of a trace.

    Use as a context manager: entering stamps the start time and makes
    this span the current parent on the thread that created it; exiting
    stamps the end time, restores the parent, and (when sampled) records
    the span with the tracer. ``set`` attaches attributes (counters, row
    counts, CQ names); on an unsampled span it is a no-op.
    """

    __slots__ = (
        "tracer",
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "sampled",
        "start",
        "end",
        "attrs",
        "_stack",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        trace_id: int,
        span_id: int,
        parent_id: Optional[int],
        sampled: bool,
        attrs: Dict[str, Any],
        stack: List["Span"],
    ):
        self.tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.sampled = sampled
        self.start: Optional[float] = None
        self.end: Optional[float] = None
        # Kept, not copied: :meth:`Tracer.span` hands over its fresh
        # ``**attrs`` dict.
        self.attrs: Dict[str, Any] = attrs if sampled else {}
        self._stack = stack  # the creating thread's open spans

    def set(self, **attrs: Any) -> "Span":
        if self.sampled:
            self.attrs.update(attrs)
        return self

    @property
    def duration_us(self) -> Optional[float]:
        if self.start is None or self.end is None:
            return None
        return (self.end - self.start) * 1e6

    def to_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "name": self.name,
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "start": self.start,
            "dur_us": self.duration_us,
        }
        record.update(self.attrs)
        return record

    def __enter__(self) -> "Span":
        self.start = self.tracer.clock()
        self._stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer = self.tracer
        self.end = tracer.clock()
        stack = self._stack
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:  # unbalanced exit; keep the stack coherent
            stack.remove(self)
        if not self.sampled:
            return False
        if exc is not None:
            self.attrs.setdefault("error", repr(exc))
        # Retained as is: its record is built when read.
        with tracer._lock:
            if len(tracer._spans) < tracer.max_spans:
                tracer._spans.append(self)
            else:
                tracer.dropped += 1
        if tracer.sink is not None:
            tracer.sink.write(self.to_dict())
        return False

    def __repr__(self) -> str:
        return f"Span({self.name!r}, trace={self.trace_id}, attrs={self.attrs})"


class Tracer:
    """Creates, samples, and retains spans.

    ``sample_rate`` is the seeded per-trace sampling probability (1.0
    traces everything, 0.0 nothing); ``clock`` is any monotone
    ``() -> float`` seconds source (defaults to ``time.perf_counter``);
    ``sink`` is an optional object with ``write(dict)`` — e.g. a
    :class:`~repro.obs.sink.JsonlTraceSink` — that receives every
    finished sampled span. Finished spans are also retained in memory
    (bounded by ``max_spans``; overflow is counted in ``dropped``) for
    tests and ad-hoc inspection.
    """

    def __init__(
        self,
        sample_rate: float = 1.0,
        seed: int = 0,
        clock: Optional[Callable[[], float]] = None,
        sink: Optional[Any] = None,
        max_spans: int = 10_000,
        enabled: bool = True,
    ):
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(
                f"sample_rate must be in [0, 1], got {sample_rate}"
            )
        self.sample_rate = sample_rate
        self.clock = clock if clock is not None else time.perf_counter
        self.sink = sink
        self.max_spans = max_spans
        self.enabled = enabled
        self.dropped = 0
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._spans: List[Span] = []
        self._local = threading.local()

    # -- span creation -----------------------------------------------------

    def span(self, name: str, **attrs: Any) -> Any:
        """A new span, child of this thread's current span (or a new
        root, with a fresh sampling decision, when there is none)."""
        if not self.enabled:
            return NULL_SPAN
        try:
            stack = self._local.stack
        except AttributeError:
            stack = self._stack()
        # (``next`` on a count is atomic: ids need no lock round-trip)
        span_id = next(self._ids)
        if stack:
            parent = stack[-1]
            trace_id, parent_id = parent.trace_id, parent.span_id
            sampled = parent.sampled
        else:
            trace_id, parent_id = span_id, None
            sampled = self.sample_rate >= 1.0
            if not sampled:
                with self._lock:  # (one seeded stream of decisions)
                    sampled = self._rng.random() < self.sample_rate
        return Span(self, name, trace_id, span_id, parent_id, sampled, attrs, stack)

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    # -- retained spans ----------------------------------------------------

    def spans(self, name: Optional[str] = None) -> List[Dict[str, Any]]:
        """Finished sampled spans' records (optionally filtered by name)."""
        with self._lock:
            spans = list(self._spans)
        return [s.to_dict() for s in spans if name is None or s.name == name]

    def drain(self) -> List[Dict[str, Any]]:
        """Remove and return all retained spans' records."""
        with self._lock:
            spans = self._spans
            self._spans = []
        return [s.to_dict() for s in spans]

    def reset(self) -> None:
        with self._lock:
            self._spans = []
            self.dropped = 0

    # -- internals ---------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def __repr__(self) -> str:
        state = "on" if self.enabled else "off"
        return (
            f"Tracer({state}, sample_rate={self.sample_rate}, "
            f"{len(self._spans)} spans)"
        )
