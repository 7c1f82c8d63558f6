"""Outside-in spans for the E18 layer table.

The traced pass times calls *into* each layer's public functions from
the benchmark's own files: :func:`install` rebinds every name in
``TARGETS`` — at the module that *imports* it, because a ``from x
import f`` binding is what the caller actually resolves — to a wrapper
that opens a span, calls through, and closes it. :func:`uninstall`
restores the originals, so the timed pass runs unwrapped code.

A span is ``[name, start, end, parent, cycle, self_s]``. ``parent`` is
the innermost span open when this one opened (``-1`` for a cycle's
root). ``self_s`` is *exclusive* time: every instant of a traced cycle
is charged to exactly one span, the innermost one open at that instant.
For synchronous code that equals "duration minus children". For the
asyncio layers a suspended coroutine's span stays open while other
tasks run, so it is charged only the time no later-opened span claims —
the event loop's own dispatch and select time while it waits. Either
way the self times of one cycle sum to the cycle's wall time exactly;
what no layer claims is the root span's self time (the driver: input
generation, callbacks, the delivery wait loop).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

ROOT = "driver.self"
GC_ROOT = "driver.gc"


def _len_result(args, result) -> int:
    return len(result)


def _len_values(args, result) -> int:
    return sum(len(delta) for delta in result.values())


def _len_first_arg(args, result) -> int:
    return len(args[0])


# (module, dotted attribute, span name[, counter name, count(args, result)])
TARGETS: Tuple[tuple, ...] = (
    ("repro.storage.transactions", "Transaction.commit", "storage.commit"),
    ("repro.core.gc", "ActiveDeltaZones.collect", "storage.gc"),
    ("repro.storage.update_log", "UpdateLog.since", "delta.capture", "delta.rows_in", _len_result),
    ("repro.core.scheduler", "delta_since", "delta.capture", "delta.rows_out", _len_result),
    ("repro.core.scheduler", "DeltaBatchCache.batch", "delta.capture"),
    ("repro.core.manager", "deltas_since", "delta.capture", "delta.rows_out", _len_values),
    ("repro.net.server", "deltas_since", "delta.capture", "delta.rows_out", _len_values),
    ("repro.cluster.router", "deltas_since", "delta.capture", "delta.rows_out", _len_values),
    ("repro.dra.algorithm", "deltas_since", "delta.capture", "delta.rows_out", _len_values),
    ("repro.storage.table", "Table.notify", "core.observe"),
    ("repro.core.manager", "CQManager.poll", "core.poll"),
    ("repro.core.manager", "CQManager.register", "core.register"),
    ("repro.core.manager", "CQManager.deregister", "core.deregister"),
    ("repro.dra.predindex", "PredicateIndex.match_batch", "dra.route", "dra.route_matches", _len_result),
    ("repro.dra.predindex", "PredicateIndex.add", "dra.index_add"),
    ("repro.dra.predindex", "PredicateIndex.remove", "dra.index_remove"),
    ("repro.dra.prepared", "PlanCache.get", "dra.prepare"),
    ("repro.dra.prepared", "prepare_cq", "dra.prepare"),
    ("repro.dra.algorithm", "prepare_cq", "dra.prepare"),
    ("repro.core.manager", "dra_execute", "dra.execute"),
    ("repro.net.server", "dra_execute", "dra.execute"),
    ("repro.dra.aggregates", "dra_execute", "dra.execute"),
    ("repro.dra.algorithm", "to_delta", "dra.assemble"),
    ("repro.dra.aggregates", "DifferentialAggregate.update", "dra.aggregate"),
    ("repro.net.server", "CQServer.refresh_all", "net.refresh"),
    (
        "repro.net.server",
        "relation_digest",
        "net.digest",
        "net.digest_rows",
        _len_first_arg,
    ),
    (
        "repro.net.client",
        "relation_digest",
        "net.digest",
        "net.digest_rows",
        _len_first_arg,
    ),
    ("repro.net.transport", "encode_frame", "net.encode", "net.bytes_out", _len_result),
    ("repro.cluster.proc", "encode_payload", "net.encode", "net.bytes_out", _len_result),
    ("repro.net.transport", "decode_payload", "net.decode"),
    ("repro.cluster.proc", "decode_payload", "net.decode"),
    ("repro.net.transport", "FrameConnection.send", "net.send_wait"),
    ("repro.net.client", "CQSession._handle", "net.client_apply"),
    ("repro.cluster.router", "ClusterRouter.refresh", "cluster.plan"),
    ("repro.cluster.dispatch", "CycleEngine.run", "cluster.engine_wait"),
    ("repro.cluster.router", "ClusterRouter._merge_and_notify", "cluster.merge"),
)

#: Every span name above; a layer's metric is ``<span name>_ms``.
SPAN_NAMES = sorted({target[2] for target in TARGETS} | {ROOT})
#: Every counter a wrapper above fills.
HOOK_COUNTERS = sorted({target[3] for target in TARGETS if len(target) > 3})


class SpanLog:
    """In-memory span store with exclusive-time accounting."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, int] = {}
        self.cycles = 0
        #: per traced cycle: {host: [posted_at, replied_at]}
        self.rtt: List[Dict[int, List[float]]] = []
        #: targets that no longer exist in the program (renamed or
        #: removed by a later change); their layer reads 0.
        self.missing: List[str] = []
        self._open: List[int] = []
        self._mark = 0.0
        self._installed: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _charge(self, now: float) -> None:
        if self._open:
            self.spans[self._open[-1]][5] += now - self._mark
        self._mark = now

    def open(self, name: str) -> int:
        now = time.perf_counter()
        self._charge(now)
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, now, now, parent, self.cycles, 0.0])
        self._open.append(index)
        return index

    def close(self, index: int) -> None:
        now = time.perf_counter()
        self._charge(now)
        self.spans[index][2] = now
        if self._open and self._open[-1] == index:
            self._open.pop()
        elif index in self._open:  # a coroutine finishing out of order
            self._open.remove(index)

    def begin_cycle(self) -> int:
        self.rtt.append({})
        return self.open(ROOT)

    def end_cycle(self, index: int) -> None:
        self.close(index)
        self.cycles += 1

    def add(self, counter: str, amount: int) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn: Callable, name: str, counter=None, count=None):
        log = self
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                index = log.open(name)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    log.close(index)

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = log.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                log.close(index)
            if counter is not None:
                log.add(counter, count(args, result))
            return result

        return traced

    def _rebind(self, owner: object, attr: str, wrapper: object) -> None:
        self._installed.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Rebind every target to its span wrapper."""
        if self._installed:
            raise RuntimeError("spans are already installed")
        for target in TARGETS:
            module_name, path, name = target[:3]
            owner = _resolve_owner(module_name, path)
            attr = path.rsplit(".", 1)[-1]
            if owner is None or attr not in vars(owner):
                label = f"{module_name}:{path}"
                if label not in self.missing:
                    self.missing.append(label)
                    print(f"e18 spans: no such target {label}", file=sys.stderr)
                continue
            self._rebind(owner, attr, self._wrap(vars(owner)[attr], *target[2:]))
        backend = _resolve_owner("repro.cluster.proc", "ProcessBackend.post")
        if backend is not None:
            self._install_rtt(backend)

    def _install_rtt(self, backend: type) -> None:
        """``ProcessBackend.post`` / ``.collect`` are not spans (the wait
        is already inside cluster.engine_wait); they are stamped to pair
        each frame with its reply: the per-host round trip of a cycle."""
        log = self
        post, collect = backend.post, backend.collect

        @functools.wraps(post)
        def stamped_post(self, shard_id, message):
            if log.rtt:
                now = time.perf_counter()
                log.rtt[-1].setdefault(shard_id, [now, now])
            return post(self, shard_id, message)

        @functools.wraps(collect)
        def stamped_collect(self, timeout):
            out = collect(self, timeout)
            if log.rtt and out:
                now = time.perf_counter()
                for shard_id, _seq, _payload in out:
                    stamp = log.rtt[-1].get(shard_id)
                    if stamp is not None:
                        stamp[1] = now
            return out

        self._rebind(backend, "post", stamped_post)
        self._rebind(backend, "collect", stamped_collect)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- reporting ---------------------------------------------------------

    def self_ms_per_cycle(self, speeds: List[float]) -> Dict[str, float]:
        """Exclusive milliseconds per traced cycle, by span name, each
        span's time scaled by the machine speed of its cycle."""
        totals: Dict[str, float] = {}
        last = len(speeds) - 1
        for name, _start, _end, _parent, cycle, self_s in self.spans:
            totals[name] = totals.get(name, 0.0) + self_s * speeds[min(cycle, last)]
        cycles = max(self.cycles, 1)
        return {name: total * 1e3 / cycles for name, total in totals.items()}

    def shard_rtt(self) -> Tuple[float, float]:
        """(mean over cycles of the slowest host's round trip in ms,
        mean over cycles of slowest ÷ mean host round trip)."""
        worst, skew = [], []
        for stamps in self.rtt:
            trips = [replied - posted for posted, replied in stamps.values()]
            if not trips or min(trips) <= 0.0:
                continue
            worst.append(max(trips) * 1e3)
            skew.append(max(trips) / (sum(trips) / len(trips)))
        if not worst:
            return 0.0, 0.0
        return sum(worst) / len(worst), sum(skew) / len(skew)

    def dump(self, max_cycles: int) -> Dict[str, object]:
        """The first ``max_cycles`` cycles' spans, JSON-ready."""
        return {
            "fields": ["name", "start_s", "end_s", "parent", "cycle", "self_s"],
            "cycles": min(self.cycles, max_cycles),
            "missing_targets": self.missing,
            "spans": [span for span in self.spans if span[4] < max_cycles],
        }


def _resolve_owner(module_name: str, path: str) -> Optional[object]:
    """The module or class whose namespace holds the last path part."""
    try:
        owner: object = importlib.import_module(module_name)
    except ImportError:
        return None
    for part in path.split(".")[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return owner
