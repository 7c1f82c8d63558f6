"""One measured E18 run: a single workload in a fresh interpreter.

``run.py`` starts this file as a subprocess (``PYTHONHASHSEED=0``) so
every run begins from the same interpreter state. Two modes:

* ``--trace 0`` - the end-to-end metrics. Set up three times (the median
  is ``setup_s``), warm up, run the *counted pass* under ``cProfile`` at
  a fixed position of the input stream, ``gc.freeze()``, then the timed
  pass: rounds of ``ROUND_CYCLES`` closed-loop cycles plus one log GC,
  until ``--seconds`` have elapsed. Tracing is off throughout.
* ``--trace 1`` - the layer table. Rounds alternate untraced / traced
  (spans installed only for the traced ones), so the tracing overhead is
  measured against interleaved, not earlier, cycles.

Every time is reported *at nominal machine speed*: a small reference
kernel is sampled around every cycle, and a round's measured times are
scaled by nominal / reference (see ``reference`` and the README's noise
study: on the sandbox the same work takes 1.4-2x as long from one
minute to the next, and unscaled medians of identical runs differ by
10-25 %).

The last line of standard output is the contract's result object; the
line before it (``{"info": ...}``) carries what ``--smoke`` and the
result files also want (round count, machine speed, unscaled
throughput, the counted pass's rows and notifications).
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import multiprocessing
import os
import pstats
import statistics
import sys
import time
from typing import Dict, List, NamedTuple, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))
sys.path.insert(0, HERE)

from spans import GC_ROOT, HOOK_COUNTERS, ROOT, SPAN_NAMES, SpanLog  # noqa: E402
from workloads import DELIVERY_TIMEOUT_S, WORKLOADS  # noqa: E402

#: Cycles per round; the program's log GC runs once per round, inside
#: the timed region, so the heap is stationary.
ROUND_CYCLES = 10
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Traced cycles written to ``out/trace-<workload>.json``.
DUMP_CYCLES = 30
#: A typical time of one reference-kernel run on this sandbox. It only
#: fixes the unit: every reported time is "at nominal machine speed",
#: measured time x nominal / reference.
REFERENCE_NOMINAL_S = 0.0016

# layer metric -> the program's public counter(s), summed
COUNTER_METRICS = {
    "dra.delta_rows_read": ("delta_rows_read",),
    "core.cqs_executed": ("cq_refreshes",),
    "core.cqs_skipped": ("executions_skipped",),
    "dra.route_probes": ("predindex_probes",),
    "dra.plan_cache_hits": ("plan_cache_hits",),
    "dra.executions": ("executions",),
    "dra.terms_evaluated": ("terms_evaluated",),
    "dra.kernel_rows": ("kernel_rows",),
    "net.deliveries": ("messages_sent",),
    "cluster.scatters": ("cluster_scatters",),
    "cluster.skipped": ("cluster_scatter_skipped",),
    "cluster.retries": ("cluster_scatter_retries",),
    "cluster.timeouts": ("cluster_scatter_timeouts",),
    "cluster.stale_replies": (
        "cluster_stale_replies",
        "cluster_backend_stale_replies",
    ),
}

class Tally:
    """Operations attempted and failed, per the contract."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(what)


def reference() -> float:
    """Seconds the machine-speed reference kernel takes right now.

    Allocation-heavy on purpose (a dict of tuples and strings, built
    and walked): on the sandbox the same CPU work takes 1.4-2.1x as long
    from one minute to the next, and a kernel that allocates tracks how
    the program slows down where a pure arithmetic loop does not (see
    README, noise study). Cyclic GC is off inside it so that the sample
    never pays for a collection of the program's heap.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    table = {}
    for i in range(6000):
        table[i] = (i, str(i), i * 3)
    total = 0
    for value in table.values():
        total += value[2]
    elapsed = time.perf_counter() - start
    if was_enabled:
        gc.enable()
    return elapsed


def speed(samples: List[float]) -> float:
    """Machine speed over ``samples`` relative to nominal (1.0)."""
    return REFERENCE_NOMINAL_S / statistics.mean(samples)


class Round(NamedTuple):
    """``ROUND_CYCLES`` cycles plus one log GC. ``wall_s`` and
    ``latencies_s`` are at nominal machine speed: measured time times
    the round's ``speed``."""

    wall_s: float
    rows: int
    notifications: int
    pruned: int
    latencies_s: List[float]
    speed: float


def run_cycle(workload, tally: Tally) -> Tuple[int, int, float]:
    """One cycle; a raise or a delivery timeout is a failed operation
    and reads as the worst latency."""
    tally.attempted += 1
    try:
        return workload.cycle()
    except Exception as exc:  # the run must report the failure, not die
        tally.fail(f"cycle: {type(exc).__name__}: {exc}")
        return 0, 0, DELIVERY_TIMEOUT_S


def run_round(workload, tally: Tally, log: Optional[SpanLog] = None) -> Round:
    """One round, the reference kernel sampled around every cycle
    (outside the measured time and outside every span). With ``log``,
    each cycle runs under a root span; the GC belongs to the round, not
    to a cycle, so it gets a root of its own."""
    wall = 0.0
    rows = notes = 0
    latencies = []
    samples = [reference()]
    for _ in range(ROUND_CYCLES):
        start = time.perf_counter()
        root = log.begin_cycle() if log else None
        cycle_rows, cycle_notes, latency = run_cycle(workload, tally)
        if log:
            log.end_cycle(root)
        wall += time.perf_counter() - start
        samples.append(reference())
        rows += cycle_rows
        notes += cycle_notes
        latencies.append(latency)
    start = time.perf_counter()
    root = log.open(GC_ROOT) if log else None
    pruned = workload.collect_garbage()
    if log:
        log.close(root)
    wall += time.perf_counter() - start
    factor = speed(samples)
    return Round(
        wall * factor, rows, notes, pruned, [s * factor for s in latencies], factor
    )


def percentile(samples: List[float], p: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(len(ordered) * p))]


def peak_rss_mib() -> float:
    """``VmHWM`` of this process plus its live children, in MiB."""
    total_kib = 0
    pids = [os.getpid()] + [p.pid for p in multiprocessing.active_children()]
    for pid in pids:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    total_kib += int(line.split()[1])
    return total_kib / 1024.0


def check_oracle(workload, tally: Tally) -> None:
    checked, mismatched = workload.oracle()
    tally.attempted += checked
    for _ in range(mismatched):
        tally.fail("oracle: maintained result != full re-evaluation")


def build(name: str, seed: int, scale: str, repeats: int):
    """Set the workload up ``repeats`` times; keep the last one.
    Returns it with the median set-up time at nominal machine speed."""
    times = []
    workload = None
    for _ in range(repeats):
        if workload is not None:
            workload.teardown()
            workload = None
            gc.collect()
        samples = [reference() for _ in range(3)]
        start = time.perf_counter()
        workload = WORKLOADS[name](seed, scale)
        workload.setup()
        wall = time.perf_counter() - start
        samples += [reference() for _ in range(3)]
        times.append(wall * speed(samples))
    return workload, statistics.median(times)


def measure(args) -> Tuple[Dict[str, dict], Dict[str, object], Tally]:
    tally = Tally()
    workload, setup_s = build(args.workload, args.seed, args.scale, SETUP_REPEATS)
    try:
        for _ in range(workload.warmup_cycles):
            run_cycle(workload, tally)
        workload.collect_garbage()

        # Counted pass: fixed cycles at a fixed stream position, so the
        # count of Python-level calls (builtins=False: C calls are not
        # counted, which also halves the profiler's cost) is a function
        # of the seed and the code alone.
        profile = cProfile.Profile(builtins=False)
        counted_rows = counted_notes = 0
        profile.enable()
        for _ in range(workload.counted_cycles):
            rows, notes, _latency = run_cycle(workload, tally)
            counted_rows += rows
            counted_notes += notes
        profile.disable()
        total_calls = pstats.Stats(profile).total_calls
        del profile

        gc.collect()
        gc.freeze()
        rounds: List[Round] = []
        deadline = time.perf_counter() + args.seconds
        while not rounds or time.perf_counter() < deadline:
            rounds.append(run_round(workload, tally))
        rss = peak_rss_mib()
        check_oracle(workload, tally)
    finally:
        workload.teardown()

    latencies = [s for r in rounds for s in r.latencies_s]
    updates_per_s = statistics.median(r.rows / r.wall_s for r in rounds)
    # Deliveries arrive in bursts, so a per-round median of them is far
    # noisier than the rate it rides on: take the pass's deliveries per
    # update (seed-determined) times the median update rate.
    timed_rows = sum(r.rows for r in rounds)
    timed_notes = sum(r.notifications for r in rounds)
    metrics = {
        "setup_s": (setup_s, "s"),
        "updates_per_s": (updates_per_s, "rows/s"),
        "notifications_per_s": (updates_per_s * timed_notes / timed_rows, "1/s"),
        "commit_to_notify_p50_ms": (percentile(latencies, 0.5) * 1e3, "ms"),
        "commit_to_notify_p90_ms": (percentile(latencies, 0.9) * 1e3, "ms"),
        "peak_rss_mb": (rss, "MiB"),
        "driver_kcalls_per_update": (
            total_calls / 1e3 / max(counted_rows, 1), "kcalls/row",
        ),
    }
    info = {
        "rounds": len(rounds),
        "latency_samples": len(latencies),
        "machine_speed": statistics.median(r.speed for r in rounds),
        "raw_updates_per_s": statistics.median(
            r.rows / r.wall_s * r.speed for r in rounds
        ),
        "counted_calls": total_calls,
        "counted_rows": counted_rows,
        "counted_notifications": counted_notes,
        "timed_rows": timed_rows,
        "timed_notifications": timed_notes,
    }
    return _shape(metrics), info, tally


def trace(args) -> Tuple[Dict[str, dict], Dict[str, object], Tally]:
    tally = Tally()
    workload, _setup_s = build(args.workload, args.seed, args.scale, 1)
    log = SpanLog()
    try:
        for _ in range(workload.warmup_cycles):
            run_cycle(workload, tally)
        workload.collect_garbage()
        gc.collect()
        gc.freeze()
        untraced: List[float] = []
        traced: List[Round] = []
        counters: Dict[str, int] = {}
        deadline = time.perf_counter() + args.seconds
        while not traced or time.perf_counter() < deadline:
            untraced.append(run_round(workload, tally).wall_s)
            before = workload.counters()
            log.install()
            try:
                traced.append(run_round(workload, tally, log))
            finally:
                log.uninstall()
            for key, value in workload.counters().items():
                counters[key] = counters.get(key, 0) + value - before.get(key, 0)
        log_rows = sum(len(table.log) for table in workload.db.tables())
        check_oracle(workload, tally)
    finally:
        workload.teardown()

    cycles = log.cycles
    # Spans of traced round i carry cycle ids i*ROUND_CYCLES.. ; scale
    # each by its round's machine speed, like the end-to-end times.
    self_ms = log.self_ms_per_cycle(
        [r.speed for r in traced for _ in range(ROUND_CYCLES)]
    )
    # The GC root's own self time is driver bookkeeping around the call.
    self_ms[ROOT] = self_ms.get(ROOT, 0.0) + self_ms.pop(GC_ROOT, 0.0)
    values: Dict[str, Tuple[float, str]] = {}
    for name in SPAN_NAMES:
        values[f"{name}_ms"] = (self_ms.get(name, 0.0), "ms")
    for metric, names in COUNTER_METRICS.items():
        values[metric] = (sum(counters.get(n, 0) for n in names) / cycles, "count")
    for name in HOOK_COUNTERS:
        unit = "B" if name == "net.bytes_out" else "count"
        values[name] = (log.counts.get(name, 0) / cycles, unit)
    values["net.frames_out"] = (
        sum(1 for span in log.spans if span[0] == "net.encode") / cycles, "count",
    )
    values["storage.gc_rows"] = (sum(r.pruned for r in traced) / cycles, "count")
    values["storage.log_rows"] = (float(log_rows), "count")
    rtt_ms, skew = log.shard_rtt()
    values["cluster.shard_rtt_ms"] = (rtt_ms, "ms")
    values["cluster.shard_skew"] = (skew, "ratio")
    # Every instant of a traced round is in exactly one span, so this
    # sum is the traced rounds' wall time per cycle: the whole that the
    # layer self times are parts of.
    values["obs.traced_cycle_ms"] = (sum(self_ms.values()), "ms")
    values["obs.trace_overhead_pct"] = (
        (
            statistics.median(r.wall_s for r in traced) / statistics.median(untraced)
            - 1.0
        )
        * 100.0,
        "%",
    )

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{args.workload}.json")
    with open(path, "w") as fh:
        json.dump(
            {
                "workload": args.workload,
                "seed": args.seed,
                "self_ms_per_cycle": self_ms,
                **log.dump(DUMP_CYCLES),
            },
            fh,
        )
    info = {
        "traced_cycles": cycles,
        "untraced_cycle_ms": statistics.median(untraced) * 1e3 / ROUND_CYCLES,
        "machine_speed": statistics.median(r.speed for r in traced),
        "trace_file": os.path.relpath(path),
        "missing_targets": log.missing,
    }
    return _shape(values), info, tally


def _shape(values: Dict[str, Tuple[float, str]]) -> Dict[str, dict]:
    return {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in values.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)

    metrics, info, tally = (trace if args.trace else measure)(args)
    info["errors"] = tally.errors
    print(json.dumps({"info": info}))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":  # ProcessBackend spawns: children re-import this
    sys.exit(main())
