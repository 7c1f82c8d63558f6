"""E18: the repo's commit -> notify benchmark (see README.md beside this file).

    python3 benchmarks/e18/run.py --workload W --seed N --seconds S --trace 0|1
        one run of one workload; the last line of standard output is
        {"correct", "attempted", "failed", "metrics"} (BENCHMARK.json's
        end_to_end metrics with --trace 0, its per_layer metrics with
        --trace 1, which also writes out/trace-W.json)

    python3 benchmarks/e18/run.py [--runs N] [--seed BASE] [--trace] [--out FILE]
        every workload, N runs each on seeds BASE..BASE+N-1, interleaved
        round-robin so all workloads sample the same stretch of machine
        state; prints medians, quartiles and spread, writes a result file

    python3 benchmarks/e18/run.py --compare A.json B.json
        per workload x metric: both medians and quartiles, the ratio with
        its base, the bound, and better / same / worse / unresolved

    python3 benchmarks/e18/run.py --smoke
        tiny sizes, under a minute: every metric of BENCHMARK.json is
        emitted with its unit, the oracle passes, the counted pass repeats
        exactly

Each run happens in a fresh ``worker.py`` subprocess.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKER = os.path.join(HERE, "worker.py")
#: The contract allows 180 s per run; leave room to report a hang.
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark could not produce a result."""


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_worker(
    workload: str, seed: int, seconds: float, trace: int, scale: str = "full"
) -> Tuple[dict, dict, str]:
    """One worker run -> (result object, info object, raw stdout)."""
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        raise BenchError(f"no program to measure: {ROOT}/src/repro is missing")
    env = dict(os.environ, PYTHONHASHSEED="0")
    command = [
        sys.executable, WORKER,
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--scale", scale,
    ]  # fmt: skip
    try:
        done = subprocess.run(
            command, env=env, stdout=subprocess.PIPE, text=True,
            timeout=WORKER_TIMEOUT_S,
        )  # fmt: skip
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: no result after {WORKER_TIMEOUT_S}s") from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise BenchError(f"{workload}: worker exited with code {done.returncode}")
    return json.loads(lines[-1]), json.loads(lines[-2])["info"], done.stdout


# -- statistics -----------------------------------------------------------


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile), as the driver takes them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: List[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else math.inf


def by_workload(runs: List[dict], trace: int) -> Dict[str, Dict[str, List[float]]]:
    """workload -> metric -> the values of its runs, in run order."""
    table: Dict[str, Dict[str, List[float]]] = {}
    for run in runs:
        if run["trace"] != trace:
            continue
        metrics = table.setdefault(run["workload"], {})
        for name, cell in run["metrics"].items():
            metrics.setdefault(name, []).append(cell["value"])
    return table


def summarize(runs: List[dict], trace: int) -> Dict[str, Dict[str, dict]]:
    return {
        workload: {
            name: dict(
                zip(("q1", "median", "q3"), quartiles(values)),
                spread=spread(values),
                runs=len(values),
            )
            for name, values in metrics.items()
        }
        for workload, metrics in by_workload(runs, trace).items()
    }


# -- the suite ------------------------------------------------------------


def git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )  # fmt: skip
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def suite(args, spec: dict) -> int:
    names = [w["name"] for w in spec["workloads"]]
    trace = int(bool(args.trace))
    runs = []
    for i in range(args.runs):
        for name in names:
            seed = args.seed + i
            print(f"e18: {name} seed {seed} trace {trace}", file=sys.stderr)
            result, info, _raw = run_worker(name, seed, args.seconds, trace)
            runs.append(dict(workload=name, seed=seed, trace=trace, info=info, **result))
    summary = summarize(runs, trace)
    record = {
        "benchmark": "e18",
        "meta": {
            "git_sha": git_sha(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "seed": args.seed,
            "runs": args.runs,
            "seconds": args.seconds,
        },
        "summary": summary,
        "runs": runs,
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name in names:
        print(f"\n{name}  ({args.runs} runs, seeds {args.seed}..{args.seed + args.runs - 1})")
        print(f"  {'metric':28s} {'q1':>12s} {'median':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for metric, row in summary[name].items():
            bound = f"{bounds[metric]:.0%}" if metric in bounds else ""
            print(
                f"  {metric:28s} {row['q1']:12.4f} {row['median']:12.4f} "
                f"{row['q3']:12.4f} {row['spread']:8.2%} {bound:>6s}"
            )
    failed = sum(run["failed"] for run in runs)
    print(f"\noperations: {sum(run['attempted'] for run in runs)} attempted, {failed} failed")
    return 1 if failed else 0


# -- compare --------------------------------------------------------------


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    """The rule of the choosing-metrics guide, sections 6 and 8.

    Where either side's spread is wider than the bound the metric is
    ``unresolved``, unless every run of one side beats every run of the
    other. Otherwise B is ``worse`` when its median is worse than A's
    by more than the bound, ``better`` when the medians differ the good
    way by more than A's own interquartile distance, else ``same``.
    """
    sign = 1.0 if better == "lower" else -1.0  # orient: bigger is worse
    a = [sign * x for x in a]
    b = [sign * x for x in b]
    a_q1, a_med, a_q3 = quartiles(a)
    b_med = statistics.median(b)
    if max(spread(a), spread(b)) > bound:
        if min(b) > max(a):
            return "worse"
        if max(b) < min(a):
            return "better"
        return "unresolved"
    if (b_med - a_med) / abs(a_med) > bound:
        return "worse"
    if a_med - b_med > a_q3 - a_q1:
        return "better"
    return "same"


def compare(path_a: str, path_b: str, spec: dict) -> int:
    files = []
    for path in (path_a, path_b):
        with open(path) as fh:
            files.append(json.load(fh))
    a_all, b_all = (by_workload(f["runs"], 0) for f in files)
    print(f"A = {path_a} ({files[0]['meta']['git_sha'][:12]})")
    print(f"B = {path_b} ({files[1]['meta']['git_sha'][:12]})")
    worse = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in a_all or workload not in b_all:
            continue
        print(f"\n{workload}")
        print(
            f"  {'metric':26s} {'A q1 / median / q3':>34s} {'B q1 / median / q3':>34s} "
            f"{'B/A':>7s} {'bound':>6s}  verdict"
        )
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, b = a_all[workload][name], b_all[workload][name]
            if min(len(a), len(b)) < 3:
                raise BenchError(f"{workload} {name}: compare needs >= 3 runs a side")
            qa, qb = quartiles(a), quartiles(b)
            result = verdict(a, b, metric["better"], metric["bound"])
            worse += result == "worse"
            print(
                f"  {name:26s} "
                f"{qa[0]:10.3f} /{qa[1]:10.3f} /{qa[2]:10.3f} "
                f"{qb[0]:10.3f} /{qb[1]:10.3f} /{qb[2]:10.3f} "
                f"{qb[1] / qa[1]:7.3f} {metric['bound']:6.0%}  {result}"
            )
    print("\nB/A is the ratio of medians; its base is A's median.")
    return 1 if worse else 0


# -- smoke ----------------------------------------------------------------


def smoke(spec: dict) -> int:
    """Tiny sizes: the contract's shape, the oracle, exact repeatability."""
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    signed = {"obs.trace_overhead_pct"}  # noise can make it negative
    problems: List[str] = []
    counted: Dict[str, dict] = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            result, info, _raw = run_worker(workload, 1, 1.0, trace, "smoke")
            got = {n: c["unit"] for n, c in result["metrics"].items()}
            if got != expected[trace]:
                odd = set(got.items()) ^ set(expected[trace].items())
                problems.append(f"{workload} trace {trace}: metrics differ: {sorted(odd)}")
            for name, cell in result["metrics"].items():
                value = cell["value"]
                floor_ok = value > 0 if trace == 0 else (value >= 0 or name in signed)
                if not (math.isfinite(value) and floor_ok):
                    problems.append(f"{workload} {name} = {value}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace {trace}: {info['errors']}")
            if trace == 0:
                counted[workload] = info
            print(f"smoke: {workload} trace {trace} ok", file=sys.stderr)
    # The in-process workloads must repeat call for call; every workload
    # must repeat its notifications-per-update constant.
    for workload, first in counted.items():
        _result, again, _raw = run_worker(workload, 1, 1.0, 0, "smoke")
        for key in ("counted_rows", "counted_notifications"):
            if again[key] != first[key]:
                problems.append(f"{workload}: {key} {first[key]} then {again[key]}")
        if workload in ("join_agg_local", "manager_churn"):
            if again["counted_calls"] != first["counted_calls"]:
                problems.append(
                    f"{workload}: counted pass made {first['counted_calls']} "
                    f"calls, then {again['counted_calls']}"
                )
    for problem in problems:
        print(f"smoke: FAIL {problem}")
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


# -- entry ----------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", help="run this workload once (contract mode)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--runs", type=int, default=1, help="runs per workload (suite mode)")
    parser.add_argument("--out", help="write the suite's result file here")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        if args.seconds is None:
            args.seconds = float(spec["run_seconds"])
        if args.compare:
            return compare(args.compare[0], args.compare[1], spec)
        if args.smoke:
            return smoke(spec)
        if args.workload is None:
            return suite(args, spec)
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            raise BenchError(f"unknown workload {args.workload!r}")
        _result, _info, raw = run_worker(
            args.workload, args.seed, args.seconds, args.trace
        )
        sys.stdout.write(raw)
        return 0
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"e18: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # worker.py's ProcessBackend spawns
    sys.exit(main())
