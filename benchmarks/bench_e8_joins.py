"""E8 — Algorithm 1 steps 1-2: the truth table has 2^k − 1 terms in the
number k of *changed* operand relations, independent of the query's
total width n.

A 4-way join chain r1 ⋈ r2 ⋈ r3 ⋈ r4; the update batch touches k of
the four tables. Claim shape: term count doubles(+1) with each
additional changed relation, and refresh cost tracks delta volume, not
the number of operands.

Run ``python benchmarks/bench_e8_joins.py --smoke`` for a fast
self-check of the prepared-plan layer (used by CI): on the small-delta
join workload it asserts that refreshes off a cached
:class:`~repro.dra.prepared.PreparedCQ` make **zero**
``plan_predicate`` calls after the one-time compile and run ≥2x faster
per refresh than the plan-every-time path, and writes the measurements
to ``BENCH_e8.json``.
"""

import sys

import pytest

from repro import Database
from repro.delta.capture import deltas_since
from repro.dra.algorithm import dra_execute
from repro.dra.prepared import prepare_cq
from repro.metrics import Metrics
from repro.relational import AttributeType, parse_query

N_TABLES = 4
ROWS_PER_TABLE = 500
UPDATES_PER_CHANGED_TABLE = 10

QUERY = parse_query(
    "SELECT r1.v1, r4.v4 FROM r1, r2, r3, r4 "
    "WHERE r1.k = r2.k AND r2.k = r3.k AND r3.k = r4.k"
)


def build(changed_count, seed=81):
    import random

    rng = random.Random(seed)
    db = Database()
    tables = []
    for i in range(1, N_TABLES + 1):
        table = db.create_table(
            f"r{i}",
            [("k", AttributeType.INT), (f"v{i}", AttributeType.INT)],
            indexes=[("k",)],
        )
        table.insert_many(
            (j % (ROWS_PER_TABLE // 2), rng.randrange(1000))
            for j in range(ROWS_PER_TABLE)
        )
        tables.append(table)
    ts = db.now()
    for table in tables[:changed_count]:
        with db.begin() as txn:
            for __ in range(UPDATES_PER_CHANGED_TABLE):
                txn.insert_into(
                    table, (rng.randrange(ROWS_PER_TABLE // 2), rng.randrange(1000))
                )
    deltas = deltas_since(tables, ts)
    return db, deltas


@pytest.fixture(scope="module")
def setups():
    return {k: build(k) for k in range(1, N_TABLES + 1)}


def test_term_count_is_exponential_in_changed_only(setups, print_table, benchmark):
    rows = []
    for k in range(1, N_TABLES + 1):
        db, deltas = setups[k]
        metrics = Metrics()
        result = dra_execute(QUERY, db, deltas=deltas, ts=9, metrics=metrics)
        assert result.terms_evaluated == 2**k - 1
        assert len(result.changed_aliases) == k
        rows.append(
            {
                "changed_tables_k": k,
                "terms (2^k-1)": result.terms_evaluated,
                "delta_rows_read": metrics[Metrics.DELTA_ROWS_READ],
                "index_probes": metrics[Metrics.INDEX_PROBES],
                "base_rows_scanned": metrics[Metrics.ROWS_SCANNED],
            }
        )
    print_table(rows, title="E8: truth-table growth in a 4-way join")
    # Base tables are probed through indexes, never scanned.
    db, deltas = setups[N_TABLES]
    metrics = Metrics()
    dra_execute(QUERY, db, deltas=deltas, ts=9, metrics=metrics)
    assert metrics[Metrics.ROWS_SCANNED] == 0
    benchmark(lambda: dra_execute(QUERY, db, deltas=deltas, ts=9))


def test_correctness_against_propagate(setups, benchmark):
    from repro.delta.propagate import propagate

    db, deltas = setups[3]
    expected = propagate(QUERY, db.relation, deltas, ts=9)
    got = benchmark(
        lambda: dra_execute(QUERY, db, deltas=deltas, ts=9).delta
    )
    assert got == expected


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_refresh_with_k_changed(benchmark, setups, k):
    benchmark.group = "e8 refresh"
    db, deltas = setups[k]
    benchmark(lambda: dra_execute(QUERY, db, deltas=deltas, ts=9))


# -- smoke entry point (CI) ---------------------------------------------------


def smoke(refreshes=300, out_path="BENCH_e8.json"):
    """Fast self-check that prepared plans amortize planning to zero.

    Small-delta refreshes (one changed table of four) are the regime
    where per-refresh planning dominates the differential work. Returns
    the measurement record (also written to ``out_path``); raises
    AssertionError when the prepared path plans again or loses its
    ≥2x per-refresh advantage.
    """
    import json
    import random
    import time

    from repro.obs import format_table
    from repro.relational import planning

    # Unique join keys and a 2-row delta: the small-delta regime where
    # the differential work is a handful of probes and per-refresh
    # planning is the dominant cost for the unprepared path.
    rng = random.Random(82)
    db = Database()
    tables = []
    for i in range(1, N_TABLES + 1):
        table = db.create_table(
            f"r{i}",
            [("k", AttributeType.INT), (f"v{i}", AttributeType.INT)],
            indexes=[("k",)],
        )
        table.insert_many(
            (j, rng.randrange(1000)) for j in range(ROWS_PER_TABLE)
        )
        tables.append(table)
    ts = db.now()
    with db.begin() as txn:
        for j in range(2):
            txn.insert_into(tables[0], (j, rng.randrange(1000)))
    deltas = deltas_since(tables, ts)
    prepared = prepare_cq(QUERY, db)
    baseline = dra_execute(QUERY, db, deltas=deltas, ts=9).delta

    # Warm-up, then the planner must stay silent for every refresh.
    assert dra_execute(QUERY, db, deltas=deltas, ts=9, prepared=prepared).delta == baseline
    calls_before = planning.plan_calls
    start = time.perf_counter()
    for __ in range(refreshes):
        dra_execute(QUERY, db, deltas=deltas, ts=9, prepared=prepared)
    prepared_us = (time.perf_counter() - start) * 1e6 / refreshes
    plan_calls_per_refresh = (planning.plan_calls - calls_before) / refreshes
    assert plan_calls_per_refresh == 0, (
        f"prepared refreshes called plan_predicate "
        f"{plan_calls_per_refresh} times per refresh"
    )

    start = time.perf_counter()
    for __ in range(refreshes):
        dra_execute(QUERY, db, deltas=deltas, ts=9)
    unprepared_us = (time.perf_counter() - start) * 1e6 / refreshes

    speedup = unprepared_us / prepared_us
    record = {
        "benchmark": "e8_prepared_smoke",
        "refreshes": refreshes,
        "delta_rows": sum(len(d) for d in deltas.values()),
        "plan_calls_per_prepared_refresh": plan_calls_per_refresh,
        "prepared_us_per_refresh": round(prepared_us, 2),
        "unprepared_us_per_refresh": round(unprepared_us, 2),
        "speedup": round(speedup, 2),
    }
    with open(out_path, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(format_table([record], title="E8 smoke: prepared vs per-refresh planning"))
    assert speedup >= 2.0, (
        f"prepared refreshes only {speedup:.2f}x faster "
        f"({prepared_us:.1f}us vs {unprepared_us:.1f}us); expected >=2x"
    )
    return record


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the fast prepared-plan self-check and exit",
    )
    parser.add_argument(
        "--refreshes",
        type=int,
        default=300,
        help="timed refreshes per configuration (smoke mode)",
    )
    parser.add_argument(
        "--out",
        default="BENCH_e8.json",
        help="where to write the smoke measurement record",
    )
    args = parser.parse_args(argv)
    if not args.smoke:
        parser.error("run the full sweep via pytest; use --smoke here")
    if args.refreshes < 10:
        parser.error("--refreshes must be >= 10 for a stable timing ratio")
    smoke(refreshes=args.refreshes, out_path=args.out)
    print("e8 smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
