"""E15 — columnar Z-set kernels: batch-at-a-time term evaluation must
beat the per-row interpreter by a widening margin as deltas grow.

Three workload mixes run through the real deployment path
(:func:`repro.dra.algorithm.dra_execute` with a live ``Metrics`` bag,
prepared plans, maintained join indexes):

* **filter-heavy** — single-table selection, spec-compiled local
  predicate; measures the vectorized seed filter.
* **join-heavy** — a 4-way star join (orders ⋈ customers ⋈ products ⋈
  stores) under a modify-heavy delta; measures grouped probing, fused
  residuals, and the batched attach cascade.
* **aggregate** — a grouped SUM over a join core, refreshed through
  :class:`repro.dra.aggregates.DifferentialAggregate`; measures the
  kernels feeding the aggregate state machine.
* **install** — E_0, the first complete execution, of the join-heavy
  and aggregate queries over the star's whole state: the kernel
  install step (:func:`repro.dra.algorithm.dra_initial`, one term
  seeded by a whole relation; the aggregate folds its core's rows)
  against the row evaluator behind ``db.query``. Its row count is the
  seed relation's, not a delta's.

Each mix runs at three delta tiers (≈1k/10k/100k signed rows); both
evaluators consume identical consolidated deltas and their results are
asserted equal before anything is timed. Timings are min-of-reps
wall-clock converted to delta rows/second.

Run ``python benchmarks/bench_e15_kernels.py --smoke`` for the CI
self-check: it verifies row/columnar equivalence on every mix, runs
the 1k and 10k tiers, asserts the columnar evaluator clears ≥3x
rows/sec on the join-heavy mix and the kernel install ≥2x on the
install mix at the 10k tier, and writes the measurement record to
``BENCH_e15.json``. Each SPJ mix also reports ``kernel_pairs``, the
seed rows that travelled the term as modify pairs (DESIGN.md §11);
on the join-heavy mix the smoke asserts it equals the pair-eligible
modifies counted off the orders delta.
"""

import json
import operator
import random
import sys
import time

from repro import Database
from repro.delta.capture import deltas_since
from repro.dra import dra_execute, prepare_cq
from repro.dra.aggregates import DifferentialAggregate
from repro.dra.algorithm import dra_initial
from repro.metrics import Metrics
from repro.relational import AttributeType, parse_query

INT = AttributeType.INT

#: delta tier name -> approximate signed-row count of the orders delta.
TIERS = {"1k": 1_000, "10k": 10_000, "100k": 100_000}


# -- scenario builders --------------------------------------------------------


def build_star(delta_rows, seed=15):
    """The join-heavy star: a fact table over three dimensions, with a
    modify-heavy delta (80% amount ticks, 10% inserts, 10% deletes)."""
    rng = random.Random(seed)
    db = Database()
    orders = db.create_table(
        "orders",
        [("oid", INT), ("cid", INT), ("pid", INT), ("sid", INT), ("amt", INT)],
    )
    customers = db.create_table("customers", [("cid", INT), ("seg", INT)])
    products = db.create_table("products", [("pid", INT), ("price", INT)])
    stores = db.create_table("stores", [("sid", INT), ("region", INT)])
    customers.insert_many([(c, rng.randint(0, 9)) for c in range(2000)])
    products.insert_many([(p, rng.randint(1, 999)) for p in range(500)])
    stores.insert_many([(s, rng.randint(0, 99)) for s in range(100)])
    base = max(2 * delta_rows, 2000)
    for o in range(base):
        orders.insert(
            (
                o,
                rng.randint(0, 1999),
                rng.randint(0, 499),
                rng.randint(0, 99),
                rng.randint(0, 999),
            )
        )
    since = db.now()
    tids = list(orders.current.tids())
    n_mod = int(delta_rows * 0.8)
    n_ins = n_del = delta_rows // 10
    with db.begin() as txn:
        for tid in rng.sample(tids, n_mod):
            v = orders.current.get(tid)
            txn.modify_in(
                orders, tid, (v[0], v[1], v[2], v[3], rng.randint(0, 999))
            )
        for o in range(base, base + n_ins):
            txn.insert_into(
                orders,
                (
                    o,
                    rng.randint(0, 1999),
                    rng.randint(0, 499),
                    rng.randint(0, 99),
                    rng.randint(0, 999),
                ),
            )
        for tid in rng.sample(tids, n_del):
            txn.delete_from(orders, tid)
    tables = [orders, customers, products, stores]
    return db, tables, since


JOIN_SQL = (
    "SELECT orders.oid, orders.amt, customers.seg, products.price, "
    "stores.region FROM orders, customers, products, stores "
    "WHERE orders.cid = customers.cid AND orders.pid = products.pid "
    "AND orders.sid = stores.sid AND orders.amt > 100 "
    "AND products.price < 800 AND stores.region < 90 "
    "AND customers.seg < products.price"
)

AGG_SQL = (
    "SELECT customers.seg, SUM(orders.amt) AS total "
    "FROM orders, customers "
    "WHERE orders.cid = customers.cid AND orders.amt > 100 "
    "GROUP BY customers.seg"
)


def build_filter(delta_rows, seed=16):
    """The filter-heavy mix: one wide table, range-filtered selection."""
    rng = random.Random(seed)
    db = Database()
    events = db.create_table(
        "events", [("eid", INT), ("kind", INT), ("value", INT)]
    )
    base = max(2 * delta_rows, 2000)
    for e in range(base):
        events.insert((e, rng.randint(0, 9), rng.randint(0, 9999)))
    since = db.now()
    tids = list(events.current.tids())
    n_mod = int(delta_rows * 0.5)
    n_ins = delta_rows - n_mod
    with db.begin() as txn:
        for tid in rng.sample(tids, n_mod):
            v = events.current.get(tid)
            txn.modify_in(events, tid, (v[0], v[1], rng.randint(0, 9999)))
        for e in range(base, base + n_ins):
            txn.insert_into(events, (e, rng.randint(0, 9), rng.randint(0, 9999)))
    return db, [events], since


FILTER_SQL = "SELECT eid, kind, value FROM events WHERE value > 2500"


# -- measurement --------------------------------------------------------------


def _time_pair(row_fn, col_fn, reps):
    """Min-of-reps wall-clock for both evaluators, interleaved.

    Alternating row/col within each rep means a drifting CPU (thermal
    or noisy-neighbour frequency swings) biases both sides equally
    instead of whichever happened to run in the slow phase.
    """
    row_best = col_best = float("inf")
    for __ in range(reps):
        t0 = time.perf_counter()
        row_fn()
        row_best = min(row_best, time.perf_counter() - t0)
        t0 = time.perf_counter()
        col_fn()
        col_best = min(col_best, time.perf_counter() - t0)
    return row_best, col_best


def measure_spj(sql, db, tables, since, reps):
    """Row vs columnar through dra_execute; asserts equal deltas.
    Returns the delta rows, both timings and the columnar run's
    ``kernel_pairs``."""
    query = parse_query(sql)
    prepared = prepare_cq(query, db)
    deltas = deltas_since(tables, since)
    delta_rows = sum(len(d) for d in deltas.values())

    def run(columnar, metrics=None):
        return dra_execute(
            query,
            db,
            deltas=deltas,
            prepared=prepared,
            ts=99,
            metrics=metrics or Metrics(),
            columnar=columnar,
        )

    row_result = run(False)
    col_metrics = Metrics()
    col_result = run(True, col_metrics)
    assert col_result.delta == row_result.delta, "columnar result diverged"
    row_s, col_s = _time_pair(lambda: run(False), lambda: run(True), reps)
    return delta_rows, row_s, col_s, col_metrics.get(Metrics.KERNEL_PAIRS)


def star_pair_modifies(tables, since):
    """JOIN_SQL's pair-eligible modifies, counted off the orders delta:
    both sides pass ``orders.amt > 100`` and the join keys (cid, pid,
    sid) are unchanged."""
    keys = operator.itemgetter(1, 2, 3)
    return sum(
        1
        for e in deltas_since(tables, since)["orders"]
        if e.old is not None
        and e.new is not None
        and e.old[4] is not None
        and e.old[4] > 100
        and e.new[4] is not None
        and e.new[4] > 100
        and keys(e.old) == keys(e.new)
    )


def measure_aggregate(db, tables, since, reps):
    """Row vs columnar through DifferentialAggregate.update."""
    query = parse_query(AGG_SQL)
    prepared = prepare_cq(query.narrowed_core(), db)
    deltas = deltas_since(tables, since)
    delta_rows = sum(len(d) for d in deltas.values())
    now = db.now()

    def run(columnar):
        """Returns (update seconds, aggregate delta). Initialization is
        a full evaluation identical for both evaluators, so it happens
        outside the timed region; only the differential fold — the part
        the kernels accelerate — is measured."""
        state = DifferentialAggregate(query, db)
        state.initialize()
        t0 = time.perf_counter()
        delta = state.update(
            deltas, now, Metrics(), prepared=prepared, columnar=columnar
        )
        return time.perf_counter() - t0, delta

    # Each run folds the captured window into a freshly initialized
    # state, so reps are independent; the fold's core differential (the
    # part the kernels accelerate) dominates. Both evaluators must
    # agree on the produced aggregate delta.
    __, row_delta = run(False)
    __, col_delta = run(True)
    assert col_delta == row_delta, "columnar aggregate delta diverged"
    row_s = col_s = float("inf")
    for __ in range(reps):
        row_s = min(row_s, run(False)[0])
        col_s = min(col_s, run(True)[0])
    return delta_rows, row_s, col_s


def measure_install(db, tables, reps):
    """E_0 of the join and the aggregate: the kernel install against
    ``db.query``; asserts equal results. Plans are compiled (join
    indexes auto-created) before anything is timed, as at registration."""
    join, agg = parse_query(JOIN_SQL), parse_query(AGG_SQL)
    join_plan = prepare_cq(join, db)
    agg_plan = prepare_cq(agg.narrowed_core(), db)

    def kernel():
        metrics = Metrics()
        state = DifferentialAggregate(agg, db)
        return (
            dra_initial(join, db, prepared=join_plan, metrics=metrics),
            state.initialize(metrics, agg_plan),
        )

    def row():
        metrics = Metrics()
        return db.query(join, metrics), db.query(agg, metrics)

    assert kernel() == row(), "kernel install diverged from db.query"
    row_s, col_s = _time_pair(row, kernel, reps)
    return len(tables[0].current), row_s, col_s


def run_mix(mix, tier, reps):
    delta_rows = TIERS[tier]
    pairs = {}
    if mix == "join-heavy":
        db, tables, since = build_star(delta_rows)
        n, row_s, col_s, kernel_pairs = measure_spj(
            JOIN_SQL, db, tables, since, reps
        )
        pairs = {
            "kernel_pairs": kernel_pairs,
            "pair_modifies": star_pair_modifies(tables, since),
        }
    elif mix == "filter-heavy":
        db, tables, since = build_filter(delta_rows)
        n, row_s, col_s, kernel_pairs = measure_spj(
            FILTER_SQL, db, tables, since, reps
        )
        pairs = {"kernel_pairs": kernel_pairs}
    elif mix == "aggregate":
        db, tables, since = build_star(delta_rows)
        n, row_s, col_s = measure_aggregate(db, tables, since, reps)
    elif mix == "install":
        db, tables, __ = build_star(delta_rows)
        n, row_s, col_s = measure_install(db, tables, reps)
    else:  # pragma: no cover - guarded by argparse choices
        raise ValueError(mix)
    return {
        "mix": mix,
        "tier": tier,
        "delta_rows": n,
        "row_ms": round(row_s * 1000, 3),
        "col_ms": round(col_s * 1000, 3),
        "row_rows_per_s": round(n / row_s),
        "col_rows_per_s": round(n / col_s),
        "speedup": round(row_s / col_s, 3),
        **pairs,
    }


def sweep(tiers, reps, out_path):
    rows = []
    for mix in ("filter-heavy", "join-heavy", "aggregate", "install"):
        for tier in tiers:
            rows.append(run_mix(mix, tier, reps))
            r = rows[-1]
            pairs = (
                f", {r['kernel_pairs']} kernel_pairs" if "kernel_pairs" in r else ""
            )
            print(
                f"{r['mix']:>13} {r['tier']:>5}: "
                f"row {r['row_ms']:9.1f} ms  col {r['col_ms']:9.1f} ms  "
                f"speedup {r['speedup']:5.2f}x  ({r['delta_rows']} delta rows"
                f"{pairs})"
            )
    record = {"experiment": "e15_kernels", "tiers": list(tiers), "rows": rows}
    with open(out_path, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    return record


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="fast CI self-check: 1k+10k tiers, asserts the join-heavy "
        "10k speedup >= 3x and the install 10k speedup >= 2x, writes "
        "BENCH_e15.json",
    )
    parser.add_argument(
        "--full", action="store_true", help="include the 100k tier"
    )
    parser.add_argument(
        "--reps", type=int, default=7, help="timing repetitions (min taken)"
    )
    parser.add_argument(
        "--out", default="BENCH_e15.json", help="measurement record path"
    )
    args = parser.parse_args(argv)
    if not (args.smoke or args.full):
        parser.error("pass --smoke (CI check) or --full (all tiers)")
    tiers = ("1k", "10k", "100k") if args.full else ("1k", "10k")
    record = sweep(tiers, args.reps, args.out)
    if args.smoke:
        by_key = {(r["mix"], r["tier"]): r for r in record["rows"]}
        gate = by_key[("join-heavy", "10k")]
        assert gate["speedup"] >= 3.0, (
            f"columnar join-heavy speedup regressed: {gate['speedup']:.2f}x "
            f"< 3x at the 10k tier"
        )
        # A modify whose sides both pass the local filter and keep
        # their join keys travels the one term as a pair row.
        for tier in tiers:
            r = by_key[("join-heavy", tier)]
            assert r["kernel_pairs"] == r["pair_modifies"] > 0, (
                f"join-heavy@{tier}: {r['kernel_pairs']} kernel_pairs for "
                f"{r['pair_modifies']} pair-eligible modifies"
            )
        install = by_key[("install", "10k")]
        assert install["speedup"] >= 2.0, (
            f"kernel install speedup regressed: {install['speedup']:.2f}x "
            f"< 2x at the 10k tier"
        )
        # Every mix must at least not lose to the row evaluator.
        for r in record["rows"]:
            assert r["speedup"] >= 1.0, (
                f"{r['mix']}@{r['tier']} columnar slower than row path: "
                f"{r['speedup']:.2f}x"
            )
        print("e15 smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
