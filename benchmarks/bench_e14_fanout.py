"""E14 — million-subscriber fan-out: routing one consolidated delta
batch to the affected subscriptions must cost probes proportional to
the *matched* population, not the registered one.

A Zipf-skewed population of parameterized subscriptions (equality and
interval templates over ``stocks.price``) goes into one
:class:`~repro.dra.predindex.PredicateIndex`. The per-subscription
baseline inspects every subscription for every batch — n probes. The
index looks up hash buckets and stabs precomputed interval covers
instead, so probe counts are governed by the match set, which stays
fixed while the subscriber population grows.

Run ``python benchmarks/bench_e14_fanout.py --smoke`` for the fast
self-check used by CI: it routes one batch through populations of
1k/3k/10k subscribers, asserts ≥10x fewer probes than the
per-subscription baseline at 10k plus sublinear probe growth across
the sweep, verifies the routed set against the relevance oracle and
that probes equal the routed entry sides at every size (no template
carries a residual, so nothing inspected goes unrouted), and writes
the measurements to ``BENCH_e14.json``.
"""

import sys

import pytest

from repro import Database
from repro.core import CQManager, EvaluationStrategy
from repro.dra.predindex import PredicateIndex
from repro.metrics import Metrics
from repro.relational import parse_query
from repro.workload.fanout import FanoutWorkload
from repro.workload.stocks import STOCKS_SCHEMA, StockMarket

N_TEMPLATES = 100
BATCH_TICKS = 8


def build_population(n_subs, seed=14):
    """An index over ``n_subs`` generated subscriptions.

    Mirrors the server's group-granularity routing: one index entry per
    distinct ``sql_key`` (subscribers sharing a template share one
    maintained result, so they share one routing entry). Returns the
    index, its metrics, the distinct queries by sql_key, and the
    group membership map.
    """
    workload = FanoutWorkload(
        n_templates=N_TEMPLATES,
        seed=seed,
        skew=1.1,
        domain=(0, 1000),
        eq_fraction=0.5,
        interval_width=40,
    )
    metrics = Metrics()
    index = PredicateIndex(metrics)
    scopes = {"stocks": STOCKS_SCHEMA}
    queries = {}
    members = {}
    for sub in workload.subscriptions(n_subs):
        if sub.sql not in queries:
            query = parse_query(sub.sql)
            index.add(sub.sql, query, scopes)
            queries[sub.sql] = query
        members.setdefault(sub.sql, set()).add(sub.name)
    return index, metrics, queries, members


def capture_batch(seed=15):
    """One consolidated delta batch from a ticked market."""
    from repro.delta.capture import deltas_since

    db = Database()
    market = StockMarket(db, seed=seed)
    market.populate(500)
    since = db.now()
    market.tick(BATCH_TICKS, p_insert=0.2, p_delete=0.2)
    return db, deltas_since([market.stocks], since)


def oracle_matches(queries, deltas):
    """The §5.2 relevance oracle, applied per subscription."""
    from repro.dra.relevance import is_relevant

    scopes = {"stocks": STOCKS_SCHEMA}
    return {
        name
        for name, query in queries.items()
        if is_relevant(query, scopes, deltas)
    }


@pytest.fixture(scope="module")
def batch():
    return capture_batch()


@pytest.mark.parametrize("n_subs", [500, 2000, 8000])
def test_routing_matches_oracle_with_sublinear_probes(batch, n_subs, print_table):
    __, deltas = batch
    index, metrics, queries, members = build_population(n_subs)
    routed = index.match_batch(deltas)
    assert routed.keys() == oracle_matches(queries, deltas)
    routed_subs = sum(len(members[key]) for key in routed)
    probes = metrics[Metrics.PREDINDEX_PROBES]
    # Per-subscription evaluation spends >= one probe per subscription
    # per delta entry on this batch.
    assert probes * 10 <= n_subs * len(deltas["stocks"])
    print_table(
        [
            {
                "subscribers": n_subs,
                "delta_entries": len(deltas["stocks"]),
                "routed_groups": len(routed),
                "routed_subscribers": routed_subs,
                "probes": probes,
                "matches": metrics[Metrics.PREDINDEX_MATCHES],
            }
        ],
        title="E14: routed probes vs population",
    )


def test_routing_throughput(batch, benchmark):
    __, deltas = batch
    index, __, __, __ = build_population(5000)
    benchmark(lambda: index.match_batch(deltas))


def test_manager_fanout_end_to_end(print_table):
    """A small end-to-end slice: shared groups collapse duplicate
    templates and every maintained result stays correct."""
    db = Database()
    market = StockMarket(db, seed=21)
    market.populate(300)
    workload = FanoutWorkload(n_templates=20, seed=22, skew=1.2)
    mgr = CQManager(db, strategy=EvaluationStrategy.PERIODIC, metrics=Metrics())
    subs = workload.subscriptions(120)
    for sub in subs:
        mgr.register_sql(sub.name, sub.sql)
    mgr.drain()
    market.tick(30, p_insert=0.2, p_delete=0.2)
    mgr.poll(advance_to=db.now() + 1)
    groups = mgr.metrics[Metrics.SHARED_GROUPS]
    assert groups <= 20 < len(subs)
    for sub in subs[:10]:
        assert mgr.get(sub.name).previous_result == db.query(sub.sql)
    print_table(
        [
            {
                "subscribers": len(subs),
                "shared_groups": groups,
                "group_hits": mgr.metrics[Metrics.SHARED_GROUP_HITS],
                "probes": mgr.metrics[Metrics.PREDINDEX_PROBES],
            }
        ],
        title="E14: shared materialization in CQManager",
    )


# -- smoke entry point (CI) ---------------------------------------------------


def smoke(n_subs=10_000, out_path="BENCH_e14.json"):
    """Fast self-check of the fan-out routing claim.

    Routes the same consolidated batch through growing subscriber
    populations. Asserts the 10k population routes with ≥10x fewer
    probes than the per-subscription baseline, that probe counts grow
    sublinearly in the population (templates are fixed, so probes
    should barely move), and that the routed set equals the relevance
    oracle at every size. Returns the measurement record (also written
    to ``out_path``).
    """
    import json
    import time

    from repro.obs import format_table

    __, deltas = capture_batch()
    entries = len(deltas["stocks"])
    sizes = [max(n_subs // 10, 1), max(n_subs // 3, 1), n_subs]
    rows = []
    for size in sizes:
        index, metrics, queries, members = build_population(size)
        start = time.perf_counter()
        routed = index.match_batch(deltas)
        elapsed_us = (time.perf_counter() - start) * 1e6
        assert routed.keys() == oracle_matches(queries, deltas)
        # No template here carries a residual, so a stab or a bucket
        # inspects only sides it routes: probes are the routed sides.
        routed_sides = sum(
            len(columns[2])
            for by_alias in routed.values()
            for columns in by_alias.values()
        )
        probes = metrics[Metrics.PREDINDEX_PROBES]
        assert probes == routed_sides, (
            f"routing {size} subscribers inspected {probes} candidates "
            f"for {routed_sides} routed sides; an interval stab is "
            f"inspecting entries it does not return"
        )
        rows.append(
            {
                "subscribers": size,
                "delta_entries": entries,
                "routed_groups": len(routed),
                "routed_subscribers": sum(len(members[k]) for k in routed),
                "probes": probes,
                "baseline_probes": size * entries,
                "route_us": round(elapsed_us, 1),
            }
        )

    final = rows[-1]
    assert final["probes"] * 10 <= n_subs, (
        f"routing 10k subscribers took {final['probes']} probes; "
        f"expected <= {n_subs // 10} (10x under per-subscription)"
    )
    growth = final["probes"] / max(rows[0]["probes"], 1)
    population_growth = final["subscribers"] / rows[0]["subscribers"]
    assert growth * 2 <= population_growth, (
        f"probes grew {growth:.1f}x while the population grew "
        f"{population_growth:.1f}x; routing is not sublinear"
    )

    record = {
        "benchmark": "e14_fanout_smoke",
        "templates": N_TEMPLATES,
        "sweep": rows,
        "probe_growth": round(growth, 2),
        "population_growth": round(population_growth, 2),
    }
    with open(out_path, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(format_table(rows, title="E14 smoke: routed probes vs population"))
    return record


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the fast routing self-check and exit",
    )
    parser.add_argument(
        "--subs",
        type=int,
        default=10_000,
        help="largest subscriber population (smoke mode)",
    )
    parser.add_argument(
        "--out",
        default="BENCH_e14.json",
        help="where to write the smoke measurement record",
    )
    args = parser.parse_args(argv)
    if not args.smoke:
        parser.error("run the full sweep via pytest; use --smoke here")
    if args.subs < 100:
        parser.error("--subs must be >= 100 for a meaningful sweep")
    smoke(n_subs=args.subs, out_path=args.out)
    print("e14 smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
