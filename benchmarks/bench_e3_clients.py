"""E3 — §5.1: "caching the results on the client side makes the servers
more scalable with respect to the number of clients."

Sweep the client count with a fixed update batch per refresh cycle and
measure the server's work per cycle. Claim shape: with the naive
protocol the server re-scans the base table once *per client*; with DRA
the per-client cost is delta-sized, so server work stays near-flat as
clients grow — and with fan-out (one shared evaluation per distinct
query on top of the per-cycle delta-batch cache) the per-cycle cost is
independent of the client count altogether.

Run ``python benchmarks/bench_e3_clients.py --smoke`` for a fast
self-check that delta-batch sharing is active (used by CI): it builds
8 distinct CQs over one hot table and asserts ``delta_batches_reused``
is charged on both the server and the manager refresh paths.
"""

import sys

import pytest

from repro import Database
from repro.metrics import Metrics
from repro.net.client import CQClient
from repro.net.server import CQServer, Protocol
from repro.net.simnet import SimulatedNetwork
from repro.workload.stocks import StockMarket

WATCH = "SELECT sid, name, price FROM stocks WHERE price > 800"
BASE_ROWS = 2_000
CLIENT_COUNTS = [1, 8, 32]


def build(
    n_clients,
    protocol,
    seed=3,
    fanout=False,
    queries=None,
):
    db = Database()
    market = StockMarket(db, seed=seed)
    market.populate(BASE_ROWS)
    server = CQServer(db, SimulatedNetwork(), fanout=fanout)
    for i in range(n_clients):
        client = CQClient(f"c{i}")
        server.attach(client)
        sql = WATCH if queries is None else queries[i % len(queries)]
        client.register("watch", sql, protocol)
    return db, market, server


def one_cycle(market, server):
    market.tick(20)
    server.refresh_all()


def server_work_per_cycle(n_clients, protocol, fanout=False):
    db, market, server = build(n_clients, protocol, fanout=fanout)
    market.tick(20)
    server.metrics.reset()
    server.refresh_all()
    m = server.metrics
    return (
        m[Metrics.ROWS_SCANNED]
        + m[Metrics.DELTA_ROWS_READ]
        + m[Metrics.INDEX_PROBES]
    )


def test_server_work_vs_client_count(print_table, benchmark):
    rows = []
    work = {}
    for n in CLIENT_COUNTS:
        work[(n, "dra")] = server_work_per_cycle(n, Protocol.DRA_DELTA)
        work[(n, "shared")] = server_work_per_cycle(
            n, Protocol.DRA_DELTA, fanout=True
        )
        work[(n, "naive")] = server_work_per_cycle(n, Protocol.REEVAL_FULL)
        rows.append(
            {
                "clients": n,
                "shared_server_ops": work[(n, "shared")],
                "dra_server_ops": work[(n, "dra")],
                "naive_server_ops": work[(n, "naive")],
                "naive/dra": round(
                    work[(n, "naive")] / max(1, work[(n, "dra")]), 1
                ),
            }
        )
    print_table(rows, title="E3: server work per refresh cycle")

    # Naive work is linear in the client count (one base scan each).
    assert work[(32, "naive")] >= 30 * BASE_ROWS
    assert work[(32, "naive")] / work[(1, "naive")] > 20
    # DRA's per-client cost is delta-sized, not base-sized: at 32
    # clients the server does >10x less work than naive, and each
    # client costs at most both sides of the 20-update batch.
    assert work[(32, "dra")] < work[(32, "naive")] / 10
    assert work[(32, "dra")] / 32 <= 2 * 20
    # Fan-out makes server work per cycle flat in the client count:
    # 32 identical subscriptions cost one evaluation.
    assert work[(32, "shared")] <= work[(1, "dra")] * 2
    benchmark(lambda: server_work_per_cycle(8, Protocol.DRA_DELTA))


def test_delta_sharing_cuts_delta_reads(print_table):
    """With ≥32 identical CQs over a shared table, fan-out evaluates
    the batch once — ≥2x fewer delta rows than per-subscription
    evaluation."""
    readings = {}
    for label, fanout in [("private", False), ("shared", True)]:
        db, market, server = build(32, Protocol.DRA_DELTA, fanout=fanout)
        market.tick(20)
        server.metrics.reset()
        server.refresh_all()
        readings[label] = server.metrics.snapshot()
    print_table(
        [
            {"config": label, **{k: v for k, v in sorted(m.items())}}
            for label, m in readings.items()
        ],
        columns=["config", "delta_rows_read", "delta_batches_computed",
                 "delta_batches_reused", "index_probes"],
        title="E3b: 32 subscriptions, one hot table",
    )
    private = readings["private"].get(Metrics.DELTA_ROWS_READ, 0)
    shared = readings["shared"].get(Metrics.DELTA_ROWS_READ, 0)
    assert private > 0
    assert shared * 2 <= private, (shared, private)
    # With distinct queries per client, evaluation can't be shared but
    # consolidation still is: every subscription after the first reuses
    # the cycle's cached batch.
    queries = [
        f"SELECT sid, price FROM stocks WHERE price > {600 + 20 * i}"
        for i in range(8)
    ]
    db, market, server = build(32, Protocol.DRA_DELTA, queries=queries)
    market.tick(20)
    server.metrics.reset()
    server.refresh_all()
    assert server.metrics[Metrics.DELTA_BATCHES_REUSED] >= 31


@pytest.mark.parametrize("n_clients", CLIENT_COUNTS)
def test_cycle_dra(benchmark, n_clients):
    benchmark.group = f"e3 clients={n_clients}"
    db, market, server = build(n_clients, Protocol.DRA_DELTA)
    benchmark(lambda: one_cycle(market, server))


@pytest.mark.parametrize("n_clients", CLIENT_COUNTS)
def test_cycle_naive(benchmark, n_clients):
    benchmark.group = f"e3 clients={n_clients}"
    db, market, server = build(n_clients, Protocol.REEVAL_FULL)
    benchmark(lambda: one_cycle(market, server))


# -- smoke entry point (CI) ---------------------------------------------------


def smoke(n_cqs=8):
    """Fast self-check that delta-batch sharing is wired up end to end.

    Returns the (server, manager) reuse counts; raises AssertionError
    when either refresh path stops sharing.
    """
    from repro.bench.harness import summarize_latency
    from repro.obs import format_table
    from repro.core import CQManager, EvaluationStrategy

    queries = [
        f"SELECT sid, price FROM stocks WHERE price > {500 + 25 * i}"
        for i in range(n_cqs)
    ]

    # Server path: distinct queries, one hot table, shared batches.
    db, market, server = build(n_cqs, Protocol.DRA_DELTA, queries=queries)
    market.tick(20)
    server.metrics.reset()
    server.refresh_all()
    server_reused = server.metrics[Metrics.DELTA_BATCHES_REUSED]
    assert server_reused > 0, "server refresh cycle shared no delta batches"

    # Manager path: same queries behind CQManager.poll().
    db = Database()
    market = StockMarket(db, seed=3)
    market.populate(BASE_ROWS)
    metrics = Metrics()
    manager = CQManager(
        db,
        strategy=EvaluationStrategy.PERIODIC,
        metrics=metrics,
    )
    for i, sql in enumerate(queries):
        manager.register_sql(f"q{i}", sql)
    manager.drain()
    market.tick(20)
    manager.poll()
    manager_reused = metrics[Metrics.DELTA_BATCHES_REUSED]
    assert manager_reused > 0, "manager poll shared no delta batches"
    for i, sql in enumerate(queries):
        assert manager.get(f"q{i}").previous_result == db.query(sql)

    print(
        format_table(
            [
                {"path": "server", "cqs": n_cqs, "delta_batches_reused": server_reused},
                {"path": "manager", "cqs": n_cqs, "delta_batches_reused": manager_reused},
            ],
            title="E3 smoke: shared-delta refresh",
        )
    )
    latency = metrics.histogram(Metrics.REFRESH_LATENCY_US)
    print(
        format_table(
            [summarize_latency(latency)],
            title="manager refresh latency (us)",
        )
    )
    return server_reused, manager_reused


def obs_smoke(n_cqs=8, cycles=20):
    """Fast self-check of the observability layer (used by CI).

    Runs the manager-path workload untraced and fully traced
    (sample rate 1.0), then asserts three things: every pipeline stage
    shows up as spans with per-CQ attribution, the Prometheus
    exposition parses and carries the expected series, and full
    tracing costs at most 10% wall time over the untraced run.
    """
    from repro.bench.harness import time_fn
    from repro.obs import format_table
    from repro.core import CQManager, EvaluationStrategy
    from repro.obs import (
        Tracer,
        counter_value,
        parse_prometheus_text,
        prometheus_text,
    )

    queries = [
        f"SELECT sid, price FROM stocks WHERE price > {500 + 25 * i}"
        for i in range(n_cqs)
    ]

    def run_cycles(tracer):
        db = Database()
        market = StockMarket(db, seed=3)
        market.populate(BASE_ROWS)
        metrics = Metrics()
        manager = CQManager(
            db,
            strategy=EvaluationStrategy.PERIODIC,
            metrics=metrics,
            tracer=tracer,
        )
        for i, sql in enumerate(queries):
            manager.register_sql(f"q{i}", sql)
        manager.drain()
        for __ in range(cycles):
            market.tick(20)
            manager.poll()
        return metrics

    untraced_s = time_fn(lambda: run_cycles(None), repeat=5)

    tracer = Tracer(sample_rate=1.0, max_spans=1_000_000)

    def traced_run():
        tracer.reset()
        return run_cycles(tracer)

    traced_s = time_fn(traced_run, repeat=5)
    metrics = traced_run()

    # 1. Every pipeline stage left spans, attributed to the right CQs.
    required = {"scheduler.poll", "cq.trigger", "cq.refresh", "cq.notify"}
    span_names = {record["name"] for record in tracer.spans()}
    missing = required - span_names
    assert not missing, f"traced run produced no spans for: {sorted(missing)}"
    assert {"delta.consolidate", "dra.apply"} & span_names, (
        "traced run surfaced no delta/DRA work"
    )
    refresh_cqs = {record["cq"] for record in tracer.spans("cq.refresh")}
    assert refresh_cqs == {f"q{i}" for i in range(n_cqs)}, refresh_cqs

    # 2. The exposition round-trips through the strict parser.
    parsed = parse_prometheus_text(prometheus_text(metrics))
    for series in ("repro_cq_refreshes", "repro_delta_rows_read"):
        value = counter_value(parsed, series)
        assert value and value > 0, f"{series} missing from exposition"
    assert "repro_refresh_latency_us_bucket" in parsed

    # 3. Full tracing stays within the 10% overhead budget. Best-of-5
    # wall times on a sub-second workload still jitter; the +2ms
    # epsilon keeps the gate about the trend, not scheduler noise.
    overhead = (traced_s - untraced_s) / untraced_s
    print(
        format_table(
            [
                {
                    "untraced_s": round(untraced_s, 4),
                    "traced_s": round(traced_s, 4),
                    "overhead_pct": round(100 * overhead, 2),
                    "spans": len(tracer.spans()),
                }
            ],
            title="obs smoke: tracing overhead",
        )
    )
    assert traced_s <= untraced_s * 1.10 + 0.002, (
        f"tracing overhead {100 * overhead:.1f}% exceeds the 10% budget"
    )
    return overhead


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the fast delta-sharing self-check and exit",
    )
    parser.add_argument(
        "--obs-smoke",
        action="store_true",
        help="run the tracing/exporter self-check and exit",
    )
    parser.add_argument(
        "--cqs",
        type=int,
        default=8,
        help="number of CQs over the shared table (smoke mode)",
    )
    args = parser.parse_args(argv)
    if not args.smoke and not args.obs_smoke:
        parser.error(
            "run the full sweep via pytest; use --smoke/--obs-smoke here"
        )
    if args.cqs < 2:
        parser.error("--cqs must be >= 2: one CQ has nothing to share")
    if args.smoke:
        smoke(n_cqs=args.cqs)
        print("e3 smoke ok")
    if args.obs_smoke:
        obs_smoke(n_cqs=args.cqs)
        print("obs smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
