"""E11 — ablations of the reproduction's design choices (DESIGN.md §5).

Not a paper table: these quantify the paper-adjacent design decisions
the text only hints at, over the same substrate as E1-E10.

* (a) deferred consolidation (the paper's DRA, §4.1 "net effect of ...
  several transactions") vs EAGER per-commit maintenance (§2's
  immediate materialized-view refresh);
* (b) shared subscription evaluation (§5.2 "extracting common
  subexpressions") vs per-subscriber evaluation — the server shares
  every evaluation it can, so the per-subscriber arm gives each client
  a template of its own;
* (c) lazy delta shipping (§5.1 "lazy evaluation and transmission")
  vs shipping every refresh, under repeated updates to hot tuples.
"""

import pytest

from repro import Database
from repro.core import CQManager, Engine, EvaluationStrategy, Every
from repro.metrics import Metrics
from repro.net.client import CQClient
from repro.net.server import CQServer, Protocol
from repro.net.simnet import SimulatedNetwork
from repro.workload.stocks import StockMarket

WATCH = "SELECT sid, name, price FROM stocks WHERE price > 500"


def churn_hot_rows(db, market, hot, n_commits, base=600):
    for i in range(n_commits):
        with db.begin() as txn:
            for j, tid in enumerate(hot):
                txn.modify_in(market.stocks, tid, updates={"price": base + i + j})


def test_a_deferred_vs_eager_consolidation(print_table, benchmark):
    rows = []
    for n_commits in (2, 10, 50):
        db = Database()
        market = StockMarket(db, seed=111)
        market.populate(300)
        hot = [row.tid for row in market.stocks.rows()][:5]
        costs = {}
        for engine in (Engine.DRA, Engine.EAGER):
            metrics = Metrics()
            mgr = CQManager(
                db, strategy=EvaluationStrategy.PERIODIC, metrics=metrics
            )
            mgr.register_sql("cq", WATCH, engine=engine, trigger=Every(1))
            mgr.drain()
            metrics.reset()
            churn_hot_rows(db, market, hot, n_commits)
            mgr.poll()
            costs[engine] = metrics[Metrics.DELTA_ROWS_READ]
            mgr.deregister("cq")
        rows.append(
            {
                "commits": n_commits,
                "hot_rows": 5,
                "deferred_delta_rows": costs[Engine.DRA],
                "eager_delta_rows": costs[Engine.EAGER],
                "eager/deferred": round(
                    costs[Engine.EAGER] / max(1, costs[Engine.DRA]), 1
                ),
            }
        )
    print_table(rows, title="E11a: deferred consolidation vs eager refresh")
    # Deferred reads the net effect (<= 2 sides x 5 rows) regardless of
    # how many commits hit the same tuples; eager pays per commit.
    assert rows[-1]["deferred_delta_rows"] <= 10
    assert rows[-1]["eager_delta_rows"] >= 40 * rows[-1]["deferred_delta_rows"] / 10

    db = Database()
    market = StockMarket(db, seed=112)
    market.populate(300)
    hot = [row.tid for row in market.stocks.rows()][:5]
    mgr = CQManager(db, strategy=EvaluationStrategy.PERIODIC)
    mgr.register_sql("cq", WATCH, trigger=Every(1))
    mgr.drain()

    def deferred_cycle():
        churn_hot_rows(db, market, hot, 10)
        mgr.poll()

    benchmark(deferred_cycle)


#: Per client ``i``: its own query shape (the alias differs, so nothing
#: is shared), a literal of one shape (one family), or one text.
ARMS = {
    "per_client": lambda i: WATCH.replace("stocks", f"stocks AS s{i}"),
    "family": lambda i: f"SELECT sid, name, price FROM stocks WHERE price > {500 + i}",
    "shared": lambda i: WATCH,
}


def test_b_shared_vs_per_client_evaluation(print_table, benchmark):
    rows = []
    for n_clients in (4, 16):
        work = {}
        for arm, sql_for in ARMS.items():
            db = Database()
            market = StockMarket(db, seed=113)
            market.populate(1_000)
            server = CQServer(db, SimulatedNetwork())
            clients = []
            for i in range(n_clients):
                client = CQClient(f"c{i}")
                server.attach(client)
                sql = sql_for(i)
                client.register("watch", sql, Protocol.DRA_DELTA)
                clients.append((client, sql))
            market.tick(20)
            server.metrics.reset()
            server.refresh_all()
            work[arm] = server.metrics[Metrics.DELTA_ROWS_READ]
            assert all(c.result("watch") == db.query(sql) for c, sql in clients)
        rows.append(
            {
                "clients": n_clients,
                "per_client_delta_rows": work["per_client"],
                "family_delta_rows": work["family"],
                "shared_delta_rows": work["shared"],
                "savings_x": round(work["per_client"] / max(1, work["shared"]), 1),
            }
        )
    print_table(rows, title="E11b: shared subscription evaluation")
    assert rows[-1]["shared_delta_rows"] * (16 // 2) <= rows[-1]["per_client_delta_rows"]
    # Literals of one shape read the union of their routed sides once:
    # every side passing price > 500 + i passes price > 500.
    assert rows[-1]["family_delta_rows"] == rows[-1]["shared_delta_rows"]

    db = Database()
    market = StockMarket(db, seed=114)
    market.populate(1_000)
    server = CQServer(db, SimulatedNetwork())
    for i in range(16):
        client = CQClient(f"c{i}")
        server.attach(client)
        client.register("watch", WATCH, Protocol.DRA_DELTA)

    def shared_cycle():
        market.tick(20)
        server.refresh_all()

    benchmark(shared_cycle)


def test_c_lazy_vs_eager_shipping(print_table, benchmark):
    rows = []
    for cycles in (3, 10):
        db = Database()
        market = StockMarket(db, seed=115)
        market.populate(300)
        hot = [row.tid for row in market.stocks.rows()][:10]
        net = SimulatedNetwork()
        server = CQServer(db, net)
        lazy = CQClient("lazy")
        eager = CQClient("eager")
        server.attach(lazy)
        server.attach(eager)
        lazy.register("watch", WATCH, Protocol.DRA_LAZY)
        eager.register("watch", WATCH, Protocol.DRA_DELTA)
        net.reset()
        for cycle in range(cycles):
            churn_hot_rows(db, market, hot, 1, base=600 + cycle)
            server.refresh_all()
        lazy.fetch("watch")
        truth = db.query(WATCH)
        assert lazy.result("watch") == truth
        assert eager.result("watch") == truth
        rows.append(
            {
                "refresh_cycles": cycles,
                "lazy_bytes": net.link("server", "lazy").bytes,
                "eager_bytes": net.link("server", "eager").bytes,
                "savings_x": round(
                    net.link("server", "eager").bytes
                    / max(1, net.link("server", "lazy").bytes),
                    2,
                ),
            }
        )
    print_table(rows, title="E11c: lazy vs per-refresh delta shipping")
    # With hot tuples modified every cycle, lazy ships each net change
    # once; eager ships every intermediate version.
    assert rows[-1]["lazy_bytes"] < rows[-1]["eager_bytes"]
    benchmark(lambda: None)
