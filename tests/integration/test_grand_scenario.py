"""The everything-together scenario.

One long-running deployment exercising, simultaneously: federated
replication, four CQ engines/modes, epsilon and time triggers, HAVING
aggregates, lazy network delivery, garbage collection, and a snapshot/
restore in the middle of the run — asserting exactness against
from-scratch evaluation throughout.
"""

import pytest

from repro import Database
from repro.core import (
    CQManager,
    DeliveryMode,
    Engine,
    EpsilonTrigger,
    EvaluationStrategy,
    Every,
    NetChangeEpsilon,
)
from repro.net.client import CQClient
from repro.net.server import CQServer, Protocol
from repro.net.simnet import SimulatedNetwork
from repro.sources.base import MirrorAdapter
from repro.sources.remote import RemoteTableSource
from repro.storage.snapshots import database_from_dict, database_to_dict
from repro.workload.stocks import StockMarket

WATCH = "SELECT sid, name, price FROM stocks WHERE price > 600"
AGG = (
    "SELECT name, SUM(price) AS total, COUNT(*) AS n FROM stocks "
    "GROUP BY name HAVING n >= 2"
)


def test_grand_scenario():
    # -- producer site ---------------------------------------------------
    producer = Database()
    market = StockMarket(producer, seed=2468)
    market.populate(600)

    # -- consumer site with a replica -------------------------------------
    consumer = Database()
    replica = MirrorAdapter(
        consumer, "stocks", RemoteTableSource(market.stocks)
    )
    replica.sync()
    consumer.table("stocks").create_index(["sid"])

    mgr = CQManager(consumer, strategy=EvaluationStrategy.PERIODIC)
    mgr.register_sql("dra", WATCH, mode=DeliveryMode.COMPLETE)
    mgr.register_sql("eager", WATCH, engine=Engine.EAGER,
                     mode=DeliveryMode.COMPLETE)
    mgr.register_sql("reeval", WATCH, engine=Engine.REEVALUATE,
                     mode=DeliveryMode.COMPLETE)
    mgr.register_sql("agg", AGG, mode=DeliveryMode.COMPLETE)
    mgr.register_sql(
        "epsilon",
        "SELECT SUM(price) AS total FROM stocks",
        trigger=EpsilonTrigger(NetChangeEpsilon(3_000.0, "price")),
        mode=DeliveryMode.COMPLETE,
    )
    mgr.drain()

    # -- network subscribers on the producer side -------------------------
    net = SimulatedNetwork()
    server = CQServer(producer, net)
    lazy = CQClient("lazy")
    eager_client = CQClient("eager")
    server.attach(lazy)
    server.attach(eager_client)
    lazy.register("watch", WATCH, Protocol.DRA_LAZY)
    eager_client.register("watch", WATCH, Protocol.DRA_DELTA)

    epsilon_fires = 0
    for round_no in range(12):
        market.tick(40, p_insert=0.15, p_delete=0.15, volatility=200)
        server.refresh_all()
        replica.sync()
        notes = mgr.poll()
        epsilon_fires += sum(1 for n in notes if n.cq_name == "epsilon")
        mgr.collect_garbage()

        truth = consumer.query(WATCH)
        for name in ("dra", "eager", "reeval"):
            assert mgr.get(name).previous_result == truth, (
                f"{name} diverged at round {round_no}"
            )
        assert mgr.get("agg").previous_result == consumer.query(AGG)
        assert eager_client.result("watch") == producer.query(WATCH)

        if round_no == 5:
            # Mid-run checkpoint/restore of the consumer site: the
            # restored database must serve the same truth.
            restored = database_from_dict(database_to_dict(consumer))
            assert restored.query(WATCH) == truth
            assert restored.query(AGG) == consumer.query(AGG)

    # The lazy subscriber catches up in one fetch.
    assert lazy.fetch("watch")
    assert lazy.result("watch") == producer.query(WATCH)
    # Epsilon CQ fired at least once given the churn, but not per round.
    assert 0 < epsilon_fires <= 12
    # GC kept the consumer's log bounded.
    assert len(consumer.table("stocks").log) <= 200
    # Lazy shipped less than eager-per-refresh for the same content.
    assert net.link("server", "lazy").bytes < net.link(
        "server", "eager"
    ).bytes
