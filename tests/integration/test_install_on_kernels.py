"""Every serving tier installs E_0 on the kernels.

A CQ's first execution is one DRA term seeded by a whole relation
(:func:`repro.dra.algorithm.dra_initial`) at every tier: a manager's
register and restore, a server's first subscription of a template and
a router's new ``sql_key`` group. The row evaluator, ``evaluate_spj``,
is left as the reference they are checked against — ``db.query`` and
``CQManager.check_invariants()`` — and these tests spy on every
module's binding of it to show exactly that split.
"""

import json
import sys

import pytest

import repro.relational.evaluate
from repro import Database
from repro.cluster import ClusterRouter, LocalBackend
from repro.core import CQManager, Engine, EvaluationStrategy
from repro.core.persistence import manager_from_dict, manager_to_dict
from repro.net.client import CQClient
from repro.net.server import CQServer, Protocol
from repro.net.simnet import SimulatedNetwork
from repro.workload.stocks import StockMarket

WATCH = "SELECT sid, name, price FROM stocks WHERE price > 100"
SQLS = {
    "watch": WATCH,
    "pairs": (
        "SELECT a.sid AS a_sid, b.sid AS b_sid FROM stocks a, stocks b "
        "WHERE a.name = b.name AND a.price < b.price"
    ),
    "total": "SELECT name, SUM(price) AS total FROM stocks GROUP BY name",
}


@pytest.fixture
def row_evaluations(monkeypatch):
    """The SQL texts ``evaluate_spj`` ran, through any module's name
    for it."""
    inner = repro.relational.evaluate.evaluate_spj
    calls = []

    def counting(query, *args, **kwargs):
        calls.append(query.to_sql())
        return inner(query, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "evaluate_spj", None) is inner:
            monkeypatch.setattr(module, "evaluate_spj", counting)
    return calls


def market(rows=120):
    db = Database()
    StockMarket(db, seed=11).populate(rows)
    return db


def test_manager_registers_and_restores_on_the_kernels(row_evaluations):
    db = market()
    mgr = CQManager(db, strategy=EvaluationStrategy.PERIODIC)
    for name, sql in SQLS.items():
        mgr.register_sql(name, sql)
    mgr.register_sql("eager", WATCH, engine=Engine.EAGER)
    db.table("stocks").insert((9_001, "NEW", 900))  # pending for everyone
    mgr.register_sql("late", WATCH)  # no current donor: E_0 runs
    restored = manager_from_dict(json.loads(json.dumps(manager_to_dict(mgr))))
    assert row_evaluations == []

    mgr.check_invariants()
    restored.check_invariants()
    assert row_evaluations  # the reference still runs the row evaluator
    for manager in (mgr, restored):
        manager.poll()
        for name, sql in SQLS.items():
            assert manager.get(name).previous_result == manager.db.query(sql)


def test_a_reevaluate_cq_installs_on_the_row_evaluator(row_evaluations):
    mgr = CQManager(market(), strategy=EvaluationStrategy.PERIODIC)
    mgr.register_sql("base", WATCH, engine=Engine.REEVALUATE)
    assert row_evaluations == [mgr.get("base").query.to_sql()]


def test_server_subscribes_on_the_kernels(row_evaluations):
    db = market()
    server = CQServer(db, SimulatedNetwork())
    clients = [CQClient(f"c{i}") for i in range(2)]
    for client in clients:
        server.attach(client)
        for name in ("watch", "pairs"):
            client.register(name, SQLS[name], Protocol.DRA_DELTA)
    assert row_evaluations == []
    for client in clients:
        for name in ("watch", "pairs"):
            assert client.result(name) == db.query(SQLS[name])
    assert row_evaluations


def test_router_installs_a_group_on_the_kernels(row_evaluations, tmp_path):
    router = ClusterRouter(
        shards=2, backend=LocalBackend(wal_root=str(tmp_path)), backoff_base=0.0
    )
    try:
        router.declare_table(
            "stocks", [("sid", int), ("name", str), ("price", float)]
        )
        router.start()
        with router.db.begin() as txn:
            for i in range(12):
                txn.insert_into(
                    router.db.table("stocks"), (i, f"S{i % 4}", 95.0 + i)
                )
        sql = "SELECT sid, price FROM stocks WHERE price > 100"
        result = router.subscribe("a", "q", sql)
        router.subscribe("b", "q", sql)  # joins the group: no E_0 at all
        assert row_evaluations == []
        assert result == router.db.query(sql)
        assert row_evaluations
    finally:
        router.close()
