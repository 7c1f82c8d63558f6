"""Plan-cache lifecycle through the CQ manager.

Registration compiles once; every refresh hits the cache; deregister
and catalog changes (new index, replaced table) invalidate; a CQ
re-registered under an old name gets a fresh plan, never the ghost of
the previous query.
"""

import pytest

from repro import Database
from repro.metrics import Metrics
from repro.core import CQManager, EvaluationStrategy
from repro.relational import AttributeType


@pytest.fixture
def metrics():
    return Metrics()


@pytest.fixture
def mgr(db, stocks, metrics):
    return CQManager(
        db, strategy=EvaluationStrategy.PERIODIC, metrics=metrics
    )


WATCH_SQL = "SELECT name, price FROM stocks WHERE price > 120"


def plan_cached(mgr, name):
    """Plans are keyed by ``sql_key`` and shared; ``describe()`` is the
    per-CQ view."""
    return {r["name"]: r["plan_cached"] for r in mgr.describe()}.get(name, False)


class TestCacheLifecycle:
    def test_register_prepares_once(self, mgr, metrics):
        mgr.register_sql("watch", WATCH_SQL)
        assert plan_cached(mgr, "watch")
        assert metrics[Metrics.PLANS_PREPARED] == 1

    def test_refreshes_hit_the_cache(self, mgr, stocks, metrics):
        mgr.register_sql("watch", WATCH_SQL)
        prepared_before = metrics[Metrics.PLANS_PREPARED]
        for i in range(3):
            stocks.insert((900 + i, "NEW", 200 + i))
            mgr.poll()
        assert metrics[Metrics.PLAN_CACHE_HITS] >= 3
        assert metrics[Metrics.PLANS_PREPARED] == prepared_before

    def test_deregister_invalidates(self, mgr, metrics):
        mgr.register_sql("watch", WATCH_SQL)
        mgr.deregister("watch")
        assert not plan_cached(mgr, "watch")
        assert len(mgr.plans) == 0
        assert metrics[Metrics.PLAN_CACHE_INVALIDATIONS] == 1

    def test_reregister_same_name_gets_fresh_plan(self, mgr, db, stocks):
        mgr.register_sql("watch", WATCH_SQL)
        mgr.deregister("watch")
        other = db.create_table(
            "trades", [("sid", AttributeType.INT), ("qty", AttributeType.INT)]
        )
        mgr.drain()
        notes = []
        mgr.register_sql(
            "watch",
            "SELECT sid, qty FROM trades WHERE qty > 3",
            on_notify=notes.append,
        )
        other.insert((1, 10))
        mgr.poll()
        refresh = [n for n in notes if n.kind.value == "refresh"]
        assert len(refresh) == 1
        assert [tuple(e.new) for e in refresh[0].delta] == [(1, 10)]

    def test_index_added_after_prepare_reprepares(self, mgr, stocks, metrics):
        mgr.register_sql("watch", WATCH_SQL)
        prepared_before = metrics[Metrics.PLANS_PREPARED]
        stocks.create_index(["name"])
        stocks.insert((900, "NEW", 200))
        mgr.poll()
        assert metrics[Metrics.PLAN_CACHE_INVALIDATIONS] >= 1
        assert metrics[Metrics.PLANS_PREPARED] == prepared_before + 1
        # The re-prepared plan serves subsequent refreshes from cache.
        hits = metrics[Metrics.PLAN_CACHE_HITS]
        stocks.insert((901, "NEW", 201))
        mgr.poll()
        assert metrics[Metrics.PLAN_CACHE_HITS] > hits

    def test_aggregates_share_the_cache(self, mgr, stocks, metrics):
        mgr.register_sql("total", "SELECT SUM(price) AS total FROM stocks")
        assert plan_cached(mgr, "total")
        hits = metrics[Metrics.PLAN_CACHE_HITS]
        stocks.insert((900, "NEW", 200))
        mgr.poll()
        assert metrics[Metrics.PLAN_CACHE_HITS] > hits


class TestIntrospection:
    def test_describe_reports_plan_cached(self, mgr):
        mgr.register_sql("watch", WATCH_SQL)
        record = mgr.describe()[0]
        assert record["plan_cached"] is True

    def test_status_report_has_plan_counters(self, mgr):
        mgr.register_sql("watch", WATCH_SQL)
        report = mgr.status_report()
        assert "plan_cached" in report
        assert "plans: prepared=" in report
