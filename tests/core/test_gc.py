"""Tests for active-delta-zone garbage collection (paper Section 5.4)."""

from repro.core import CQManager, EvaluationStrategy, Every
from repro.core.gc import ActiveDeltaZones
from repro.metrics import Metrics
from repro.relational import AttributeType

WATCH_SQL = "SELECT name FROM stocks WHERE price > 120"


class TestZoneAccounting:
    def test_horizon_is_oldest_watcher(self, db, stocks):
        zones = ActiveDeltaZones(db)
        zones.register("fast", ("stocks",), ts=100)
        zones.register("slow", ("stocks",), ts=40)
        assert zones.horizon("stocks") == 40
        zones.advance("slow", 80)
        assert zones.horizon("stocks") == 80

    def test_advance_never_moves_backward(self, db, stocks):
        zones = ActiveDeltaZones(db)
        zones.register("cq", ("stocks",), ts=100)
        zones.advance("cq", 50)
        assert zones.horizon("stocks") == 100

    def test_unwatched_table_has_no_horizon(self, db, stocks):
        zones = ActiveDeltaZones(db)
        assert zones.horizon("stocks") is None

    def test_remove_frees_zone(self, db, stocks):
        zones = ActiveDeltaZones(db)
        zones.register("cq", ("stocks",), ts=10)
        zones.remove("cq")
        assert zones.horizon("stocks") is None
        assert zones.watchers("stocks") == []


class TestCollection:
    def test_collect_prunes_to_horizon(self, db, stocks, stocks_tids):
        zones = ActiveDeltaZones(db)
        stocks.modify(stocks_tids[120992], updates={"price": 149})
        ts = db.now()
        stocks.modify(stocks_tids[120992], updates={"price": 148})
        zones.register("cq", ("stocks",), ts=ts)
        pruned = zones.collect()
        # Everything up to ts retired; the later record survives.
        assert pruned["stocks"] >= 1
        assert len(stocks.log.since(ts)) == 1

    def test_unwatched_tables_kept_by_default(self, db, stocks):
        zones = ActiveDeltaZones(db)
        stocks.insert((9, "X", 1))
        assert zones.collect() == {}
        assert zones.collect(include_unwatched=True)["stocks"] >= 1

    def test_oldest_zone_bounds_system_zone(self, db, stocks):
        """A slow CQ holds back GC for everything it reads."""
        zones = ActiveDeltaZones(db)
        slow_ts = db.now()
        zones.register("slow", ("stocks",), ts=slow_ts)
        stocks.insert((8, "A", 1))
        mid = db.now()
        zones.register("fast", ("stocks",), ts=mid)
        stocks.insert((9, "B", 1))
        zones.collect()
        # slow's zone starts before both inserts: its window survives.
        assert len(stocks.log.since(slow_ts)) == 2


class TestManagerIntegration:
    def test_zones_advance_with_executions(self, db, stocks):
        mgr = CQManager(db)
        mgr.register_sql("watch", WATCH_SQL)
        before = mgr.zones.horizon("stocks")
        stocks.insert((9, "SUN", 500))
        assert mgr.zones.horizon("stocks") > before

    def test_auto_gc_bounds_log(self, db, stocks):
        mgr = CQManager(db, auto_gc=True)
        mgr.register_sql("watch", WATCH_SQL)
        for i in range(20):
            stocks.insert((100 + i, "SUN", 500 + i))
        # Every commit triggered a refresh which then pruned the log.
        assert len(stocks.log) <= 1

    def test_manual_collect_garbage(self, db, stocks):
        mgr = CQManager(db, strategy=EvaluationStrategy.PERIODIC)
        mgr.register_sql("watch", WATCH_SQL)
        for i in range(5):
            stocks.insert((100 + i, "SUN", 500 + i))
        mgr.poll()
        pruned = mgr.collect_garbage()
        assert pruned.get("stocks", 0) >= 5

    def test_multiple_cq_cadences(self, db, stocks):
        """The system delta zone is pinned by the least-advanced CQ."""
        mgr = CQManager(db, strategy=EvaluationStrategy.PERIODIC)

        mgr.register_sql("fast", WATCH_SQL, trigger=Every(1))
        mgr.register_sql("slow", WATCH_SQL, trigger=Every(10_000))
        slow_ts = mgr.get("slow").last_execution_ts
        for i in range(5):
            stocks.insert((100 + i, "SUN", 500 + i))
            mgr.poll()
        mgr.collect_garbage()
        # slow hasn't refreshed: its whole window is preserved.
        assert len(stocks.log.since(slow_ts)) == 5


class TestGCUnderSharing:
    """Auto-GC with the shared-delta scheduler (Section 5.4 under the
    sharing layer): a fast CQ's pruning must never reach into a slower
    CQ's active delta zone, even when both read one cached batch."""

    def test_pruning_never_drops_slow_cq_window(self, db, stocks):
        metrics = Metrics()
        mgr = CQManager(
            db,
            strategy=EvaluationStrategy.PERIODIC,
            auto_gc=True,
            metrics=metrics,
        )
        mgr.register_sql("fast", WATCH_SQL, trigger=Every(1))
        mgr.register_sql("slow", WATCH_SQL, trigger=Every(10_000))
        slow_ts = mgr.get("slow").last_execution_ts
        mgr.drain()
        for i in range(6):
            stocks.insert((100 + i, "SUN", 500 + i))
            mgr.poll()
        # fast refreshed (and pruned) every round; slow has not run,
        # so its whole window must have survived every prune.
        assert mgr.get("fast").executions > mgr.get("slow").executions
        assert len(stocks.log.since(slow_ts)) == 6
        # Now let slow fire: its differential refresh over the retained
        # window must equal complete re-evaluation — nothing was lost.
        db.clock.advance_to(db.now() + 20_000)
        mgr.poll()
        assert mgr.get("slow").previous_result == db.query(WATCH_SQL)

    def test_shared_batch_is_cached_once_for_aligned_cqs(self, db, stocks):
        """Two CQs with identical windows share one consolidation; GC
        after the first refresh must not invalidate the second's read."""
        metrics = Metrics()
        mgr = CQManager(
            db,
            strategy=EvaluationStrategy.PERIODIC,
            auto_gc=True,
            metrics=metrics,
        )
        mgr.register_sql("a", WATCH_SQL)
        mgr.register_sql("b", "SELECT sid FROM stocks WHERE price > 140")
        mgr.drain()
        for i in range(4):
            stocks.insert((200 + i, "SUN", 500 + i))
            notes = mgr.poll()
            # Both CQs refreshed from the same poll window.
            assert {n.cq_name for n in notes} == {"a", "b"}
        # Same (table, since, now) key each poll: one consolidation,
        # one reuse — despite auto_gc pruning between polls.
        assert metrics[Metrics.DELTA_BATCHES_COMPUTED] == 4
        assert metrics[Metrics.DELTA_BATCHES_REUSED] == 4
        for name in ("a", "b"):
            sql = mgr.get(name).query.to_sql()
            assert mgr.get(name).previous_result == db.query(sql)

    def test_parallel_auto_gc_respects_zones(self):
        """GC running after every refresh must never prune into any
        CQ's unread window (the Section 5.4 invariant), however far
        apart the CQs' cadences drift."""
        from repro.workload.stocks import StockMarket
        from repro import Database

        db = Database()
        market = StockMarket(db, seed=31)
        market.populate(100)
        mgr = CQManager(
            db,
            strategy=EvaluationStrategy.PERIODIC,
            auto_gc=True,
        )
        mgr.register_sql("fast", "SELECT sid, price FROM stocks WHERE price > 100", trigger=Every(1))
        mgr.register_sql("slow", "SELECT sid, price FROM stocks WHERE price > 200", trigger=Every(50))
        mgr.register_sql("eager", "SELECT sid, price FROM stocks WHERE price > 300")
        for __ in range(8):
            market.tick(15)
            mgr.poll()  # a dropped window would raise or diverge below
        db.clock.advance_to(db.now() + 100)
        mgr.poll()
        for name in ("fast", "slow", "eager"):
            sql = mgr.get(name).query.to_sql()
            assert mgr.get(name).previous_result == db.query(sql)
