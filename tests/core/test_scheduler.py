"""Unit tests for the shared-delta refresh scheduler.

Covers the two sharing layers in isolation: the per-poll delta-batch
cache and footprint-grouped trigger skipping.
"""

from repro.core import (
    AfterExecutions,
    AnyOf,
    CQManager,
    CountEpsilon,
    Custom,
    DeltaBatchCache,
    EpsilonTrigger,
    EvaluationStrategy,
    Every,
    OnEveryChange,
    OnUpdate,
    is_data_only_trigger,
    is_skip_safe,
)
from repro.core.continual_query import ContinualQuery
from repro.metrics import Metrics
from repro.relational.expressions import col, lit
from repro.relational.predicates import ge
from repro.relational.sql import parse_query

WATCH = "SELECT sid, name, price FROM stocks WHERE price > 120"


def _cq(trigger=None, stop=None):
    return ContinualQuery(
        "cq", parse_query(WATCH), trigger=trigger, stop=stop
    )


class TestDeltaBatchCache:
    def test_one_consolidation_per_window(self, db, stocks):
        metrics = Metrics()
        ts0 = db.now()
        stocks.insert((7, "NEW", 500))
        now = db.now()
        cache = DeltaBatchCache(db, metrics)
        first = cache.deltas(("stocks",), ts0, now)
        second = cache.deltas(("stocks",), ts0, now)
        assert first["stocks"] is second["stocks"]
        assert cache.misses == 1 and cache.hits == 1
        assert metrics[Metrics.DELTA_BATCHES_COMPUTED] == 1
        assert metrics[Metrics.DELTA_BATCHES_REUSED] == 1

    def test_distinct_windows_are_distinct_batches(self, db, stocks):
        ts0 = db.now()
        stocks.insert((7, "NEW", 500))
        ts1 = db.now()
        stocks.insert((8, "NEW2", 600))
        now = db.now()
        cache = DeltaBatchCache(db, None)
        wide = cache.batch("stocks", ts0, now)
        narrow = cache.batch("stocks", ts1, now)
        assert len(wide) == 2 and len(narrow) == 1
        assert cache.misses == 2 and cache.hits == 0

    def test_empty_batches_are_skipped_like_deltas_since(self, db, stocks):
        now = db.now()
        cache = DeltaBatchCache(db, None)
        assert cache.deltas(("stocks",), now, now) == {}

    def test_matches_private_consolidation(self, db, stocks, stocks_tids):
        from repro.delta.capture import deltas_since

        ts0 = db.now()
        stocks.modify(stocks_tids[120992], updates={"price": 149})
        stocks.delete(stocks_tids[92394])
        cache = DeltaBatchCache(db, None)
        shared = cache.deltas(("stocks",), ts0, db.now())
        private = deltas_since([stocks], ts0)
        assert shared["stocks"] == private["stocks"]

    def test_a_repeat_routed_read_is_one_lookup(self, db, stocks):
        """The second ``routed()`` over one (footprint, window) returns
        the very pair the first built, without routing again, and is
        charged one reuse per table of the footprint — the empty one
        included — exactly as reading it batch by batch is."""
        from repro.dra.predindex import PredicateIndex
        from repro.relational.types import AttributeType

        trades = db.create_table(
            "trades", [("sid", AttributeType.INT), ("qty", AttributeType.INT)]
        )
        query = parse_query(
            "SELECT s.name, t.qty FROM stocks s, trades t "
            "WHERE s.sid = t.sid AND s.price > 120"
        )
        index = PredicateIndex()
        index.add("q", query, {"s": stocks.schema, "t": trades.schema})
        routings = []
        match_batch = index.match_batch
        index.match_batch = lambda deltas: routings.append(deltas) or match_batch(deltas)
        metrics = Metrics()
        cache = DeltaBatchCache(db, metrics)
        ts0 = db.now()
        stocks.insert((7, "NEW", 500))
        now = db.now()
        tables = ("stocks", "trades")

        deltas, routed = cache.routed(index, tables, ts0, now)
        assert list(deltas) == ["stocks"] and routed.keys() == {"q"}
        assert metrics[Metrics.DELTA_BATCHES_COMPUTED] == 2
        assert metrics[Metrics.DELTA_BATCHES_REUSED] == 0

        again = cache.routed(index, tables, ts0, now)
        assert again[0] is deltas and again[1] is routed
        assert len(routings) == 1
        assert metrics[Metrics.DELTA_BATCHES_REUSED] == 2
        assert cache.hits == 2 and cache.misses == 2

        cache.deltas(tables, ts0, now)
        assert metrics[Metrics.DELTA_BATCHES_REUSED] == 4
        assert metrics[Metrics.DELTA_BATCHES_COMPUTED] == 2


class TestSkipClassification:
    def test_data_only_triggers(self):
        assert is_data_only_trigger(OnEveryChange())
        assert is_data_only_trigger(EpsilonTrigger(CountEpsilon(3)))
        assert is_data_only_trigger(
            OnUpdate("stocks", ge(col("price"), lit(100)))
        )
        assert is_data_only_trigger(
            AnyOf(OnEveryChange(), EpsilonTrigger(CountEpsilon(3)))
        )

    def test_time_and_custom_triggers_are_not(self):
        assert not is_data_only_trigger(Every(5))
        assert not is_data_only_trigger(Custom(lambda ctx: True))
        assert not is_data_only_trigger(AnyOf(OnEveryChange(), Every(5)))

    def test_skip_safe_requires_never_stop(self):
        assert is_skip_safe(_cq())
        assert not is_skip_safe(_cq(stop=AfterExecutions(3)))
        assert not is_skip_safe(_cq(trigger=Every(5)))


class TestGroupedTriggerEvaluation:
    def test_quiet_groups_are_skipped(self, db, stocks):
        metrics = Metrics()
        mgr = CQManager(
            db, strategy=EvaluationStrategy.PERIODIC, metrics=metrics
        )
        for i in range(4):
            mgr.register_sql(f"q{i}", WATCH)
        mgr.drain()
        mgr.poll()  # nothing committed since registration
        assert metrics[Metrics.GROUPS_SKIPPED] == 1
        # A commit wakes the whole group again.
        stocks.insert((9, "SUN", 500))
        before = metrics[Metrics.GROUPS_SKIPPED]
        notes = mgr.poll()
        assert metrics[Metrics.GROUPS_SKIPPED] == before
        assert len(notes) == 4

    def test_time_triggered_cq_still_fires_on_quiet_poll(self, db, stocks):
        mgr = CQManager(db, strategy=EvaluationStrategy.PERIODIC)
        mgr.register_sql("timed", WATCH, trigger=Every(2))
        mgr.drain()
        db.clock.advance_to(db.now() + 10)
        mgr.poll()
        # Executed (even though nothing changed, so no notification).
        assert mgr.get("timed").last_execution_ts == db.now()

    def test_quiet_poll_skips_are_unobservable(self, db, stocks):
        skipping = CQManager(db, strategy=EvaluationStrategy.PERIODIC)
        skipping.register_sql("watch", WATCH)
        assert skipping.poll() and not skipping.poll()
        stocks.insert((9, "SUN", 500))
        assert len(skipping.poll()) == 1


class TestRefreshOrder:
    def test_callbacks_fire_in_registration_order(self, db, stocks):
        mgr = CQManager(db, strategy=EvaluationStrategy.PERIODIC)
        seen = []
        for i in range(6):
            mgr.register_sql(
                f"q{i}",
                WATCH,
                on_notify=lambda n: seen.append(n.cq_name),
            )
        seen.clear()
        stocks.insert((9, "SUN", 500))
        mgr.poll()
        assert seen == [f"q{i}" for i in range(6)]
