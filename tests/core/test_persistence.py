"""Tests for manager checkpoints (serialize/restore the whole site)."""

import pytest

from repro import Database
from repro.core import (
    AfterExecutions,
    AnyOf,
    AtTime,
    CQManager,
    Custom,
    DeliveryMode,
    Engine,
    EpsilonTrigger,
    EvaluationStrategy,
    Every,
    NetChangeEpsilon,
    OnUpdate,
    UnserializableCQ,
    load_manager,
    manager_from_dict,
    manager_to_dict,
    save_manager,
)
from repro.core.persistence import trigger_from_dict, trigger_to_dict
from repro.core.triggers import At
from repro.relational import AttributeType
from repro.relational.expressions import col, lit
from repro.relational.predicates import ge
from repro.workload.stocks import StockMarket

WATCH = "SELECT sid, name, price FROM stocks WHERE price > 600"


def build_manager(strategy=EvaluationStrategy.PERIODIC):
    db = Database()
    market = StockMarket(db, seed=88)
    market.populate(150)
    mgr = CQManager(db, strategy=strategy)
    return db, market, mgr


class TestTriggerRoundTrip:
    @pytest.mark.parametrize(
        "trigger",
        [
            Every(10),
            At([5, 10, 20]),
            EpsilonTrigger(NetChangeEpsilon(100.0, "price", table="stocks")),
            AnyOf(Every(5), EpsilonTrigger(NetChangeEpsilon(9.0, "price"))),
            OnUpdate("stocks", ge(col("price"), lit(900))),
        ],
    )
    def test_roundtrip_structure(self, trigger):
        restored = trigger_from_dict(trigger_to_dict(trigger))
        assert trigger_to_dict(restored) == trigger_to_dict(trigger)

    def test_epsilon_divergence_survives(self):
        spec = NetChangeEpsilon(100.0, "price")
        spec._divergence = 42.0
        restored = trigger_from_dict(trigger_to_dict(EpsilonTrigger(spec)))
        assert restored.spec.divergence == 42.0

    def test_at_consumed_schedule_survives(self):
        from repro.core.triggers import TriggerContext

        trigger = At([5, 10])
        trigger.notify_fired(TriggerContext(6, 0, 1, False))
        restored = trigger_from_dict(trigger_to_dict(trigger))
        assert not restored.should_fire(TriggerContext(7, 0, 1, False))
        assert restored.should_fire(TriggerContext(10, 0, 1, False))

    def test_custom_trigger_rejected(self):
        with pytest.raises(UnserializableCQ):
            trigger_to_dict(Custom(lambda ctx: True))


class TestManagerRoundTrip:
    def test_restored_manager_resumes_differentially(self):
        db, market, mgr = build_manager()
        mgr.register_sql("watch", WATCH, mode=DeliveryMode.COMPLETE)
        mgr.drain()
        market.tick(30)
        mgr.poll()

        # Updates after the last refresh, before the checkpoint: this
        # pending window must survive.
        market.tick(20)
        checkpoint = manager_to_dict(mgr)

        restored = manager_from_dict(checkpoint)
        cq = restored.get("watch")
        assert cq.executions == mgr.get("watch").executions
        notes = restored.poll()
        assert notes, "the pending window should produce a refresh"
        assert cq.previous_result == restored.db.query(WATCH)

    def test_restored_results_match_original_progression(self):
        db, market, mgr = build_manager()
        mgr.register_sql("watch", WATCH, mode=DeliveryMode.COMPLETE)
        mgr.drain()
        market.tick(25)
        checkpoint = manager_to_dict(mgr)

        # Original and restored process the same pending window.
        original_notes = mgr.poll()
        restored = manager_from_dict(checkpoint)
        restored_notes = restored.poll()
        orig = {(e.tid, e.old, e.new) for e in original_notes[0].delta}
        rest = {(e.tid, e.old, e.new) for e in restored_notes[0].delta}
        assert orig == rest

    def test_aggregate_cq_restores(self):
        db, market, mgr = build_manager()
        mgr.register_sql(
            "sum",
            "SELECT SUM(price) AS total FROM stocks",
            trigger=EpsilonTrigger(NetChangeEpsilon(1_000.0, "price")),
            mode=DeliveryMode.COMPLETE,
        )
        initial = mgr.drain()[0].result
        market.tick(10)  # small drift: below epsilon
        restored = manager_from_dict(manager_to_dict(mgr))
        # Below epsilon: no refresh, the reported value stays pinned at
        # the last execution's answer — including across the restore.
        assert restored.poll() == []
        assert restored.get("sum").previous_result == initial
        # Push the restored site past epsilon: it fires, exactly.
        restored.db.table("stocks").insert((9999, "BIG", 999))
        restored.db.table("stocks").insert((9998, "BIG2", 999))
        notes = restored.poll()
        expected = restored.db.query("SELECT SUM(price) AS total FROM stocks")
        assert notes and notes[0].result == expected

    def test_eager_cq_restores(self):
        db, market, mgr = build_manager()
        mgr.register_sql(
            "eager", WATCH, engine=Engine.EAGER, mode=DeliveryMode.COMPLETE
        )
        mgr.drain()
        market.tick(15)
        restored = manager_from_dict(manager_to_dict(mgr))
        cq = restored.get("eager")
        assert cq.maintained_result == restored.db.query(WATCH)
        market2 = restored.db  # further updates flow through observers
        restored.db.table("stocks").insert((9999, "NEW", 950))
        assert cq.maintained_result == restored.db.query(WATCH)

    def test_stopped_cq_stays_stopped(self):
        db, market, mgr = build_manager()
        mgr.register_sql("watch", WATCH, stop=AfterExecutions(1))
        mgr.poll()
        assert mgr.get("watch").status.value == "stopped"
        restored = manager_from_dict(manager_to_dict(mgr))
        assert restored.get("watch").status.value == "stopped"
        restored.db.table("stocks").insert((9999, "NEW", 950))
        assert restored.drain() == []

    def test_strategy_and_gc_flags_survive(self):
        db, market, mgr = build_manager(EvaluationStrategy.IMMEDIATE)
        mgr.auto_gc = True
        mgr.register_sql("watch", WATCH)
        restored = manager_from_dict(manager_to_dict(mgr))
        assert restored.strategy is EvaluationStrategy.IMMEDIATE
        assert restored.auto_gc is True

    def test_file_roundtrip(self, tmp_path):
        db, market, mgr = build_manager()
        mgr.register_sql("watch", WATCH, trigger=Every(3), stop=AtTime(10**6))
        path = str(tmp_path / "site.json")
        save_manager(mgr, path)
        restored = load_manager(path)
        assert "watch" in restored
        assert isinstance(restored.get("watch").trigger, Every)

    def test_unserializable_stop_rejected(self):
        from repro.core import WhenCondition

        db, market, mgr = build_manager()
        mgr.register_sql(
            "watch", WATCH, stop=WhenCondition(lambda ctx: False)
        )
        with pytest.raises(UnserializableCQ):
            manager_to_dict(mgr)


class TestCheckpointExtras:
    def test_history_limit_and_result_ts_survive(self):
        from repro.core import EverySinceResult

        db = Database()
        market = StockMarket(db, seed=89)
        market.populate(100)
        mgr = CQManager(
            db, strategy=EvaluationStrategy.PERIODIC, history_limit=5
        )
        mgr.register_sql("watch", WATCH, trigger=EverySinceResult(3))
        mgr.drain()
        market.tick(20)
        mgr.poll()  # produces a result, pinning last_result_ts
        restored = manager_from_dict(manager_to_dict(mgr))
        assert restored.history_limit == 5
        assert (
            restored.get("watch").last_result_ts
            == mgr.get("watch").last_result_ts
        )
        # History recording resumes on the restored manager.
        restored.db.table("stocks").insert((9999, "NEW", 950))
        restored.poll(advance_to=restored.db.now() + 10)
        assert restored.history("watch")
