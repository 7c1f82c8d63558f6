"""A CQ is installed as of a timestamp: ``CQManager._install`` is the
one place a CQ's retained state is built, for ``register`` (as of now),
checkpoint restore (as of the checkpointed window start) and journal
recovery (as of the journaled registration). These pin the cases the
three former copies disagreed on, and that ``check_invariants`` — run
after every mutating call of every core test — notices a broken law.
"""

import json
import pathlib
import shutil

import pytest

from repro import Database
from repro.core import (
    AfterExecutions,
    CQManager,
    ContinualQuery,
    CQStatus,
    DeliveryMode,
    DeltaBatchCache,
    Engine,
    EvaluationStrategy,
    Every,
    load_manager,
    manager_from_dict,
    manager_to_dict,
    save_manager,
)
from repro.core.persistence import recover_manager
from repro.storage.snapshots import read_checkpoint
from repro.core.results import NotificationKind
from repro.metrics import Metrics
from repro.relational import AttributeType
from repro.relational.sql import parse_query
from repro.workload.stocks import StockMarket

DATA = pathlib.Path(__file__).parent / "data"
WATCH = "SELECT sid, name, price FROM stocks WHERE price > 600"
TOTAL = "SELECT SUM(price) AS total, COUNT(*) AS n FROM stocks WHERE price > 300"


def market_manager(**kwargs):
    db = Database()
    market = StockMarket(db, seed=23)
    market.populate(120)
    return db, market, CQManager(db, strategy=EvaluationStrategy.PERIODIC, **kwargs)


def roundtrip(mgr):
    return manager_from_dict(json.loads(json.dumps(manager_to_dict(mgr))))


def entries(delta):
    return sorted((e.tid, e.old, e.new) for e in delta)


class TestCheckpointAfterGC:
    def test_stopped_cq_loads_after_gc_passed_its_last_execution(self):
        db, market, mgr = market_manager()
        mgr.register_sql("a", WATCH)
        mgr.register_sql("b", WATCH, stop=AfterExecutions(2))
        for __ in range(6):
            market.tick(20)
            mgr.poll()
        mgr.collect_garbage()
        stopped = mgr.get("b")
        assert stopped.status is CQStatus.STOPPED
        assert db.table("stocks").log.pruned_through > stopped.last_execution_ts

        data = manager_to_dict(mgr)
        assert not any("retained" in entry for entry in data["cqs"])
        restored = roundtrip(mgr)
        assert restored.get("b").status is CQStatus.STOPPED
        assert restored.get("b").executions == stopped.executions
        # Nothing is built for a CQ that is not active.
        assert restored.get("b").previous_result is None
        assert restored.get("a").previous_result == restored.db.query(WATCH)

    @pytest.mark.parametrize(
        "sql, engine",
        [(TOTAL, Engine.DRA), (TOTAL, Engine.REEVALUATE), (WATCH, Engine.EAGER)],
        ids=["aggregate", "reevaluated-aggregate", "eager"],
    )
    def test_zone_ahead_cq_brings_its_retained_result(self, sql, engine):
        """An aggregate or EAGER CQ is kept current ahead of its
        executions and its zone moves with that: once GC has passed the
        last execution only the checkpoint can say what was reported."""
        db, market, mgr = market_manager()
        mgr.register_sql(
            "ahead", sql, trigger=Every(1_000), engine=engine,
            mode=DeliveryMode.COMPLETE,
        )
        mgr.register_sql("plain", WATCH)
        mgr.drain()
        for __ in range(3):
            market.tick(15)
            mgr.poll()
            mgr.collect_garbage()
        cq = mgr.get("ahead")
        assert db.table("stocks").log.pruned_through > cq.last_execution_ts
        assert cq.previous_result != db.query(sql)

        data = json.loads(json.dumps(manager_to_dict(mgr)))
        assert [e["name"] for e in data["cqs"] if "retained" in e] == ["ahead"]
        restored = manager_from_dict(data)
        twin = restored.get("ahead")
        assert twin.previous_result == cq.previous_result
        assert twin.last_execution_ts == cq.last_execution_ts
        # Both sites fire on the same clock tick with the same delta.
        notes = mgr.poll(advance_to=db.now() + 2_000)
        twin_notes = restored.poll(advance_to=restored.db.now() + 2_000)
        assert [n.cq_name for n in twin_notes] == [n.cq_name for n in notes]
        assert entries(twin_notes[0].delta) == entries(notes[0].delta)
        assert twin.previous_result == restored.db.query(sql)

    def test_logs_that_reach_carry_no_rows(self):
        db, market, mgr = market_manager()
        mgr.register_sql("sum", TOTAL, trigger=Every(1_000))
        mgr.register_sql("eager", WATCH, trigger=Every(1_000), engine=Engine.EAGER)
        market.tick(30)
        mgr.poll()
        data = manager_to_dict(mgr)
        assert not any("retained" in entry for entry in data["cqs"])
        restored = manager_from_dict(data)
        for name in ("sum", "eager"):
            assert (
                restored.get(name).previous_result == mgr.get(name).previous_result
            )


class TestConfigurationSurvives:
    def test_either_fanout_restores_indexed_manager(self):
        """A checkpoint no longer records ``fanout``. One that carries
        ``"fanout": false`` — what the parent file's missing key meant —
        or ``true`` restores into the same indexed manager, and both
        resume differentially with the same notifications."""
        data = read_checkpoint(str(DATA / "parent_manager.ckpt"))
        runs = []
        for fanout in (False, True):
            checkpoint = json.loads(json.dumps({**data, "fanout": fanout}))
            mgr = manager_from_dict(checkpoint)
            assert not {"fanout", "columnar"} & manager_to_dict(mgr).keys()
            assert len(mgr.index) == 2  # LIVE (watch, eager) and SUMS (total)
            notes = mgr.poll(advance_to=mgr.db.now() + 10)
            assert {n.kind for n in notes} == {NotificationKind.REFRESH}
            runs.append([(n.cq_name, n.seq, n.ts, entries(n.delta)) for n in notes])
            sqls = TestFilesWrittenByTheParentCommit
            for name, sql in [("watch", sqls.LIVE), ("total", sqls.SUMS)]:
                assert mgr.get(name).previous_result == mgr.db.query(sql)
        assert runs[0] and runs[0] == runs[1]

    def test_a_checkpoint_asking_for_the_row_interpreter_runs_kernels(self):
        """Checkpoints written while the kernels were opt-in carry
        ``"columnar": false``; the key selects nothing any more."""
        db, market, mgr = market_manager()
        mgr.register_sql("watch", WATCH)
        data = json.loads(json.dumps(manager_to_dict(mgr)))
        data["columnar"] = False
        metrics = Metrics()
        restored = manager_from_dict(data, metrics=metrics)
        restored.db.table("stocks").insert((9_001, "NEW", 900))
        restored.poll()
        assert metrics.get(Metrics.KERNEL_CALLS) > 0
        cq = restored.get("watch")
        assert cq.previous_result == restored.db.query(WATCH)

    def test_recovered_manager_has_index_kernels_and_counting_plans(self, tmp_path):
        wal, ckpt = str(tmp_path / "site.wal"), str(tmp_path / "site.ckpt")
        db = Database()
        mgr = CQManager(
            db, strategy=EvaluationStrategy.PERIODIC, durability=wal,
            metrics=Metrics(),
        )
        market = StockMarket(db, seed=5)
        market.populate(60)
        mgr.register_sql("watch", WATCH)
        save_manager(mgr, ckpt)
        market.tick(5)
        db.wal.close()

        metrics = Metrics()
        recovered = recover_manager(wal, ckpt, metrics=metrics)
        assert len(recovered.index) == 1
        assert recovered.metrics is metrics and recovered.plans.metrics is metrics
        assert metrics.get(Metrics.PLANS_PREPARED) == 1
        assert "plans: prepared=1" in recovered.status_report()
        recovered.poll()
        assert metrics.get(Metrics.KERNEL_CALLS) > 0
        assert recovered.get("watch").previous_result == recovered.db.query(WATCH)


class TestJournalRecovery:
    def build(self, tmp_path, sql, **kwargs):
        wal = str(tmp_path / "site.wal")
        db = Database()
        mgr = CQManager(db, strategy=EvaluationStrategy.PERIODIC, durability=wal)
        table = db.create_table(
            "t", [("k", AttributeType.INT), ("v", AttributeType.INT)]
        )
        table.insert_many([(1, 10), (2, 3)])
        mgr.register_sql("q", sql, **kwargs)
        return wal, db, table, mgr

    @pytest.mark.parametrize(
        "sql",
        ["SELECT k, v FROM t WHERE v > 5", "SELECT SUM(v) AS total FROM t WHERE v > 5"],
        ids=["spj", "aggregate"],
    )
    def test_missed_window_is_one_refresh_equal_to_the_uncrashed_run(
        self, tmp_path, sql
    ):
        wal, db, table, mgr = self.build(tmp_path, sql)
        registered_at = db.now()
        mgr.drain()
        table.insert((3, 20))
        table.insert((4, 30))
        db.wal.close()  # crash: the window (registered_at, now] undelivered

        recovered = recover_manager(wal)
        cq = recovered.get("q")
        assert cq.last_execution_ts == registered_at and cq.executions == 1
        assert recovered.drain() == []  # no second INITIAL
        notes, expected = recovered.poll(), mgr.poll()
        assert [n.kind for n in notes] == [NotificationKind.REFRESH]
        assert (notes[0].seq, notes[0].ts) == (expected[0].seq, expected[0].ts)
        assert entries(notes[0].delta) == entries(expected[0].delta)
        assert cq.previous_result == recovered.db.query(sql)

    def test_recovery_journals_nothing_and_recovers_again(self, tmp_path):
        wal, db, table, mgr = self.build(tmp_path, "SELECT k, v FROM t WHERE v > 5")
        table.insert((3, 20))
        db.wal.close()
        first = recover_manager(wal)
        first.db.wal.close()
        again = recover_manager(wal)
        assert again.get("q").last_execution_ts == first.get("q").last_execution_ts
        assert len(again) == 1

    def test_as_of_now_when_the_logs_no_longer_reach(self):
        """``recover_server``'s rule, through the public ``restore``."""
        db, market, mgr = market_manager()
        market.tick(10)
        db.table("stocks").log.prune_before(db.now())
        cq = ContinualQuery("q", parse_query(WATCH))
        mgr.restore([(cq, 1, {})])
        assert cq.last_execution_ts == db.now()
        assert cq.previous_result == db.query(WATCH)
        assert mgr.drain() == []


class TestFilesWrittenByTheParentCommit:
    """``tests/core/data/`` holds a checkpoint and a journal written by
    the commit before ``CQManager.restore`` existed (four CQs on a
    three-row ``stocks``: ``watch``, the aggregate ``total``, ``eager``
    and ``once``, stopped after its second execution): no ``fanout``,
    ``columnar`` or ``retained`` key, same ``FORMAT_VERSION``."""

    LIVE = "SELECT sid, name, price FROM stocks WHERE price > 100"
    SUMS = "SELECT SUM(price) AS total, COUNT(*) AS n FROM stocks WHERE price > 50"

    def test_checkpoint_loads_and_resumes_differentially(self):
        mgr = load_manager(str(DATA / "parent_manager.ckpt"))
        assert len(mgr.index) == 2  # restored indexed, as every manager is
        assert mgr.get("once").status is CQStatus.STOPPED
        assert mgr.get("watch").executions == 2
        # Checkpointed with an insert and a delete pending.
        notes = mgr.poll(advance_to=mgr.db.now() + 10)
        assert sorted(n.cq_name for n in notes) == ["eager", "total", "watch"]
        assert {n.kind for n in notes} == {NotificationKind.REFRESH}
        watch = next(n for n in notes if n.cq_name == "watch")
        assert {(e.old, e.new) for e in watch.delta} == {
            ((1, "DEC", 156), None),
            (None, (5, "HP", 300)),
        }
        for name, sql in [("watch", self.LIVE), ("eager", self.LIVE), ("total", self.SUMS)]:
            assert mgr.get(name).previous_result == mgr.db.query(sql)

    def test_journal_recovers_each_cq_at_its_registration(self, tmp_path):
        wal = str(tmp_path / "site.wal")
        shutil.copy(DATA / "parent_manager.wal", wal)
        mgr = recover_manager(wal)
        assert sorted(cq["name"] for cq in mgr.describe()) == ["once", "total", "watch"]
        assert {cq["last_ts"] for cq in mgr.describe()} == {1}
        assert mgr.drain() == []
        # Two commits followed the registrations; nobody had polled.
        notes = mgr.poll(advance_to=mgr.db.now() + 10)
        assert [(n.cq_name, n.kind, n.seq) for n in notes] == [
            ("watch", NotificationKind.REFRESH, 2),
            ("total", NotificationKind.REFRESH, 2),
            ("once", NotificationKind.REFRESH, 2),
            ("once", NotificationKind.STOPPED, 2),
        ]
        assert mgr.get("watch").previous_result == mgr.db.query(self.LIVE)
        assert mgr.get("total").previous_result == mgr.db.query(self.SUMS)


class TestInvariantsAreChecked:
    """``check_invariants`` is only worth running after every operation
    if it notices: each corruption below breaks one law."""

    def break_cohort(mgr, cq, cohort):
        cohort.always[cq.name] = cohort.lazy[cq.name]

    def break_late(mgr, cq, cohort):
        cohort.late["ghost"] = cq

    def break_group(mgr, cq, cohort):
        del mgr._views[cq.sql_key].members[cq.name]

    def break_readers(mgr, cq, cohort):
        mgr._views[cq.sql_key].readers += 1

    def break_alias(mgr, cq, cohort):
        cq.previous_result = cq.previous_result.copy()  # equal, not shared

    def break_last(mgr, cq, cohort):
        group = mgr._views[cq.sql_key]
        since, now, delta = group.last
        group.last = (since, mgr.db.now() + 1, delta)

    def break_window(mgr, cq, cohort):
        mgr._window = DeltaBatchCache(mgr.db)

    def break_index(mgr, cq, cohort):
        mgr.index.remove(cq.sql_key)

    def break_plans(mgr, cq, cohort):
        mgr.plans.invalidate(cq.sql_key)

    def break_watchers(mgr, cq, cohort):
        mgr._watchers["stocks"][cq.name] = cq

    def break_zone(mgr, cq, cohort):
        mgr.zones.advance(cohort.tables, mgr.db.now() + 1)

    def break_zone_set(mgr, cq, cohort):
        mgr.zones.register("ghost", cohort.tables, 0)

    def break_stats(mgr, cq, cohort):
        for name in ("ghost1", "ghost2", "ghost3"):
            mgr.stats.record(name, {Metrics.CQ_REFRESHES: 1})

    def break_retained(mgr, cq, cohort):
        cq.previous_result = cq.previous_result.copy()
        cq.previous_result.remove(next(iter(cq.previous_result.tids())))

    @pytest.mark.parametrize(
        "corrupt",
        [
            break_cohort,
            break_late,
            break_group,
            break_readers,
            break_alias,
            break_last,
            break_window,
            break_index,
            break_plans,
            break_watchers,
            break_zone,
            break_zone_set,
            break_stats,
            break_retained,
        ],
        ids=lambda corrupt: corrupt.__name__,
    )
    def test_a_broken_law_raises(self, corrupt):
        db, market, mgr = market_manager(metrics=Metrics())
        mgr.register_sql("watch", WATCH)
        mgr.register_sql("twin", WATCH)
        market.tick(20)
        mgr.poll()
        mgr.check_invariants()
        cq = mgr.get("watch")
        corrupt(mgr, cq, mgr._cohorts[cq.table_names])
        with pytest.raises(AssertionError):
            mgr.check_invariants()
