"""Failure injection: the system stays consistent when parts misbehave."""

import pytest

from repro import Database
from repro.core import CQManager, EvaluationStrategy
from repro.dra.assembly import WeightInvariantError, to_delta
from repro.errors import DeltaConsolidationError
from repro.relational import AttributeType, Schema, parse_query
from repro.relational.types import AttributeType as AT
from repro.storage.update_log import UpdateKind, UpdateRecord

WATCH = "SELECT name FROM stocks WHERE price > 120"


class TestObserverFailures:
    def test_commit_is_durable_before_observers_run(self, db, stocks):
        """An observer exception surfaces to the committer, but the
        transaction's effects and log records are already applied."""

        def exploding(table, records):
            raise RuntimeError("observer bug")

        stocks.subscribe(exploding)
        before = len(stocks)
        with pytest.raises(RuntimeError):
            stocks.insert((9, "SUN", 500))
        assert len(stocks) == before + 1  # the insert stuck
        assert stocks.log.latest_ts() == db.now()

    def test_unsubscribed_observer_never_fires_again(self, db, stocks):
        calls = []
        unsubscribe = stocks.subscribe(lambda t, r: calls.append(1))
        stocks.insert((8, "A", 1))
        unsubscribe()
        stocks.insert((9, "B", 1))
        assert len(calls) == 1

    def test_later_observers_still_run_after_recovery(self, db, stocks):
        """After a failing observer is removed, the system proceeds."""

        def exploding(table, records):
            raise RuntimeError("boom")

        unsubscribe = stocks.subscribe(exploding)
        with pytest.raises(RuntimeError):
            stocks.insert((9, "SUN", 500))
        unsubscribe()
        mgr = CQManager(db)
        mgr.register_sql("watch", WATCH)
        mgr.drain()
        stocks.insert((10, "MOON", 600))
        assert len(mgr.drain()) == 1


class TestCorruptDeltaInputs:
    def test_weight_invariant_two_inserts_same_tid(self):
        schema = Schema.of(("x", AT.INT))
        # Two +1 rows for one tid: impossible under set semantics.
        weights = {(1, (5,)): 1, (1, (6,)): 1}
        with pytest.raises(WeightInvariantError):
            to_delta(weights, schema, ts=1)

    def test_weight_invariant_out_of_range(self):
        schema = Schema.of(("x", AT.INT))
        with pytest.raises(WeightInvariantError):
            to_delta({(1, (5,)): 2}, schema, ts=1)
        with pytest.raises(WeightInvariantError):
            to_delta({(1, (5,)): -2}, schema, ts=1)

    def test_weight_invariant_pair_tid_collisions(self):
        schema = Schema.of(("x", AT.INT))
        # Pair rows' modifies: (result tids, old values, new values).
        # A pair row's result tid meets a signed row's, on either side ...
        for weights in ({(1, (5,)): 1}, {(1, (5,)): -1}):
            with pytest.raises(WeightInvariantError):
                to_delta(weights, schema, 1, ([1], [(4,)], [(6,)]))
        # ... or another pair row's.
        with pytest.raises(WeightInvariantError):
            to_delta({}, schema, 1, ([1, 1], [(4,), (5,)], [(6,), (7,)]))
        delta = to_delta({(2, (5,)): 1}, schema, 1, ([1], [(4,)], [(6,)]))
        assert {(e.tid, e.old, e.new) for e in delta} == {
            (1, (4,), (6,)),
            (2, None, (5,)),
        }

    def test_inconsistent_log_chain_detected(self):
        from repro.delta.differential import DeltaRelation

        schema = Schema.of(("x", AT.INT))
        records = [
            UpdateRecord(UpdateKind.INSERT, 1, None, (5,), 1, 1),
            UpdateRecord(UpdateKind.MODIFY, 1, (999,), (6,), 2, 2),  # bad old
        ]
        with pytest.raises(DeltaConsolidationError):
            DeltaRelation.from_records(schema, records)


class TestGCWindowViolations:
    def test_reading_pruned_window_raises_loudly(self, db, stocks):
        """Asking DRA for a window older than the GC horizon must fail,
        never silently return a partial delta."""
        from repro.dra.algorithm import dra_execute

        stale_ts = db.now()
        stocks.insert((9, "SUN", 500))
        stocks.log.prune_before(db.now())
        with pytest.raises(ValueError):
            dra_execute(parse_query(WATCH), db, since=stale_ts)

    def test_manager_never_reads_pruned_windows(self, db, stocks):
        """The manager's zone accounting keeps it inside safe windows
        even under aggressive auto-GC."""
        mgr = CQManager(db, auto_gc=True)
        mgr.register_sql("watch", WATCH)
        for i in range(20):
            stocks.insert((100 + i, "SUN", 500 + i))
        # 20 refreshes with GC after each: no window violation raised.
        assert mgr.get("watch").previous_result == db.query(WATCH)


class TestTransactionAbortPaths:
    def test_abort_leaves_no_log_records(self, db, stocks):
        before = len(stocks.log)
        txn = db.begin()
        txn.insert_into(stocks, (9, "SUN", 500))
        txn.abort()
        assert len(stocks.log) == before

    def test_abort_reserved_tids_never_reused(self, db, stocks):
        txn = db.begin()
        tid = txn.insert_into(stocks, (9, "SUN", 500))
        txn.abort()
        new_tid = stocks.insert((10, "MOON", 600))
        assert new_tid != tid  # gaps are fine; collisions are not

    def test_failed_validation_aborts_cleanly(self, db, stocks):
        from repro.errors import NoSuchTupleError

        with pytest.raises(NoSuchTupleError):
            with db.begin() as txn:
                txn.insert_into(stocks, (9, "SUN", 500))
                txn.delete_from(stocks, 424242)  # no such tuple
        # The whole transaction rolled back, including the valid insert.
        assert all(row.values[0] != 9 for row in stocks.rows())


class TestManagerReentrancy:
    def test_immediate_cq_registering_during_notification(self, db, stocks):
        """A notification callback that registers another CQ must not
        corrupt the manager's iteration state."""
        mgr = CQManager(db, strategy=EvaluationStrategy.IMMEDIATE)
        registered = []

        def register_more(note):
            if not registered and "second" not in mgr:
                registered.append(True)
                mgr.register_sql("second", WATCH)

        mgr.register_sql("first", WATCH, on_notify=register_more)
        stocks.insert((9, "SUN", 500))
        assert "second" in mgr
        stocks.insert((10, "MOON", 600))
        names = {n.cq_name for n in mgr.drain()}
        assert {"first", "second"} <= names
