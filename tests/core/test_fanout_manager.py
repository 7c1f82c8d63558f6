"""Manager-side fan-out: index routing, shared windows, teardown.

``CQManager`` holds every non-baseline ``sql_key``'s local predicates
in one :class:`~repro.dra.predindex.PredicateIndex` (one entry per
distinct SQL text, shared by its CQs); a poll routes the consolidated
batch once and CQs outside the routed set are not visited, or return a
provably-empty delta without running an engine. CQs with identical SQL
additionally share one DRA evaluation per refresh window. The
equivalence harness proves the notification sequences match complete
re-evaluation; these tests pin the mechanics — registration, routing
skips, shared-window hits, and the deregister regression (index
entries must die with the CQ).
"""

import pytest

from repro.core import CQManager, Engine, EvaluationStrategy
from repro.metrics import Metrics
from repro.relational import AttributeType


WATCH_SQL = "SELECT sid, name, price FROM stocks WHERE price > 120"


def make_manager(db, **kwargs):
    return CQManager(
        db,
        strategy=EvaluationStrategy.PERIODIC,
        metrics=Metrics(),
        **kwargs,
    )


def indexed(mgr):
    """Names of the CQs the manager reports as index-routed."""
    return {r["name"] for r in mgr.describe() if r["sql_group_size"]}


def insert(db, table, *rows):
    with db.begin() as txn:
        for row in rows:
            txn.insert_into(db.table(table), row)


class TestIndexLifecycle:
    def test_registered_cqs_are_indexed(self, db, stocks):
        mgr = make_manager(db)
        mgr.register_sql("watch", WATCH_SQL)
        mgr.register_sql("base", WATCH_SQL, engine=Engine.REEVALUATE)
        # Baselines never read deltas: not indexed, never skipped.
        assert indexed(mgr) == {"watch"}
        # One entry per SQL text, keyed by it.
        assert mgr.get("watch").sql_key in mgr.index
        assert len(mgr.index) == 1

    def test_deregister_drops_index_entries(self, db, stocks):
        """Regression: a deregistered CQ must leave the index and its
        sql_key group — no routing work, no stale fan-out."""
        mgr = make_manager(db)
        mgr.register_sql("a", WATCH_SQL)
        mgr.register_sql("b", WATCH_SQL)
        mgr.drain()
        assert indexed(mgr) == {"a", "b"}
        assert len(mgr.index) == 1  # one shared entry
        mgr.deregister("a")
        assert indexed(mgr) == {"b"}
        assert len(mgr.index) == 1
        mgr.deregister("b")
        assert len(mgr.index) == 0
        assert mgr._views == {}
        mgr.drain()
        # Later polls route to nobody and notify nobody.
        insert(db, "stocks", (7, "NEW", 500))
        assert mgr.poll(advance_to=db.now() + 1) == []

    def test_stop_condition_also_cleans_up(self, db, stocks):
        from repro.core import AfterExecutions

        mgr = make_manager(db)
        mgr.register_sql("once", WATCH_SQL, stop=AfterExecutions(1))
        insert(db, "stocks", (7, "NEW", 500))
        mgr.poll(advance_to=db.now() + 1)
        insert(db, "stocks", (8, "NEW2", 600))
        mgr.poll(advance_to=db.now() + 1)
        assert indexed(mgr) == set()
        assert len(mgr.index) == 0


class TestRoutingSkip:
    def test_irrelevant_updates_skip_refresh_work(self, db, stocks):
        """Updates entirely outside every CQ's slice route to nobody:
        the poll produces no notifications and near-zero probes."""
        mgr = make_manager(db)
        mgr.register_sql("watch", WATCH_SQL)
        mgr.drain()
        insert(db, "stocks", (50, "LOW", 10))  # price > 120 misses
        notes = mgr.poll(advance_to=db.now() + 1)
        assert notes == []
        assert mgr.metrics[Metrics.PREDINDEX_MATCHES] == 0

    def test_relevant_updates_still_notify(self, db, stocks):
        mgr = make_manager(db)
        mgr.register_sql("watch", WATCH_SQL)
        mgr.drain()
        insert(db, "stocks", (50, "HI", 900))
        notes = mgr.poll(advance_to=db.now() + 1)
        assert len(notes) == 1
        assert mgr.metrics[Metrics.PREDINDEX_MATCHES] >= 1

    def test_immediate_strategy_also_routes(self, db, stocks):
        mgr = CQManager(
            db,
            strategy=EvaluationStrategy.IMMEDIATE,
            metrics=Metrics(),
        )
        mgr.register_sql("watch", WATCH_SQL)
        mgr.drain()
        insert(db, "stocks", (50, "LOW", 10))
        assert mgr.drain() == []
        insert(db, "stocks", (51, "HI", 900))
        notes = mgr.drain()
        assert len(notes) == 1

    def test_aggregate_cqs_take_the_fast_path(self, db, stocks):
        mgr = make_manager(db)
        mgr.register_sql(
            "total", "SELECT COUNT(*) AS n FROM stocks WHERE price > 120"
        )
        mgr.drain()
        insert(db, "stocks", (50, "LOW", 10))
        assert mgr.poll(advance_to=db.now() + 1) == []
        insert(db, "stocks", (51, "HI", 900))
        notes = mgr.poll(advance_to=db.now() + 1)
        assert len(notes) == 1


class TestSharedWindows:
    def test_identical_sql_evaluates_once_per_window(self, db, stocks):
        mgr = make_manager(db)
        for i in range(5):
            mgr.register_sql(f"w{i}", WATCH_SQL)
        mgr.drain()
        insert(db, "stocks", (50, "HI", 900))
        notes = mgr.poll(advance_to=db.now() + 1)
        assert len(notes) == 5
        # Four of the five refreshes reused the shared DRAResult.
        assert mgr.metrics[Metrics.SHARED_GROUP_HITS] == 4
        assert mgr.metrics[Metrics.SHARED_GROUPS] == 1
        # Every CQ's maintained result is independently correct.
        for i in range(5):
            assert mgr.get(f"w{i}").previous_result == db.query(WATCH_SQL)

    def test_shared_members_alias_one_replaced_result(self, db, stocks):
        """One applied relation per (sql_key, window): members alias it,
        which is safe because a retained result is replaced by the next
        refresh, never mutated (DESIGN.md §5)."""
        mgr = make_manager(db)
        a = mgr.register_sql("a", WATCH_SQL)
        b = mgr.register_sql("b", WATCH_SQL)
        insert(db, "stocks", (50, "HI", 900))
        mgr.poll(advance_to=db.now() + 1)
        shared = a.previous_result
        assert b.previous_result is shared
        frozen = shared.copy()
        insert(db, "stocks", (51, "HI", 901))
        mgr.poll(advance_to=db.now() + 1)
        assert a.previous_result is b.previous_result
        assert a.previous_result is not shared
        assert a.previous_result == db.query(WATCH_SQL)
        assert shared == frozen

    def test_the_view_result_moves_in_place_until_it_is_handed_out(
        self, db, stocks
    ):
        """A refresh moves the view's one relation where it stands
        (O(|delta|)) while nobody outside the manager holds it; reading
        ``previous_result`` hands it out, and the next step that changes
        it moves a copy instead."""
        mgr = make_manager(db)
        a = mgr.register_sql("a", WATCH_SQL)
        mgr.register_sql("b", WATCH_SQL)
        view = mgr._views[a.sql_key]
        held = view.result
        for price in (900, 901):
            insert(db, "stocks", (price, "HI", price))
            mgr.poll(advance_to=db.now() + 1)
            assert view.result is held is a.held
        snapshot = a.previous_result  # handed out
        frozen = snapshot.copy()
        insert(db, "stocks", (902, "HI", 902))
        mgr.poll(advance_to=db.now() + 1)
        assert view.result is not snapshot and snapshot == frozen
        assert view.result == db.query(WATCH_SQL)

    def test_a_poll_that_raises_leaves_no_member_behind_a_moved_result(
        self, db, stocks
    ):
        """A callback raises after the first member's turn moved the
        view's result: the members whose turns never came keep the
        result as of their window, and the next poll notifies them the
        whole of it."""
        mgr = make_manager(db)
        seen = {}

        def boom(note):
            seen.setdefault(note.cq_name, []).append(note)
            if note.cq_name == "a" and len(seen["a"]) == 2:
                raise RuntimeError("callback bug")

        for name in ("a", "b", "c"):
            mgr.register_sql(name, WATCH_SQL, on_notify=boom)
        before = db.query(WATCH_SQL)
        insert(db, "stocks", (50, "HI", 900))
        with pytest.raises(RuntimeError):
            mgr.poll(advance_to=db.now() + 1)
        mgr.check_invariants()
        for name in ("b", "c"):
            assert mgr.get(name).previous_result == before
        mgr.drain()
        insert(db, "stocks", (51, "HI", 901))
        notes = mgr.poll(advance_to=db.now() + 1)
        rows = {n.cq_name: {e.new[0] for e in n.delta} for n in notes}
        assert [n.cq_name for n in notes] == ["a", "b", "c"]
        assert rows == {"a": {51}, "b": {50, 51}, "c": {50, 51}}
        for name in ("a", "b", "c"):
            assert mgr.get(name).previous_result == db.query(WATCH_SQL)

    def test_a_handed_out_result_then_a_raise_leaves_no_member_behind(
        self, db, stocks
    ):
        """The first member's callback reads ``previous_result`` (a
        hand-out) and commits, so the next member catches up past a
        moved, handed-out result; a later callback raises before the
        last member's turn, which keeps the result as of its window."""
        mgr = make_manager(db)
        seen = {}

        def callback(note):
            seen.setdefault(note.cq_name, []).append(note)
            if len(seen[note.cq_name]) != 2:
                return
            if note.cq_name == "a":
                assert mgr.get("a").previous_result is not None  # handed out
                insert(db, "stocks", (60, "HI", 960))
            elif note.cq_name == "b":
                raise RuntimeError("callback bug")

        for name in ("a", "b", "c"):
            mgr.register_sql(name, WATCH_SQL, on_notify=callback)
        before = db.query(WATCH_SQL)
        insert(db, "stocks", (50, "HI", 900))
        with pytest.raises(RuntimeError):
            mgr.poll(advance_to=db.now() + 1)
        mgr.check_invariants()
        assert mgr.get("c").previous_result == before
        mgr.drain()
        notes = mgr.poll(advance_to=db.now() + 1)
        rows = {n.cq_name: {e.new[0] for e in n.delta} for n in notes}
        assert rows == {"a": {60}, "c": {50, 60}}
        mgr.check_invariants()
        for name in ("a", "b", "c"):
            assert mgr.get(name).previous_result == db.query(WATCH_SQL)

    def test_a_deregistered_member_keeps_its_last_result(self, db, stocks):
        """A member that leaves a view others still ride keeps the
        result of its last refresh: later steps of the view do not move
        it, whether or not ``previous_result`` was read before. One
        that nothing references any more holds nothing: the view moves
        its result in place again."""
        mgr = make_manager(db)
        a = mgr.register_sql("a", WATCH_SQL)
        mgr.register_sql("b", WATCH_SQL)
        mgr.register_sql("c", WATCH_SQL)
        view = mgr._views[a.sql_key]
        insert(db, "stocks", (50, "HI", 900))
        mgr.poll(advance_to=db.now() + 1)
        frozen = db.query(WATCH_SQL)
        mgr.deregister("a")
        insert(db, "stocks", (51, "HI", 901))
        mgr.poll(advance_to=db.now() + 1)
        mgr.check_invariants()
        assert a.previous_result == frozen
        assert view.result == db.query(WATCH_SQL)
        mgr.deregister("c")
        held = view.result
        insert(db, "stocks", (52, "HI", 902))
        mgr.poll(advance_to=db.now() + 1)
        assert view.result is held
        assert held == db.query(WATCH_SQL)
