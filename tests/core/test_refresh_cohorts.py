"""Directed tests for cohort scheduling, registration by copy, the one
commit observer per table, and what deregistration forgets.

The randomized harness (``tests/integration/test_scheduler_equivalence``)
proves whole schedules against the re-evaluation oracle; these pin the
individual rules: a poll visits routed and always-visit members only, an
unvisited member's window rides its cohort's sweep under GC, a late
joiner is visited whatever the sweep routes, a stateful data trigger is
never skipped on a touched footprint, quarantined CQs are always
visited, a registration aliases a current result instead of running
E_0, and every lazy view of a touched cohort moves in one sweep at the
start of the poll, charged to its first due member — a routed family's
window evaluated once, a view routing does not select moved by
assignment — and every other lazy member *receives* that evaluation.
"""

import gc
import weakref
from collections import deque
from collections.abc import Mapping

import pytest

from repro.core import (
    AfterExecutions,
    CQManager,
    DeliveryMode,
    Engine,
    EvaluationStrategy,
    OnUpdate,
)
from repro.core.results import NotificationKind
from repro.delta.diff import diff
from repro.relational import AttributeType
from repro.metrics import Metrics
from repro.obs import Tracer
from repro.relational.expressions import col, lit
from repro.relational.predicates import lt
from repro.workload.stocks import StockMarket

WATCH = "SELECT sid, name, price FROM stocks WHERE price > 120"
CHEAP = "SELECT sid, name, price FROM stocks WHERE price < 20"


def entries(delta):
    return sorted((e.tid, e.old, e.new) for e in delta)


def make_manager(db, **kwargs):
    return CQManager(
        db, strategy=EvaluationStrategy.PERIODIC, metrics=Metrics(), **kwargs
    )


class TestUnroutedWindows:
    def test_unrouted_cq_survives_gc_and_catches_up(self, db, stocks):
        """(i) k polls leave the CQ unvisited, GC runs between each and
        the log stays bounded; the first routed poll reads a window that
        was never pruned from under it."""
        mgr = make_manager(db)
        cq = mgr.register_sql("watch", WATCH)
        registered_at = cq.last_execution_ts
        mgr.drain()
        for i in range(8):
            stocks.insert((500 + i, "LOW", 10 + i))  # price > 120 misses
            assert mgr.poll() == []
            mgr.collect_garbage()
            assert len(stocks.log) == 0, "an unvisited CQ pinned the log"
        # Never visited: its own stamp is stale, the effective one moved.
        assert cq.last_execution_ts == registered_at
        assert mgr.describe()[0]["last_ts"] == db.now()
        assert mgr.metrics.snapshot().get(Metrics.CQ_REFRESHES, 0) == 0
        stocks.insert((600, "HI", 900))
        notes = mgr.poll()  # must not raise "log pruned through"
        assert [n.kind for n in notes] == [NotificationKind.REFRESH]
        assert cq.previous_result == db.query(WATCH)
        assert cq.last_execution_ts == db.now()

    def test_eager_cq_reads_the_log_on_commit_so_it_keeps_its_own_zone(
        self, db, stocks
    ):
        """An EAGER CQ folds every commit in from the commit observer,
        over a window that starts at its own applied-through stamp: it
        may never ride the cohort's sweep, or GC behind the sweep would
        prune the log from under the next commit."""
        mgr = make_manager(db)
        total = "SELECT SUM(price) FROM stocks WHERE price > 120"
        for name, sql in (("eager", WATCH), ("total", total)):
            mgr.register_sql(name, sql, engine=Engine.EAGER)
        mgr.register_sql("plain", WATCH)
        mgr.drain()
        for i in range(4):
            stocks.insert((500 + i, "LOW", 10 + i))  # irrelevant to all
            mgr.poll(advance_to=db.now() + 1)  # the clock passes the commit
            mgr.collect_garbage()
        stocks.insert((600, "HI", 900))  # must not raise "log pruned through"
        assert mgr.get("eager").maintained_result == db.query(WATCH)
        assert {n.cq_name for n in mgr.poll()} == {"eager", "total", "plain"}
        for name in ("eager", "plain"):
            assert mgr.get(name).previous_result == db.query(WATCH)

    def test_late_joiner_is_visited_whatever_the_sweep_routes(self, db, stocks):
        """A CQ registered after a commit its cohort has not swept: the
        cohort's consolidated window nets a change-and-revert to nothing,
        the joiner's own window does not."""
        mgr = make_manager(db)
        mgr.register_sql("early", WATCH)
        mgr.poll()
        tid = stocks.insert((700, "X", 100))
        mgr.poll()
        stocks.modify(tid, updates={"price": 200})  # enters the result
        late = mgr.register_sql("late", WATCH)  # E_0 sees price 200
        assert len(late.previous_result) == len(db.query(WATCH))
        stocks.modify(tid, updates={"price": 100})  # and leaves again
        mgr.drain()
        notes = mgr.poll()
        assert [n.cq_name for n in notes] == ["late"]
        for name in ("early", "late"):
            assert mgr.get(name).previous_result == db.query(WATCH)

    def test_armed_on_update_fires_in_its_own_poll(self, db, stocks):
        """(iii) An OnUpdate armed by a commit the query does not route
        must be visited in that poll; left armed it would fire a poll
        late, on a window the trigger never asked for."""
        mgr = make_manager(db)
        cq = mgr.register_sql(
            "armed",
            WATCH,
            trigger=OnUpdate("stocks", lt(col("price"), lit(50))),
        )
        mgr.drain()
        stocks.insert((800, "LOW", 10))  # arms; irrelevant to WATCH
        assert mgr.poll() == []
        fired_at = db.now()
        assert cq.last_execution_ts == fired_at  # visited, fired, disarmed
        stocks.insert((801, "HI", 900))  # relevant, but does not arm
        assert mgr.poll() == []
        assert cq.last_execution_ts == fired_at

    def test_quarantined_cqs_are_always_visited(self, db, stocks):
        """(v) A stale-signature group matches nothing in the index, so
        routing cannot vouch for it: every touched poll visits it."""
        mgr = make_manager(db)
        stale = mgr.register_sql("stale", WATCH)
        fresh = mgr.register_sql("fresh", CHEAP)
        mgr.drain()
        mgr.index._quarantine(stale.sql_key, keep_table="")
        assert mgr.index.stale() == {stale.sql_key}
        stocks.insert((900, "MID", 60))  # relevant to neither
        assert mgr.poll() == []
        assert stale.last_execution_ts == db.now()
        assert fresh.last_execution_ts < db.now()
        stocks.insert((901, "HI", 900))  # the index no longer routes it
        assert [n.cq_name for n in mgr.poll()] == ["stale"]
        assert stale.previous_result == db.query(WATCH)


class TestMembersReceive:
    """A routed group is evaluated once, in its cohort's sweep at the
    start of the poll, charged to the cohort's first due member in
    registration order; every lazy member whose window is that one —
    the first included — receives the delta and the group's one result
    in constant time (``CQManager._receive``)."""

    def test_one_group_fifty_members_one_evaluation(self, db, stocks):
        """(i)"""
        mgr = make_manager(db)
        order = []
        members = [
            mgr.register_sql(f"w{i}", WATCH, on_notify=order.append)
            for i in range(50)
        ]
        mgr.drain()
        del order[:]
        stocks.insert((600, "HI", 900))
        before = mgr.metrics.snapshot()
        notes = mgr.poll()
        spent = mgr.metrics.diff(before)
        assert spent[Metrics.EXECUTIONS] == 1
        assert spent[Metrics.CQ_REFRESHES] == 50
        assert spent[Metrics.SHARED_GROUP_HITS] == 49
        assert [n.cq_name for n in notes] == [f"w{i}" for i in range(50)]
        assert order == notes  # callbacks fired in registration order too
        assert {n.kind for n in notes} == {NotificationKind.REFRESH}
        assert {(n.seq, n.ts) for n in notes} == {(2, db.now())}
        assert all(n.delta is notes[0].delta for n in notes)
        one = members[0].previous_result
        assert one == db.query(WATCH)
        assert all(cq.previous_result is one for cq in members)
        assert all(cq.last_execution_ts == db.now() for cq in members)
        assert [row["refreshes"] for row in mgr.describe()] == [1] * 50
        # Receivers add no latency sample: the histogram describes
        # evaluations.
        assert mgr.stats.latency("w0").count == 1
        assert mgr.stats.latency("w1").count == 0

    def test_complete_member_gets_its_own_copy_of_the_result(self, db, stocks):
        """(ii)"""
        mgr = make_manager(db)
        diff = mgr.register_sql("diff", WATCH)
        full = mgr.register_sql("full", WATCH, mode=DeliveryMode.COMPLETE)
        mgr.drain()
        stocks.insert((600, "HI", 900))
        first, second = mgr.poll()
        assert (first.cq_name, second.cq_name) == ("diff", "full")
        assert first.result is None and first.delta is second.delta
        assert second.result == db.query(WATCH)
        assert second.result is not full.previous_result
        assert full.previous_result is diff.previous_result

    def test_member_deregistered_by_an_earlier_callback_gets_nothing(
        self, db, stocks
    ):
        """(iii)"""
        mgr = make_manager(db)
        mgr.register_sql("w0", WATCH, on_notify=lambda n: mgr.deregister("w2"))
        for name in ("w1", "w2", "w3"):
            mgr.register_sql(name, WATCH)
        mgr.drain()
        stocks.insert((600, "HI", 900))
        notes = mgr.poll()
        assert [(n.cq_name, n.kind) for n in notes] == [
            ("w0", NotificationKind.REFRESH),
            ("w2", NotificationKind.STOPPED),  # from the deregistration
            ("w1", NotificationKind.REFRESH),
            ("w3", NotificationKind.REFRESH),
        ]
        assert "w2" not in mgr and "w2" not in mgr.stats.keys()

    def test_late_joiner_never_receives_the_cohort_window(self, db, stocks):
        """(iv) Same group, same poll, different window: the joiner's
        (since, now] is its own key, so it takes the full visit."""
        mgr = make_manager(db)
        for name in ("e0", "e1"):
            mgr.register_sql(name, WATCH)
        mgr.poll()
        stocks.insert((600, "HI", 900))  # e0, e1 see it; late's E_0 has it
        late = mgr.register_sql("late", WATCH)
        stocks.insert((601, "HI", 901))
        mgr.drain()
        before = mgr.metrics.snapshot()
        notes = {n.cq_name: [e.new[0] for e in n.delta] for n in mgr.poll()}
        assert notes == {"e0": [600, 601], "e1": [600, 601], "late": [601]}
        spent = mgr.metrics.diff(before)
        assert spent[Metrics.EXECUTIONS] == 2  # the group's, the joiner's
        assert spent[Metrics.SHARED_GROUP_HITS] == 1  # e1
        assert late.previous_result == db.query(WATCH)
        # Aligned now: the next routed poll evaluates once for all three.
        stocks.insert((602, "HI", 902))
        before = mgr.metrics.snapshot()
        assert len(mgr.poll()) == 3
        assert mgr.metrics.diff(before)[Metrics.EXECUTIONS] == 1

    def test_routed_group_with_an_empty_result_delta(self, db, stocks):
        """(v) The select passes, the projection nets to nothing: the
        window moves, nobody is notified, no element joins the result
        sequence."""
        mgr = make_manager(db)
        sql = "SELECT name FROM stocks WHERE price > 120"
        members = [mgr.register_sql(f"n{i}", sql) for i in range(3)]
        tid = stocks.insert((600, "HI", 900))
        mgr.poll()
        stocks.modify(tid, updates={"price": 901})  # relevant, same name
        before = mgr.metrics.snapshot()
        assert mgr.poll() == []
        spent = mgr.metrics.diff(before)
        assert spent[Metrics.EXECUTIONS] == 1
        assert spent[Metrics.CQ_REFRESHES] == 3
        assert spent[Metrics.SHARED_GROUP_HITS] == 2
        for cq in members:
            assert cq.executions == 2
            assert cq.last_execution_ts == db.now()
            assert cq.last_result_ts < db.now()

    def test_auto_gc_prunes_behind_receive_only_cycles(self, db, stocks):
        """(vi)"""
        mgr = make_manager(db, auto_gc=True)
        members = [mgr.register_sql(f"w{i}", WATCH) for i in range(5)]
        mgr.drain()
        for i in range(20):
            stocks.insert((600 + i, "HI", 900 + i))
            assert len(mgr.poll()) == 5
            # The poll collects once, after the cohort's zone moved to
            # its end: the commit it swept is gone, not left a cycle.
            assert len(stocks.log) == 0
        assert mgr.metrics[Metrics.EXECUTIONS] == 20
        assert all(cq.previous_result == db.query(WATCH) for cq in members)

    def test_auto_gc_prunes_the_window_the_poll_swept(self, db):
        """Collecting per receiving member ran before the poll moved the
        cohort's zone, so a swept window survived until the next
        collect."""
        market = StockMarket(db, seed=1)
        market.populate(50)
        mgr = make_manager(db, auto_gc=True)
        sql = "SELECT sid, price FROM stocks WHERE price > 500"
        members = [mgr.register_sql(f"w{i}", sql) for i in range(4)]
        mgr.drain()
        market.tick(20)
        table = db.table("stocks")
        assert mgr.poll()
        assert len(table.log) == 0
        assert table.log.pruned_through == db.now()
        assert mgr.collect_garbage() == {}
        assert all(cq.previous_result == db.query(sql) for cq in members)

    def test_receive_accounting_is_pinned(self, db, stocks):
        """A 3-member routed group plus an always-visit member of the
        same text, over a routed poll (whose sweep leaves nobody out, so
        the one-template cohort stops routing), an unrouted touched poll
        and a quiet one: per-CQ rows, the shared totals and the spans,
        as they read when each receiving turn charged the shared bag
        itself (poll now charges them once)."""
        tracer = Tracer(sample_rate=1.0)
        mgr = make_manager(db, tracer=tracer)
        for name in ("w0", "w1", "w2"):
            mgr.register_sql(name, WATCH)
        armed_by_cheap_rows = OnUpdate("stocks", lt(col("price"), lit(50)))
        mgr.register_sql("always", WATCH, trigger=armed_by_cheap_rows)
        mgr.drain()
        # Routing stopped at the sweep, before w0's turn: w0 reads both
        # rows of the window unseeded.
        evaluated = {
            "cq_refreshes": 1,
            "delta_rows_read": 2,
            "executions": 1,
            "kernel_calls": 2,
            "kernel_rows": 2,
            "terms_evaluated": 1,
        }
        received = {"cq_refreshes": 1, "shared_group_hits": 1}
        shared = (
            Metrics.CQ_REFRESHES,
            Metrics.SHARED_GROUP_HITS,
            Metrics.GROUPS_SKIPPED,
        )

        def poll(commit, notified, refreshed, rows, totals):
            """``rows``: the per-CQ counters so far; ``totals``: the
            shared bag's ``shared`` counters so far."""
            tracer.reset()
            commit()
            assert [n.cq_name for n in mgr.poll()] == notified
            assert [r["cq"] for r in tracer.spans("cq.notify")] == notified
            assert [r["cq"] for r in tracer.spans("cq.refresh")] == refreshed
            assert {name: mgr.stats.counters(name) for name in rows} == rows
            assert tuple(mgr.metrics[name] for name in shared) == totals
            assert mgr.metrics[Metrics.PREDINDEX_PROBES] == 1  # the first sweep

        def routed():
            stocks.insert((600, "HI", 900))  # w0 evaluates, w1 and w2 receive
            stocks.insert((601, "LOW", 10))  # arms always, which shares it

        rows = {"w0": evaluated, "w1": received, "w2": received}
        rows["always"] = {"cq_refreshes": 1}
        poll(routed, ["w0", "w1", "w2", "always"], ["w0", "always"], rows, (4, 3, 0))
        # Unrouted, the sweep visits every lazy member: w0 evaluates an
        # irrelevant row (DRA skips on the empty selection), w1 and w2
        # receive the empty delta.
        again = {"cq_refreshes": 2, "shared_group_hits": 2}
        rows = {"w0": {**evaluated, "cq_refreshes": 2, "delta_rows_read": 3}}
        rows["w0"]["executions_skipped"] = 1
        rows.update(w1=again, w2=again, always={"cq_refreshes": 2})
        poll(
            lambda: stocks.insert((602, "LOW", 12)),  # irrelevant, arms
            [],
            ["w0", "always"],
            rows,
            (8, 6, 0),
        )
        poll(lambda: db.clock.advance_to(db.now() + 1), [], [], rows, (8, 6, 1))

    @pytest.mark.bulk
    def test_a_poll_never_evicts_a_pair_before_its_members_turn(self, db):
        """A group's evaluation lives in the poll's record of its sweep
        (``window.moved``), so it is there when the last member's
        registration-order turn comes however many groups the poll
        routes — behind a bounded memo, 300 two-member groups used to
        run 600 executions and share nothing. The first member paid for
        the cohort's sweep; the other 599 receive."""
        table = db.create_table(
            "t", [("k", AttributeType.INT), ("v", AttributeType.INT)]
        )
        tids = table.insert_many([(g, 0) for g in range(300)])
        mgr = make_manager(db)
        sqls = [f"SELECT k, v FROM t WHERE k = {g}" for g in range(300)]
        for round_ in range(2):
            for g, sql in enumerate(sqls):
                mgr.register_sql(f"r{round_}g{g}", sql)
        mgr.drain()
        with db.begin() as txn:
            for tid in tids:
                txn.modify_in(table, tid, updates={"v": 1})
        before = mgr.metrics.snapshot()
        notes = mgr.poll()
        spent = mgr.metrics.diff(before)
        assert spent[Metrics.EXECUTIONS] == 300
        assert spent[Metrics.SHARED_GROUP_HITS] == 599
        assert [n.cq_name for n in notes] == [
            f"r{round_}g{g}" for round_ in range(2) for g in range(300)
        ]
        assert {n.kind for n in notes} == {NotificationKind.REFRESH}
        for g, sql in enumerate(sqls):
            assert mgr.get(f"r1g{g}").previous_result == db.query(sql)
            assert mgr.get(f"r0g{g}").previous_result == db.query(sql)
        mgr.check_invariants()


    def test_member_that_keeps_no_result_receives_like_anyone_else(
        self, db, stocks
    ):
        """(vii) A member that retains nothing still takes the group's
        delta; it used to evaluate the window again, privately, and so
        did every keeper after it that found no pair."""
        mgr = make_manager(db)
        members = [
            mgr.register_sql(f"w{i}", WATCH, keep_result=i % 2 == 0)
            for i in range(4)
        ]
        mgr.drain()
        stocks.insert((600, "HI", 900))
        before = mgr.metrics.snapshot()
        notes = mgr.poll()
        spent = mgr.metrics.diff(before)
        assert spent[Metrics.EXECUTIONS] == 1
        assert spent[Metrics.CQ_REFRESHES] == 4
        assert spent[Metrics.SHARED_GROUP_HITS] == 3
        assert [n.cq_name for n in notes] == ["w0", "w1", "w2", "w3"]
        assert all(n.delta is notes[0].delta for n in notes)
        assert [e.new[0] for e in notes[0].delta] == [600]
        assert members[0].previous_result == db.query(WATCH)
        assert members[2].previous_result is members[0].previous_result
        assert members[1].previous_result is members[3].previous_result is None

    def test_members_of_two_views_interleave_in_registration_order(
        self, db, stocks
    ):
        """Two views of one family whose members interleave — A1, B1,
        A2, B2, ``manager_churn``'s shape: both views move in the
        cohort's sweep, charged to A1, and every other member receives;
        the turns run in registration order, not grouped by view. A commit made
        from B1's callback moves ``now`` for the turns after it: A2 and
        B2 evaluate their own windows, and every member is notified of
        that commit exactly once."""
        mgr = make_manager(db)
        pricier = "SELECT sid, name, price FROM stocks WHERE price > 130"
        texts = {"A": WATCH, "B": pricier}
        seen, order, arm = {}, [], []

        def on_notify(note):
            if note.kind is not NotificationKind.REFRESH:
                return
            order.append(note.cq_name)
            seen[note.cq_name] += [e.new[0] for e in note.delta if e.new]
            if note.cq_name == "B1" and arm:
                stocks.insert((arm.pop(), "CB", 800))

        names = ["A1", "B1", "A2", "B2"]
        for name in names:
            seen[name] = []
            mgr.register_sql(name, texts[name[0]], on_notify=on_notify)
        # Routed past, so the cohort keeps routing: a family window.
        mgr.register_sql("bystander", CHEAP)
        families = {mgr._views[sql].family for sql in texts.values()}
        assert len(families) == 1 and None not in families
        mgr.drain()
        stocks.insert((600, "HI", 900))
        before = mgr.metrics.snapshot()
        assert [n.cq_name for n in mgr.poll()] == names == order
        assert mgr.metrics.diff(before)[Metrics.EXECUTIONS] == 1
        received = {"cq_refreshes": 1, "shared_group_hits": 1}
        for name in names:
            row = mgr.stats.counters(name)
            evaluated = name == "A1"  # (B1 receives: the sweep moved B)
            assert (row == received) is not evaluated, (name, row)
            assert row["cq_refreshes"] == 1
            assert mgr.stats.latency(name).count == evaluated

        del order[:]
        arm.append(700)  # B1's callback commits once, in the next poll
        stocks.insert((601, "HI", 901))
        assert [n.cq_name for n in mgr.poll()] == names == order
        assert {name: seen[name] for name in names} == {
            "A1": [600, 601],
            "B1": [600, 601],
            "A2": [600, 601, 700],  # after B1's turn: the commit is in
            "B2": [600, 601, 700],  # their windows
        }
        # A2 and B2 stood at the views' window start, but now had moved.
        assert [mgr.stats.latency(name).count for name in names] == [2, 0, 1, 1]
        del order[:]
        assert [n.cq_name for n in mgr.poll()] == ["A1", "B1"] == order
        assert seen["A1"] == seen["B1"] == [600, 601, 700]
        assert mgr.poll() == []
        for name in names:
            assert mgr.get(name).previous_result == db.query(texts[name[0]])


class TestFamilyPass:
    """A family's one execution for a routed window ``(s, now]`` moves,
    in the cohort's sweep, every routed view of the family with a lazy
    member — each stands at ``s``, the sweeps routing skipped it having
    moved it by assignment — so the members of those views only
    receive. A late joiner's view, ahead of ``s``, moves in the same
    sweep over its own window, which its member receives. A view with
    only always-visit members, and a member whose ``now`` a callback's
    commit moved, evaluate in their own turns."""

    TEXTS = {
        "A": WATCH,  # price > 120
        "B": "SELECT sid, name, price FROM stocks WHERE price > 300",
        "C": "SELECT sid, name, price FROM stocks WHERE price > 100",
        "D": "SELECT sid, name, price FROM stocks WHERE price > 250",
    }

    def settle(self, mgr, db, names):
        """The laws hold, and every member of ``names`` with nothing
        pending holds Q(state now)."""
        mgr.check_invariants()
        pending = {r["name"] for r in mgr.describe() if r["pending_updates"]}
        for name in set(names) - pending:
            cq = mgr.get(name)
            assert cq.previous_result == db.query(self.TEXTS[name[0]]), name

    def test_one_execution_steps_a_routed_and_a_quiet_view(self, db, stocks):
        """A routed view (A), one the first poll moved by assignment (B,
        one reader) and a view whose only member is always-visit (C):
        one execution, charged to A1, and every member notified once, in
        registration order. B moved in the sweep (B1, its one reader,
        receives); C did not (C1 evaluates in its own turn)."""
        mgr = make_manager(db)
        texts = self.TEXTS
        order, seen = [], {}

        def on_notify(note):
            if note.kind is NotificationKind.REFRESH:
                order.append(note.cq_name)
                if note.cq_name == "B1":  # (after A1's turn, before C1's)
                    seen.update(
                        (name, mgr._views[texts[name]].since) for name in "ABC"
                    )

        for name in ("A1", "B1", "C1", "A2"):
            stop = AfterExecutions(100) if name == "C1" else None
            mgr.register_sql(name, texts[name[0]], stop=stop, on_notify=on_notify)
        mgr.register_sql("bystander", CHEAP)  # (routed past: routing stays on)
        names = ["A1", "B1", "C1", "A2"]
        cohort = mgr._cohorts[("stocks",)]
        assert set(cohort.always) == {"C1"}
        assert len({mgr._views[texts[v]].family for v in "ABC"} - {None}) == 1
        mgr.drain()

        since = mgr._views[texts["B"]].since
        stocks.insert((700, "MID", 200))  # A and C, not B: B moves by assignment
        assert [n.cq_name for n in mgr.poll()] == ["A1", "C1", "A2"] == order
        self.settle(mgr, db, names)
        swept = cohort.swept
        views = {v: mgr._views[texts[v]] for v in "ABC"}
        assert {views[v].since for v in "ABC"} == {swept}
        assert views["B"].last == (since, swept, None)
        assert mgr.get("B1").previous_result is views["B"].result

        del order[:]
        stocks.insert((701, "HI", 900))  # every view's window
        before = mgr.metrics.snapshot()
        latency = {name: mgr.stats.latency(name).count for name in names}
        notes = mgr.poll()
        assert [n.cq_name for n in notes] == names == order
        assert all([e.new[0] for e in n.delta] == [701] for n in notes)
        spent = mgr.metrics.diff(before)
        assert spent[Metrics.EXECUTIONS] == 1
        assert spent[Metrics.CQ_REFRESHES] == 4
        assert spent[Metrics.SHARED_GROUP_HITS] == 2  # B1 and A2 received
        stepped = {n: mgr.stats.latency(n).count - latency[n] for n in names}
        assert stepped == {"A1": 1, "B1": 0, "C1": 1, "A2": 0}
        received = {"cq_refreshes": 1, "shared_group_hits": 1}
        assert mgr.stats.counters("B1") == received
        # When B1 was notified, the sweep had moved A and B, not C.
        now = db.now()
        assert seen == {"A": now, "B": now, "C": swept}
        assert views["B"].last == (swept, now, notes[1].delta)
        self.settle(mgr, db, names)
        assert mgr.poll() == []

    def test_a_callback_commit_and_a_late_joiner_evaluate_alone(
        self, db, stocks, stocks_tids
    ):
        """The sweep steps B, and B1 (its one reader) receives. Then A1's
        callback commits: B1 and A2 stand where they did, but ``now`` has
        moved, so each evaluates its own window, and nobody steps A
        (ahead of B1's window start) again. A late joiner's view (D,
        built after a commit the cohort had not swept) is ahead of the
        cohort's window: the sweep moves it over its own window, a
        second routing and execution, which D1 receives."""
        mgr = make_manager(db)
        texts = self.TEXTS
        seen, arm = {}, []

        def on_notify(note):
            if note.kind is not NotificationKind.REFRESH:
                return
            seen.setdefault(note.cq_name, []).append(entries(note.delta))
            if note.cq_name == "A1" and arm:
                stocks.insert((arm.pop(), "CB", 800))

        names = ["A1", "B1", "A2"]
        for name in names:
            mgr.register_sql(name, texts[name[0]], on_notify=on_notify)
        mgr.register_sql("bystander", CHEAP)
        mgr.drain()

        def poll(expected, executions):
            before = mgr.metrics.snapshot()
            latency = {n: mgr.stats.latency(n).count for n in mgr._cqs}
            assert [n.cq_name for n in mgr.poll()] == expected
            assert mgr.metrics.diff(before)[Metrics.EXECUTIONS] == executions
            self.settle(mgr, db, [n for n in mgr._cqs if n != "bystander"])
            return [n for n in mgr._cqs if mgr.stats.latency(n).count > latency[n]]

        tid = stocks.insert((600, "HI", 900))
        assert poll(names, 1) == ["A1"]  # B1 and A2 received the sweep
        received = {"cq_refreshes": 1, "shared_group_hits": 1}
        assert mgr.stats.counters("B1") == received

        # A delete in the window: stepping a view from anywhere but its
        # own window start would delete the row from it twice.
        arm.append(700)
        stocks.delete(tid)
        assert poll(names, 2) == names  # (s, now] for A1; (s, now'] after
        pending = {r["name"]: r["pending_updates"] for r in mgr.describe()}
        assert [pending[n] for n in names] == [True, False, False]  # (A1's)
        assert [len(seen[n][-1]) for n in names] == [1, 2, 2]
        assert poll(["A1"], 1) == ["A1"]  # the callback's commit, once
        for name in names:
            inserted = [e[2][0] for delta in seen[name] for e in delta if e[2]]
            assert inserted == [600, 700], name

        # A late joiner, registered after a commit the sweep has not seen.
        stocks.delete(stocks_tids[100000])  # DEC@156: in A and C
        stocks.modify(stocks_tids[92394], updates={"price": 400})  # QLI into B, D
        mgr.register_sql("D1", texts["D"], on_notify=on_notify)
        assert mgr.get("D1").previous_result == db.query(texts["D"])
        mgr.drain()
        qli = stocks_tids[92394]
        stocks.modify(qli, updates={"price": 90})  # out of A and D
        new = stocks.insert((800, "NEW", 950))  # into every view
        assert poll(["A1", "B1", "A2", "D1"], 2) == ["A1"]  # (D1 receives)
        assert seen["D1"] == [
            [(qli, (92394, "QLI", 400), None), (new, None, (800, "NEW", 950))]
        ]
        assert mgr.stats.counters("B1")["shared_group_hits"] == 2
        assert mgr.poll() == []


class TestRoutingSelection:
    """A cohort routes only while routing leaves someone out: a routed
    sweep that leaves no lazy member out stops it (the next touched
    sweep visits every lazy member, unrouted — always sound); an
    unrouted sweep where a lazy member finds nothing, an install or an
    uninstall re-arms it (``Cohort.routing``). A footprint without lazy
    members never routes."""

    BANDS = [
        f"SELECT sid, price FROM stocks WHERE price >= {100 * i} "
        f"AND price < {100 * (i + 1)}"
        for i in range(5)
    ]

    def probes(self, mgr):
        return mgr.metrics.get(Metrics.PREDINDEX_PROBES)

    def test_a_cohort_routing_everyone_stops_after_its_first_window(
        self, db, stocks
    ):
        """(a) One template, every window relevant: the first window is
        routed, no later one is, and every notification is the diff of
        complete re-evaluations."""
        mgr = make_manager(db)
        members = [mgr.register_sql(f"w{i}", WATCH) for i in range(3)]
        mgr.drain()
        cohort = mgr._cohorts[("stocks",)]
        expected = db.query(WATCH)
        for i in range(6):
            stocks.insert((600 + i, "HI", 900 + i))
            notes = mgr.poll()
            before, expected = expected, db.query(WATCH)
            oracle = entries(diff(before, expected, db.now()))
            assert [n.cq_name for n in notes] == ["w0", "w1", "w2"]
            assert all(entries(n.delta) == oracle for n in notes)
            assert not cohort.routing
            if i == 0:
                probes = self.probes(mgr)
                assert probes > 0
        assert self.probes(mgr) == probes  # flat after the first window
        assert mgr.metrics[Metrics.EXECUTIONS] == 6  # one per window
        assert all(cq.previous_result == expected for cq in members)

    def test_a_cohort_routing_a_few_keeps_routing_and_skips_the_rest(
        self, db, stocks
    ):
        """(b) Many templates, each update selective: every sweep is
        routed, and only the routed members are visited."""
        mgr = make_manager(db)
        for i, sql in enumerate(self.BANDS):
            for j in range(2):
                mgr.register_sql(f"b{i}.{j}", sql)
        mgr.drain()
        cohort = mgr._cohorts[("stocks",)]
        probes = self.probes(mgr)
        for i, price in enumerate((250, 50, 450, 250)):
            stocks.insert((700 + i, "SEL", price))
            band = price // 100
            before = mgr.metrics.snapshot()
            notes = mgr.poll()
            assert [n.cq_name for n in notes] == [f"b{band}.0", f"b{band}.1"]
            assert mgr.metrics.diff(before)[Metrics.CQ_REFRESHES] == 2
            assert self.probes(mgr) > probes
            probes = self.probes(mgr)
            assert cohort.routing
        for i, sql in enumerate(self.BANDS):
            cq = mgr.get(f"b{i}.0")
            assert cq.previous_result == db.query(sql)
            if i in (1, 3):  # never routed: never visited
                assert cq.executions == 1

    def test_a_cohort_resumes_routing_when_updates_turn_selective(
        self, db, stocks
    ):
        """A poll touching every band routes every member and stops
        routing; the next, selective, poll visits every member unrouted,
        most find nothing, so routing resumes: from then on only the
        routed band is visited."""
        mgr = make_manager(db)
        for i, sql in enumerate(self.BANDS):
            for j in range(2):
                mgr.register_sql(f"b{i}.{j}", sql)
        mgr.drain()
        cohort = mgr._cohorts[("stocks",)]
        for i in range(5):
            stocks.insert((720 + i, "ALL", 100 * i + 50))
        assert len(mgr.poll()) == 10
        assert not cohort.routing
        for i, price in enumerate((250, 260, 50, 450, 270)):
            stocks.insert((730 + i, "SEL", price))
            band = price // 100
            before = mgr.metrics.snapshot()
            notes = mgr.poll()
            assert [n.cq_name for n in notes] == [f"b{band}.0", f"b{band}.1"]
            refreshes = mgr.metrics.diff(before)[Metrics.CQ_REFRESHES]
            assert refreshes == (10 if i == 0 else 2)  # unrouted, then routed
            assert cohort.routing
        for i, sql in enumerate(self.BANDS):
            cq = mgr.get(f"b{i}.0")
            assert cq.previous_result == db.query(sql)
            if i in (1, 3):  # routed nowhere since the unrouted poll
                assert mgr.stats.counters(cq.name)[Metrics.CQ_REFRESHES] == 2

    def test_footprints_without_lazy_members_read_unrouted(self, db, stocks):
        """Routing is chosen where a sweep of lazy members observes it,
        and paid nowhere else: an EAGER fold, CQs whose trigger or stop
        is tested on every poll, and IMMEDIATE refreshes read their
        windows unrouted."""
        periodic = make_manager(db)
        periodic.register_sql("eager", WATCH, engine=Engine.EAGER)
        periodic.register_sql("stopping", CHEAP, stop=AfterExecutions(100))
        armed_by_cheap_rows = OnUpdate("stocks", lt(col("price"), lit(50)))
        periodic.register_sql("armed", WATCH, trigger=armed_by_cheap_rows)
        immediate = CQManager(db, metrics=Metrics())
        immediate.register_sql("watch", WATCH)
        for i in range(4):
            stocks.insert((740 + i, "LOW", 10 + i))
            stocks.insert((750 + i, "HI", 900 + i))
            periodic.poll()
        assert self.probes(periodic) == self.probes(immediate) == 0
        for mgr in (periodic, immediate):
            for cq in mgr.active():
                assert cq.previous_result == db.query(cq.query), cq.name

    def test_registering_or_deregistering_re_arms_routing(self, db, stocks):
        """(c) Once a cohort stopped routing, a register or a deregister
        into it turns routing back on for its next sweep."""
        mgr = make_manager(db)
        mgr.register_sql("low", self.BANDS[1])
        mgr.drain()
        cohort = mgr._cohorts[("stocks",)]

        def poll_routed(price):
            probes = self.probes(mgr)
            stocks.insert((800 + price, "R", price))
            mgr.poll()
            return self.probes(mgr) > probes

        assert poll_routed(150) and not cohort.routing
        assert not poll_routed(160)
        mgr.register_sql("high", self.BANDS[4])
        assert cohort.routing
        assert poll_routed(170) and cohort.routing  # "high" was left out
        assert poll_routed(480) and cohort.routing  # "low" was left out
        mgr.register_sql("low2", self.BANDS[1])
        assert poll_routed(490) and cohort.routing
        mgr.deregister("low")
        mgr.deregister("low2")
        assert cohort.routing
        assert poll_routed(495) and not cohort.routing  # it routed everyone
        assert mgr.get("high").previous_result == db.query(self.BANDS[4])


class TestOneWindow:
    """Whatever is keyed by a refresh window — consolidated batches,
    routing passes — lives in one ``DeltaBatchCache`` that is open for
    one poll, or one observed commit under IMMEDIATE, and unreachable
    afterwards: nothing to bound, nothing to clear."""

    def register(self, mgr, count):
        """``count`` same-text CQs; each REFRESH appends a weak
        reference to the window it was delivered in."""
        windows = []

        def note_window(note):
            if note.kind is NotificationKind.REFRESH:
                windows.append(weakref.ref(mgr._window))

        for i in range(count):
            mgr.register_sql(f"w{i}", WATCH, on_notify=note_window)
        mgr.drain()
        return windows

    def assert_no_window_left(self, mgr, windows):
        assert mgr._window is None
        # No attribute holds anything keyed by (..., since, now).
        for value in vars(mgr).values():
            if isinstance(value, Mapping):
                assert not any(isinstance(key, tuple) and len(key) == 3 for key in value)
        gc.collect()
        assert windows and not any(ref() is not None for ref in windows)

    def test_immediate_cqs_observing_a_commit_share_one_consolidation(
        self, db, stocks
    ):
        mgr = CQManager(db, metrics=Metrics())
        windows = self.register(mgr, 5)
        before = mgr.metrics.snapshot()
        for i in range(200):
            stocks.insert((600 + i, "HI", 900 + i))
            self.assert_no_window_left(mgr, windows[-5:])
        spent = mgr.metrics.diff(before)
        # No sweep, so no routing: only a lazy member's footprint routes.
        assert Metrics.PREDINDEX_PROBES not in spent
        assert spent[Metrics.EXECUTIONS] == 200
        assert spent[Metrics.DELTA_BATCHES_COMPUTED] == 200
        assert spent[Metrics.DELTA_BATCHES_REUSED] == 800
        assert spent[Metrics.CQ_REFRESHES] == 1000
        assert len(windows) == 1000 and len(mgr.drain()) == 1000
        assert all(
            mgr.get(f"w{i}").previous_result == db.query(WATCH) for i in range(5)
        )

    def test_a_poll_leaves_no_window_behind(self, db, stocks):
        mgr = make_manager(db)
        windows = self.register(mgr, 3)
        stocks.insert((600, "HI", 900))
        assert len(mgr.poll()) == 3
        self.assert_no_window_left(mgr, windows)

    def test_commit_from_a_callback_reads_the_enclosing_window(self, db, stocks):
        """A nested observe must neither close the window it found open
        nor be served a batch that misses its own commit."""
        mgr = CQManager(db, metrics=Metrics())
        budget, windows = [1], []

        def commit_once(note):
            windows.append(mgr._window)
            if note.kind is NotificationKind.REFRESH and budget[0]:
                budget[0] -= 1
                stocks.insert((701, "CB", 800))
                assert mgr._window is windows[0]  # restored, not closed

        mgr.register_sql("first", WATCH, on_notify=commit_once)
        mgr.register_sql("second", WATCH, on_notify=commit_once)
        mgr.drain()
        del windows[:]
        stocks.insert((700, "HI", 900))
        seen = [[e.new[0] for e in n.delta] for n in mgr.drain()]
        # first sees 700 and commits 701; the nested observe hands 701
        # to first, then both to second, inside the outer window.
        assert seen == [[700], [701], [700, 701]]
        assert len({id(window) for window in windows}) == 1
        assert mgr._window is None
        for name in ("first", "second"):
            assert mgr.get(name).previous_result == db.query(WATCH)


class TestQuietVisitsAfterGC:
    def test_pruning_past_a_window_start_is_not_a_commit(self, db):
        """An always-visited CQ's quiet visit folds its zone ahead of
        its last execution; GC then prunes past that stamp. Nothing was
        committed, so the next poll must not refresh it (ROADMAP 3(d):
        ``UpdateLog.newest_ts`` survives pruning, ``pruned_through`` is
        no longer read as "touched")."""
        table = db.create_table(
            "t", [("k", AttributeType.INT), ("v", AttributeType.INT)]
        )
        mgr = make_manager(db)
        cq = mgr.register_sql(
            "sum", "SELECT SUM(v) AS s FROM t", stop=AfterExecutions(10)
        )
        mgr.drain()
        table.insert((1, 5))
        assert len(mgr.poll()) == 1
        executed_at = cq.last_execution_ts
        assert mgr.poll(advance_to=db.now() + 5) == []  # quiet: zone moves
        mgr.collect_garbage()
        assert table.log.pruned_through > executed_at
        before = mgr.metrics.snapshot()
        assert mgr.poll() == []
        assert mgr.metrics.diff(before).get(Metrics.CQ_REFRESHES, 0) == 0
        assert cq.last_execution_ts == executed_at
        assert table.log.newest_ts == executed_at
        table.insert((2, 6))  # a real commit still reads touched
        assert len(mgr.poll()) == 1
        assert cq.previous_result == db.query("SELECT SUM(v) AS s FROM t")


class TestCommitsMadeDuringAPoll:
    def test_callback_commit_is_notified_exactly_once(self, db, stocks):
        """A commit made from inside ``on_notify`` lands in the window
        of every CQ the poll visits afterwards (a window ends at the
        log's tail). Each visit is stamped with the time its window
        really ended, so the next poll does not hand the same commit
        to those CQs a second time."""
        mgr = make_manager(db)
        all_rows = "SELECT sid, name, price FROM stocks"
        sqls = {
            "first": all_rows,  # its callback commits
            "later": WATCH,
            "twin": WATCH,  # shares later's evaluation
            "eager": WATCH,
            "base": WATCH,
        }
        engines = {"eager": Engine.EAGER, "base": Engine.REEVALUATE}
        seen = {name: [] for name in sqls}
        budget = [2]  # the callback commits on its first two refreshes

        def on_notify(note):
            if note.kind is not NotificationKind.REFRESH:
                return
            seen[note.cq_name].extend(e.new[0] for e in note.delta if e.new)
            if note.cq_name == "first" and budget[0]:
                budget[0] -= 1
                stocks.insert((700 + budget[0], "CB", 800))

        for name, sql in sqls.items():
            mgr.register_sql(
                name,
                sql,
                engine=engines.get(name, Engine.DRA),
                on_notify=on_notify,
            )
        mgr.register_sql("total", "SELECT COUNT(*) AS n FROM stocks")
        stocks.insert((600, "HI", 900))
        for __ in range(4):
            mgr.poll()
            # A CQ is current, or the commit it lacks is still pending
            # for it (made after its visit, or after the poll chose
            # whom to visit) — never silently behind.
            for row in mgr.describe():
                cq = mgr.get(row["name"])
                current = cq.previous_result == db.query(cq.query)
                assert current != row["pending_updates"], row["name"]
        assert not any(row["pending_updates"] for row in mgr.describe())
        assert seen == {name: [600, 701, 700] for name in sqls}
        assert mgr.poll() == []


class TestRegistrationByCopy:
    def test_copy_when_current_else_initial_execution(self, db, stocks):
        """(ii) A same-text registration aliases the view's result while
        it is current (results are replaced, never mutated), and runs
        E_0 once a commit is pending."""
        mgr = make_manager(db)
        donor = mgr.register_sql("donor", WATCH)
        scanned = mgr.metrics[Metrics.ROWS_SCANNED]
        initial = []
        copied = mgr.register_sql("copied", WATCH, on_notify=initial.append)
        assert mgr.metrics[Metrics.ROWS_SCANNED] == scanned  # no E_0
        stocks.insert((950, "HI", 900))  # pending since donor's window start
        evaluated = mgr.register_sql("evaluated", WATCH, on_notify=initial.append)
        assert mgr.metrics[Metrics.ROWS_SCANNED] > scanned
        assert [n.kind for n in initial] == [NotificationKind.INITIAL] * 2
        assert initial[0].result != initial[1].result
        assert copied.previous_result == donor.previous_result
        assert evaluated.previous_result == db.query(WATCH)
        for note, cq in zip(initial, (copied, evaluated)):
            assert note.result == cq.previous_result
            assert note.result is not cq.previous_result
            assert note.result is not donor.previous_result
        assert copied.previous_result is donor.previous_result
        assert evaluated.previous_result is not donor.previous_result
        mgr.poll()
        for name in ("donor", "copied", "evaluated"):
            assert mgr.get(name).previous_result == db.query(WATCH)

    def test_a_joiner_aliases_a_current_view_and_gets_q_now_behind_one(
        self, db, stocks
    ):
        """Joining a live view is a membership: while the view's result
        is Q(state now) — it stands at now, the sweep having moved it
        past commits routed away from it by assignment — the joiner
        aliases it: no plan lookup, no E_0, no copy, and the text's key
        rendered once. A joiner of a view behind a pending commit still
        starts from Q(state now)."""
        mgr = make_manager(db)
        first = mgr.register_sql("w0", WATCH)
        mgr.register_sql("bystander", CHEAP)  # (keeps the cohort routing)
        view = mgr._views[first.sql_key]
        spent = mgr.metrics.snapshot()
        joined = mgr.register_sql("w1", WATCH)
        assert joined.sql_key is first.sql_key
        assert joined.previous_result is view.result is first.previous_result
        spent = mgr.metrics.diff(spent)
        for name in (
            Metrics.PLAN_CACHE_HITS,
            Metrics.PLANS_PREPARED,
            Metrics.ROWS_SCANNED,
        ):
            assert spent.get(name, 0) == 0, name
        mgr.drain()
        stocks.insert((700, "LOW", 10))  # routed to CHEAP only
        assert [n.cq_name for n in mgr.poll()] == ["bystander"]
        assert view.since == db.now()
        routed_past = mgr.register_sql("w2", WATCH)
        assert routed_past.previous_result is view.result
        mgr.check_invariants()
        mgr.drain()
        stocks.insert((701, "HI", 900))  # pending for every WATCH member
        behind = mgr.register_sql("w3", WATCH)
        assert behind.previous_result == db.query(WATCH) != view.result
        mgr.check_invariants()
        mgr.drain()
        assert [n.cq_name for n in mgr.poll()] == ["w0", "w1", "w2"]
        for name in ("w0", "w1", "w2", "w3"):
            assert mgr.get(name).previous_result == db.query(WATCH), name
        mgr.check_invariants()

    def test_baseline_member_shares_the_result_but_not_the_routing(
        self, db, stocks
    ):
        """A REEVALUATE CQ joins its text's group (it can donate its
        result) but never reads deltas: the index entry, the shared
        evaluation and the group counters follow the delta readers."""
        mgr = make_manager(db)
        mgr.register_sql("base", WATCH, engine=Engine.REEVALUATE)
        assert len(mgr.index) == 0
        scanned = mgr.metrics[Metrics.ROWS_SCANNED]
        mgr.register_sql("watch", WATCH)  # aliases the baseline's result
        assert mgr.metrics[Metrics.ROWS_SCANNED] == scanned
        assert mgr.metrics[Metrics.SHARED_GROUPS] == 1
        assert len(mgr.index) == 1
        stocks.insert((950, "HI", 900))
        assert {n.cq_name for n in mgr.poll()} == {"base", "watch"}
        # Nobody to share an evaluation with.
        assert mgr.metrics.snapshot().get(Metrics.SHARED_GROUP_HITS, 0) == 0
        sizes = {r["name"]: r["sql_group_size"] for r in mgr.describe()}
        assert sizes == {"base": 0, "watch": 1}
        mgr.deregister("watch")
        assert len(mgr.index) == 0  # left with its last delta reader
        stocks.insert((951, "HI", 901))
        mgr.poll()
        assert mgr.get("base").previous_result == db.query(WATCH)
        mgr.deregister("base")
        assert len(mgr.plans) == 0  # the plan leaves with the last member

    def test_members_share_one_plan_and_one_index_entry(self, db, stocks):
        mgr = make_manager(db)
        for i in range(4):
            mgr.register_sql(f"w{i}", WATCH)
        assert len(mgr.plans) == 1 and len(mgr.index) == 1
        assert mgr.metrics[Metrics.PLANS_PREPARED] == 1
        for i in range(3):
            mgr.deregister(f"w{i}")
        assert len(mgr.plans) == 1 and len(mgr.index) == 1
        mgr.deregister("w3")
        assert len(mgr.plans) == 0 and len(mgr.index) == 0


class TestOneObserverPerTable:
    def test_observer_count_is_independent_of_cq_count(self, db, stocks):
        """(iv) One commit observer per (manager, table), gone with the
        last CQ reading the table."""
        mgr = CQManager(db)  # IMMEDIATE: every CQ observes
        for i in range(500):
            mgr.register_sql(f"q{i}", WATCH if i % 2 else CHEAP)
        assert len(stocks._observers) == 1
        stocks.insert((990, "HI", 900))
        assert len(mgr.drain()) == 500 + 250  # INITIALs + WATCH refreshes
        for i in range(499):
            mgr.deregister(f"q{i}")
        assert len(stocks._observers) == 1
        mgr.deregister("q499")
        assert len(stocks._observers) == 0
        assert not mgr._cohorts and not mgr._watchers and not mgr._views


def names_keyed(manager, names):
    """The members of ``names`` that any mapping reachable from the
    manager's attributes (through mappings and ``repro.core``/``obs``
    objects such as cohorts, zones and stats) is keyed by."""
    held, seen, stack = set(), {id(manager)}, list(vars(manager).values())
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, Mapping):
            held.update(key for key in item if key in names)
            stack.extend(item.values())
        elif type(item).__module__.startswith(("repro.core", "repro.obs")):
            slots = getattr(type(item), "__slots__", ())
            stack.extend(getattr(item, slot) for slot in slots)
            stack.extend(getattr(item, "__dict__", {}).values())
    return held


class TestDeregisterForgets:
    def churn(self, db):
        market = StockMarket(db, seed=5)
        market.populate(60)
        mgr = make_manager(db, history_limit=4)
        sqls = [
            f"SELECT sid, price FROM stocks WHERE price > {40 * i}"
            for i in range(6)
        ]
        live = deque()
        issued = 0
        for cycle in range(50):
            for __ in range(3):
                if len(live) >= 12:
                    mgr.deregister(live.popleft())
                name = f"sub{issued}"
                mgr.register_sql(name, sqls[issued % len(sqls)])
                live.append(name)
                issued += 1
            market.tick(8, p_insert=0.2, p_delete=0.2)
            mgr.poll()
        self.issued = {f"sub{i}" for i in range(issued)}
        return mgr, set(live)

    def test_stats_and_history_die_with_the_cq(self, db):
        """The six templates overlap, so every tick routes each live CQ
        and after 50 churn cycles the stats table holds exactly the live
        CQs."""
        mgr, live = self.churn(db)
        assert len(mgr) == len(live) == 12
        assert len(mgr.stats) == len(mgr)
        assert set(mgr.stats.keys()) == live
        # No attribute of the manager is keyed by a deregistered name.
        assert names_keyed(mgr, self.issued) == live
        assert all(mgr.history(name) for name in live)
        assert not any(mgr.history(name) for name in self.issued - live)

    def test_indexed_manager_keeps_stats_for_visited_cqs_only(self, db):
        mgr, live = self.churn(db)
        assert set(mgr.stats.keys()) <= live
        assert names_keyed(mgr, self.issued) == live
        assert len(mgr.plans) <= 6 and len(mgr.index) <= 6

    def test_self_stopped_cq_stays_visible(self, db, stocks):
        from repro.core import AfterExecutions

        mgr = make_manager(db)
        mgr.register_sql("once", WATCH, stop=AfterExecutions(2))
        stocks.insert((7, "NEW", 500))
        mgr.poll()
        assert mgr.get("once").status.value == "stopped"
        assert "once" in mgr.stats.keys()
        mgr.deregister("once")
        assert len(mgr.stats) == 0

    def test_server_forgets_a_name_with_its_last_subscription(self, db, stocks):
        from repro.net.client import CQClient
        from repro.net.server import CQServer
        from repro.net.simnet import SimulatedNetwork

        server = CQServer(db, SimulatedNetwork(), metrics=Metrics())
        for client_id in ("c1", "c2"):
            client = CQClient(client_id)
            server.attach(client)
            client.register("watch", WATCH)
        stocks.insert((7, "NEW", 500))
        server.refresh_all()
        assert server.stats.keys() == ["watch"]
        server.deregister("c1", "watch")
        assert server.stats.keys() == ["watch"]  # c2 still holds the name
        server.deregister("c2", "watch")
        assert len(server.stats) == 0

    def test_restored_server_counts_the_holders_of_a_name(self, db, stocks):
        from repro.core.persistence import server_from_dict, server_to_dict
        from repro.net.client import CQClient
        from repro.net.server import CQServer
        from repro.net.simnet import SimulatedNetwork

        server = CQServer(db, SimulatedNetwork())
        for client_id in ("c1", "c2"):
            client = CQClient(client_id)
            server.attach(client)
            client.register("watch", WATCH)
        restored = server_from_dict(server_to_dict(server))
        restored.stats.record("watch", {Metrics.CQ_REFRESHES: 1})
        restored.deregister("c1", "watch")
        assert restored.stats.keys() == ["watch"]
        restored.deregister("c2", "watch")
        assert len(restored.stats) == 0


class TestCheckpointOfUnvisitedCQs:
    def test_checkpoint_records_the_effective_window_start(self, db, stocks):
        """A lazy CQ's own stamp goes stale while polls skip it and GC
        prunes behind the cohort; the checkpoint must carry the window
        start the next refresh would really use."""
        from repro.core.persistence import manager_from_dict, manager_to_dict

        mgr = make_manager(db)
        cq = mgr.register_sql("watch", WATCH)
        for i in range(3):
            stocks.insert((500 + i, "LOW", 10 + i))
            mgr.poll()
            mgr.collect_garbage()
        assert cq.last_execution_ts < db.now()
        stocks.insert((600, "HI", 900))  # pending at checkpoint time
        pending_from = db.now() - 1
        data = manager_to_dict(mgr)
        assert data["cqs"][0]["last_execution_ts"] == pending_from
        restored = manager_from_dict(data)
        assert len(restored.db.table("stocks")._observers) == 1
        assert len(restored.get("watch").previous_result) == len(cq.previous_result)
        notes = restored.poll()
        assert [n.kind for n in notes] == [NotificationKind.REFRESH]
        assert restored.get("watch").previous_result == restored.db.query(WATCH)
