"""Directed tests for cohort scheduling, registration by copy, the one
commit observer per table, and what deregistration forgets.

The randomized harness (``tests/integration/test_scheduler_equivalence``)
proves whole schedules against the re-evaluation oracle; these pin the
individual rules: a poll visits routed and always-visit members only, an
unvisited member's window rides its cohort's sweep under GC, a late
joiner is visited whatever the sweep routes, a stateful data trigger is
never skipped on a touched footprint, quarantined CQs are always
visited, and a registration copies a current result instead of running
E_0.
"""

from collections import deque
from collections.abc import Mapping

import pytest

from repro.core import CQManager, Engine, EvaluationStrategy, OnUpdate
from repro.core.results import NotificationKind
from repro.metrics import Metrics
from repro.relational.expressions import col, lit
from repro.relational.predicates import lt
from repro.workload.stocks import StockMarket

WATCH = "SELECT sid, name, price FROM stocks WHERE price > 120"
CHEAP = "SELECT sid, name, price FROM stocks WHERE price < 20"


def make_manager(db, fanout=True, **kwargs):
    return CQManager(
        db,
        strategy=EvaluationStrategy.PERIODIC,
        metrics=Metrics(),
        fanout=fanout,
        **kwargs,
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
        mgr.fanout_index._quarantine(stale.sql_key, keep_table="")
        assert mgr.fanout_index.stale() == {stale.sql_key}
        stocks.insert((900, "MID", 60))  # relevant to neither
        assert mgr.poll() == []
        assert stale.last_execution_ts == db.now()
        assert fresh.last_execution_ts < db.now()
        stocks.insert((901, "HI", 900))  # the index no longer routes it
        assert [n.cq_name for n in mgr.poll()] == ["stale"]
        assert stale.previous_result == db.query(WATCH)


class TestCommitsMadeDuringAPoll:
    @pytest.mark.parametrize("fanout", [False, True], ids=["plain", "fanout"])
    def test_callback_commit_is_notified_exactly_once(self, db, stocks, fanout):
        """A commit made from inside ``on_notify`` lands in the window
        of every CQ the poll visits afterwards (a window ends at the
        log's tail). Each visit is stamped with the time its window
        really ended, so the next poll does not hand the same commit
        to those CQs a second time."""
        mgr = make_manager(db, fanout=fanout)
        all_rows = "SELECT sid, name, price FROM stocks"
        sqls = {
            "first": all_rows,  # its callback commits
            "later": WATCH,
            "twin": WATCH,  # shares later's evaluation on an indexed manager
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
        """(ii) A same-text registration copies a live member's result
        while it is current, and runs E_0 once a commit is pending."""
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
            assert cq.previous_result is not donor.previous_result
        mgr.poll()
        for name in ("donor", "copied", "evaluated"):
            assert mgr.get(name).previous_result == db.query(WATCH)

    def test_baseline_member_shares_the_result_but_not_the_routing(
        self, db, stocks
    ):
        """A REEVALUATE CQ joins its text's group (it can donate its
        result) but never reads deltas: the index entry, the shared
        evaluation and the group counters follow the delta readers."""
        mgr = make_manager(db)
        mgr.register_sql("base", WATCH, engine=Engine.REEVALUATE)
        assert len(mgr.fanout_index) == 0
        scanned = mgr.metrics[Metrics.ROWS_SCANNED]
        mgr.register_sql("watch", WATCH)  # copied from the baseline
        assert mgr.metrics[Metrics.ROWS_SCANNED] == scanned
        assert mgr.metrics[Metrics.SHARED_GROUPS] == 1
        assert len(mgr.fanout_index) == 1
        stocks.insert((950, "HI", 900))
        assert {n.cq_name for n in mgr.poll()} == {"base", "watch"}
        assert not mgr._shared_results  # nobody to share an evaluation with
        sizes = {r["name"]: r["sql_group_size"] for r in mgr.describe()}
        assert sizes == {"base": 0, "watch": 1}
        mgr.deregister("watch")
        assert len(mgr.fanout_index) == 0  # left with its last delta reader
        stocks.insert((951, "HI", 901))
        mgr.poll()
        assert mgr.get("base").previous_result == db.query(WATCH)
        mgr.deregister("base")
        assert len(mgr.plans) == 0  # the plan leaves with the last member

    def test_members_share_one_plan_and_one_index_entry(self, db, stocks):
        mgr = make_manager(db)
        for i in range(4):
            mgr.register_sql(f"w{i}", WATCH)
        assert len(mgr.plans) == 1 and len(mgr.fanout_index) == 1
        assert mgr.metrics[Metrics.PLANS_PREPARED] == 1
        for i in range(3):
            mgr.deregister(f"w{i}")
        assert len(mgr.plans) == 1 and len(mgr.fanout_index) == 1
        mgr.deregister("w3")
        assert len(mgr.plans) == 0 and len(mgr.fanout_index) == 0


class TestOneObserverPerTable:
    def test_observer_count_is_independent_of_cq_count(self, db, stocks):
        """(iv) One commit observer per (manager, table), gone with the
        last CQ reading the table."""
        mgr = CQManager(db, fanout=True)  # IMMEDIATE: every CQ observes
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
        assert not mgr._cohorts and not mgr._watchers and not mgr._sql_groups


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
    def churn(self, db, fanout):
        market = StockMarket(db, seed=5)
        market.populate(60)
        mgr = make_manager(db, fanout=fanout, history_limit=4)
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
        """Every CQ is visited on a manager without an index, so after
        50 churn cycles the stats table holds exactly the live CQs."""
        mgr, live = self.churn(db, fanout=False)
        assert len(mgr) == len(live) == 12
        assert len(mgr.stats) == len(mgr)
        assert set(mgr.stats.keys()) == live
        # No attribute of the manager is keyed by a deregistered name.
        assert names_keyed(mgr, self.issued) == live
        assert all(mgr.history(name) for name in live)
        assert not any(mgr.history(name) for name in self.issued - live)

    def test_indexed_manager_keeps_stats_for_visited_cqs_only(self, db):
        mgr, live = self.churn(db, fanout=True)
        assert set(mgr.stats.keys()) <= live
        assert names_keyed(mgr, self.issued) == live
        assert len(mgr.plans) <= 6 and len(mgr.fanout_index) <= 6

    def test_self_stopped_cq_stays_visible(self, db, stocks):
        from repro.core import AfterExecutions

        mgr = make_manager(db, fanout=False)
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
