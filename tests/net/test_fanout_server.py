"""Server-side fan-out: sql_key groups + predicate-index routing.

``CQServer`` groups DRA subscriptions by canonical SQL text;
each group owns one maintained result and one predicate-index entry,
so a refresh cycle routes the consolidated batch to affected *groups*
and evaluates once per group, not once per subscriber. These tests
cover the group lifecycle, the deregister/teardown regression (no
stale fan-out to dead subscribers), detached-member skipping, lazy
members, and probe-count sublinearity.
"""

import pytest

from repro.errors import RegistrationError
from repro.metrics import Metrics
from repro.relational.types import AttributeType
from repro.net.client import CQClient
from repro.net.server import CQServer, Protocol
from repro.net.simnet import SimulatedNetwork
from repro.workload.stocks import StockMarket

WATCH = "SELECT name, price FROM stocks WHERE price > 800"
OTHER = "SELECT name, price FROM stocks WHERE price < 40"


@pytest.fixture
def deployment(db):
    market = StockMarket(db, seed=13)
    market.populate(400)
    net = SimulatedNetwork()
    metrics = Metrics()
    server = CQServer(db, net, metrics=metrics)
    return db, market, net, server


def attach_client(server, name, sql=WATCH, protocol=Protocol.DRA_DELTA):
    client = CQClient(name)
    server.attach(client)
    client.register("watch", sql, protocol)
    return client


class TestGroups:
    def test_same_sql_shares_one_group(self, deployment):
        db, __, __, server = deployment
        clients = [attach_client(server, f"c{i}") for i in range(5)]
        assert len(server._views) == 1
        assert len(server.index) == 1
        # Members beyond the first reuse the group's maintained result
        # instead of re-running E_0.
        assert server.metrics[Metrics.SHARED_GROUPS] == 1
        assert server.metrics[Metrics.SHARED_GROUP_HITS] >= 4
        for client in clients:
            assert client.result("watch") == db.query(WATCH)

    def test_distinct_sql_distinct_groups(self, deployment):
        __, __, __, server = deployment
        attach_client(server, "a", WATCH)
        attach_client(server, "b", OTHER)
        assert len(server._views) == 2
        assert len(server.index) == 2

    def test_group_members_converge(self, deployment):
        db, market, __, server = deployment
        clients = [attach_client(server, f"c{i}") for i in range(4)]
        clients.append(attach_client(server, "lazy", WATCH, Protocol.DRA_LAZY))
        clients.append(attach_client(server, "rv", WATCH, Protocol.REEVAL_DELTA))
        for __ in range(4):
            market.tick(30, p_insert=0.1, p_delete=0.1)
            server.refresh_all()
        clients[4].fetch("watch")
        for client in clients:
            assert client.result("watch") == db.query(WATCH)

    def test_group_evaluates_once_per_cycle(self, deployment):
        db, market, __, server = deployment
        for i in range(6):
            attach_client(server, f"c{i}")
        market.tick(40, p_insert=0.2)
        before = server.metrics.snapshot()
        server.refresh_all()
        spent = server.metrics.diff(before)
        # One evaluation for six members: five group hits per cycle.
        assert spent.get(Metrics.SHARED_GROUP_HITS, 0) == 5

    def test_registration_after_changes_sees_current_state(self, deployment):
        db, market, __, server = deployment
        attach_client(server, "first")
        market.tick(50, p_insert=0.2, p_delete=0.1)
        late = attach_client(server, "late")
        assert late.result("watch") == db.query(WATCH)


class TestTeardown:
    def test_deregister_leaves_group_then_drops_it(self, deployment):
        __, __, __, server = deployment
        attach_client(server, "a")
        attach_client(server, "b")
        server.deregister("a", "watch")
        assert len(server._views) == 1
        assert "a" not in {
            s.client_id for s in server.subscriptions()
        }
        server.deregister("b", "watch")
        assert server._views == {}
        assert len(server.index) == 0

    def test_no_fanout_to_deregistered_subscriber(self, deployment):
        """Regression: a dead subscriber must not receive (or break)
        later refreshes once its group entry is gone."""
        db, market, net, server = deployment
        kept = attach_client(server, "kept")
        gone = attach_client(server, "gone")
        server.deregister("gone", "watch")
        before = net.link("server", "gone").messages
        for __ in range(3):
            market.tick(30, p_insert=0.2)
            server.refresh_all()
        assert net.link("server", "gone").messages == before
        assert kept.result("watch") == db.query(WATCH)

    def test_deregister_drops_the_plans_of_dead_texts(self, deployment):
        """Regression: the last member of a text took its view and its
        index entry along but left its plan behind, so registering and
        deregistering 50 distinct texts left 50 plans and no view."""
        __, __, __, server = deployment
        client = CQClient("c")
        server.attach(client)
        for i in range(50):
            client.register(f"q{i}", f"SELECT name FROM stocks WHERE price = {i}")
        for i in range(50):
            server.deregister("c", f"q{i}")
        assert server._views == {}
        assert len(server.plans) == 0

    def test_a_familys_last_member_takes_its_shape_plan(self, deployment):
        db, __, __, server = deployment
        shape = "SELECT name, price FROM stocks"
        for i in range(3):
            attach_client(server, f"c{i}", f"{shape} WHERE price > {600 + 100 * i}")
        with db.begin() as txn:
            txn.insert_into(db.table("stocks"), (9_001, "HI", 900))
        server.refresh_all()
        assert shape in server.plans and len(server._families) == 1
        for i in range(3):
            server.deregister(f"c{i}", "watch")
        assert not server._families and len(server.plans) == 0

    def test_deregister_unknown_still_raises(self, deployment):
        __, __, __, server = deployment
        with pytest.raises(RegistrationError):
            server.deregister("nobody", "watch")

    def test_detached_member_skipped_not_raised(self, deployment):
        """A group fan-out over a detached client's subscription skips
        the delivery instead of raising NetworkError; the attached
        members still converge and the detached subscription survives
        for reconnect."""
        db, market, __, server = deployment
        kept = attach_client(server, "kept")
        attach_client(server, "away")
        server.detach("away")
        for __ in range(3):
            market.tick(30, p_insert=0.2, p_delete=0.1)
            server.refresh_all()  # must not raise
        assert kept.result("watch") == db.query(WATCH)
        assert len(server.subscriptions_for("away")) == 1


class TestRouting:
    def test_unaffected_groups_skip_evaluation(self, db):
        """Updates touching only one template's slice leave the other
        groups unrouted: no evaluation, no messages."""
        db.create_table(
            "stocks",
            [("name", AttributeType.STR), ("price", AttributeType.INT)],
        )
        table = db.table("stocks")
        with db.begin() as txn:
            for i in range(50):
                txn.insert_into(table, (f"s{i}", i * 10))
        net = SimulatedNetwork()
        server = CQServer(db, net, metrics=Metrics())
        low = CQClient("low")
        server.attach(low)
        low.register("watch", "SELECT name FROM stocks WHERE price < 100")
        high = CQClient("high")
        server.attach(high)
        high.register("watch", "SELECT name FROM stocks WHERE price > 10000")
        before_high = net.link("server", "high").messages
        with db.begin() as txn:
            txn.insert_into(db.table("stocks"), ("tiny", 5))
        server.refresh_all()
        assert net.link("server", "high").messages == before_high
        assert low.result("watch") == db.query(
            "SELECT name FROM stocks WHERE price < 100"
        )

    def test_an_unrouted_group_visits_in_process_members_only(
        self, deployment, monkeypatch
    ):
        """A quiet cycle moves every member's window with its group's
        (a member reads the group's) and visits clients, not members:
        only an in-process client's members have zones to advance. A
        socket session's move on acks and a detached client's hold its
        replay window, so their buckets are skipped whole."""
        from repro.net.server import Subscription

        db, __, __, server = deployment

        class Socket(CQClient):
            defer_zone_advance = True

        socket = Socket("socket")
        server.attach(socket)
        for i in range(20):
            socket.register(f"w{i}", WATCH)
        attach_client(server, "away")
        server.detach("away")
        attach_client(server, "local")
        visited = []
        horizon = Subscription.horizon
        monkeypatch.setattr(
            Subscription,
            "horizon",
            lambda s, ts: visited.append(s.client_id) or horizon(s, ts),
        )
        db.clock.advance_to(db.now() + 5)
        server.refresh_all()
        assert visited == ["local"]
        (group,) = server._views.values()
        assert group.since == db.now()
        assert {s.last_ts for s in server.subscriptions()} == {db.now()}

    def test_a_quarantined_group_is_evaluated_unrouted(self, deployment):
        """A stale-signature entry matches nothing in the index, so
        routing cannot vouch for the group: a touched cycle evaluates
        it unrouted (the manager's ``test_quarantined_cqs_are_always_
        visited``, at the server)."""
        db, __, __, server = deployment
        client = attach_client(server, "c0")
        key = server.subscriptions()[0].sql_key
        server.index._quarantine(key, keep_table="")
        assert server.index.stale() == {key}
        with db.begin() as txn:
            txn.insert_into(db.table("stocks"), (9_001, "HI", 900))
        server.refresh_all()
        assert client.result("watch") == db.query(WATCH)

    def test_probe_count_sublinear_in_subscribers(self, db):
        """200 equality templates, one touched row: routed probes stay
        near-constant instead of scaling with the subscriber count."""
        db.create_table(
            "stocks",
            [("name", AttributeType.STR), ("price", AttributeType.INT)],
        )
        table = db.table("stocks")
        with db.begin() as txn:
            for i in range(200):
                txn.insert_into(table, (f"s{i}", i))
        net = SimulatedNetwork()
        metrics = Metrics()
        server = CQServer(db, net, metrics=metrics)
        clients = []
        for i in range(200):
            client = CQClient(f"c{i}")
            server.attach(client)
            client.register(
                "watch", f"SELECT name FROM stocks WHERE price = {i}"
            )
            clients.append(client)
        with db.begin() as txn:
            txn.insert_into(db.table("stocks"), ("hit", 7))
        before = metrics.snapshot()
        server.refresh_all()
        spent = metrics.diff(before)
        assert spent.get(Metrics.PREDINDEX_MATCHES, 0) == 1
        # Two sides per entry at most; nowhere near 200 plan probes.
        assert spent.get(Metrics.PREDINDEX_PROBES, 0) <= 10
        assert clients[7].result("watch") == db.query(
            "SELECT name FROM stocks WHERE price = 7"
        )


class TestFamilies:
    """Texts that differ only in one alias's local predicate share one
    execution per routed window; every other read runs its own."""

    @pytest.fixture
    def server(self, db):
        for name in ("a", "b"):
            table = db.create_table(
                name, [("k", AttributeType.INT), ("v", AttributeType.INT)]
            )
            table.insert_many([(k, k * 10) for k in range(10)])
        return CQServer(db, SimulatedNetwork(), metrics=Metrics())

    @staticmethod
    def subscribe(server, texts):
        clients = []
        for i, sql in enumerate(texts):
            client = CQClient(f"c{i}")
            server.attach(client)
            client.register("q", sql)
            clients.append((client, sql))
        return clients

    @staticmethod
    def refresh(server, db, clients, *changes):
        """Commit ``(table, tid, values)`` modifies in one transaction,
        refresh, check every client; returns the executions it ran."""
        with db.begin() as txn:
            for table, tid, values in changes:
                txn.modify_in(db.table(table), tid, values=values)
        before = server.metrics.snapshot()
        server.refresh_all()
        for client, sql in clients:
            assert client.result("q") == db.query(sql), sql
        return server.metrics.diff(before).get(Metrics.EXECUTIONS, 0)

    FAMILY = [
        "SELECT k FROM a WHERE k = 1",
        "SELECT k FROM a WHERE k = 2",
        "SELECT k FROM a WHERE v >= 0 AND v < 25",
        "SELECT k FROM a WHERE v > 80 OR k = 3",
    ]

    def test_a_routed_family_runs_one_execution_per_window(self, db, server):
        clients = self.subscribe(server, self.FAMILY)
        (family,) = server._families.values()
        assert len(family.members) == 4
        # tid 2 is (1, 10), tid 3 is (2, 20); the first moves v across
        # members whose projection drops it: a delete and an insert.
        changes = [("a", 2, (1, 85)), ("a", 3, (2, 5))]
        assert self.refresh(server, db, clients, *changes) == 1

    def test_a_family_of_one_runs_its_own_execution(self, db, server):
        texts = [self.FAMILY[0], "SELECT v FROM a WHERE k = 2"]
        clients = self.subscribe(server, texts)
        changes = [("a", 2, (1, 11)), ("a", 3, (2, 21))]
        assert self.refresh(server, db, clients, *changes) == 2

    def test_a_quarantined_member_runs_its_own_execution(self, db, server):
        clients = self.subscribe(server, self.FAMILY)
        server.index._quarantine(self.FAMILY[0], keep_table="")
        changes = [("a", 2, (1, 11)), ("a", 3, (2, 21))]
        assert self.refresh(server, db, clients, *changes) == 2

    def test_a_window_touching_another_table_runs_one_execution_per_key(
        self, db, server
    ):
        texts = [
            f"SELECT a.k, b.v FROM a, b WHERE a.k = b.k AND a.v = {v}"
            for v in (10, 20, 30)
        ]
        clients = self.subscribe(server, texts)
        # b has no local predicate: its sides route to every member.
        changes = [("a", 2, (1, 20)), ("b", 5, (4, 44))]
        assert self.refresh(server, db, clients, *changes) == 3
        assert self.refresh(server, db, clients, ("a", 2, (1, 30))) == 1


class TestEquivalence:
    def test_fanout_matches_complete_reevaluation(self):
        """A scripted workload through shared and single-member groups
        leaves every client holding what complete re-evaluation
        computes, after every cycle."""
        from repro import Database

        db = Database()
        market = StockMarket(db, seed=99)
        market.populate(300)
        server = CQServer(db, SimulatedNetwork(), metrics=Metrics())
        clients = [attach_client(server, f"c{i}", WATCH) for i in range(3)]
        clients.append(attach_client(server, "o", OTHER))
        for __ in range(5):
            market.tick(25, p_insert=0.15, p_delete=0.1)
            server.refresh_all()
            for client, sql in zip(clients, [WATCH] * 3 + [OTHER]):
                assert client.result("watch") == db.query(sql)
