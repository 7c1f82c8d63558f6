"""A member's window is its group's.

On an indexed server a DRA subscription never has a refresh window of
its own: ``CQServer._refresh_group`` moves the group's, and every
member's with it — each cycle, before a join that finds the window
open, and around a reconnect replay. These tests pin what that buys:
a late join or a replay leaves the group evaluated once per cycle with
one retained relation, and nobody is skipped past a delta.
"""

import pytest

from repro import Database
from repro.metrics import Metrics
from repro.net.client import CQClient
from repro.net.messages import DeltaMessage, FullResultMessage
from repro.net.server import CQServer, Protocol
from repro.net.simnet import SimulatedNetwork
from repro.workload.stocks import StockMarket

WATCH = "SELECT sid, name, price FROM stocks WHERE price > 500"


def deployment(members, protocol=Protocol.DRA_DELTA, seed=44):
    db = Database()
    market = StockMarket(db, seed=seed)
    market.populate(300)
    server = CQServer(db, SimulatedNetwork(), fanout=True)
    clients = [attach(server, f"c{i}", protocol) for i in range(members)]
    return db, market, server, clients


def attach(server, name, protocol=Protocol.DRA_DELTA):
    client = CQClient(name)
    server.attach(client)
    client.register("watch", WATCH, protocol)
    return client


def deltas(client):
    return [m for m in client.history() if isinstance(m, DeltaMessage)]


class TestLateJoin:
    def test_join_ships_the_open_window_and_the_group_stays_one(self):
        db, market, server, old = deployment(50)
        market.tick(30)
        late = attach(server, "late")
        # The join moved the group's window: the members already there
        # received that delta then, instead of being skipped past it.
        truth = db.query(WATCH)
        assert all(len(deltas(client)) == 1 for client in old)
        assert all(client.result("watch") == truth for client in old)
        assert late.result("watch") == truth and not deltas(late)
        market.tick(30)
        server.metrics.reset()
        server.refresh_all()
        assert server.metrics[Metrics.EXECUTIONS] == 1
        assert len({id(s.previous_result) for s in server.subscriptions()}) == 1
        assert all(len(deltas(client)) == 2 for client in old)
        truth = db.query(WATCH)
        assert all(c.result("watch") == truth for c in old + [late])

    def test_join_of_a_current_group_ships_nothing(self):
        db, market, server, (first,) = deployment(1)
        market.tick(30)
        server.refresh_all()
        before = len(first.history())
        attach(server, "late")
        assert len(first.history()) == before

    def test_only_dra_subscriptions_are_group_members(self):
        db, market, server, (first,) = deployment(1)
        attach(server, "rv", Protocol.REEVAL_DELTA)
        attach(server, "rf", Protocol.REEVAL_FULL)
        (group,) = server._groups.values()
        assert list(group.members) == [("c0", "watch")]
        assert [row["sql_group_size"] for row in server.describe()] == [
            1,
            None,
            None,
        ]


class TestReplayOnAGroup:
    def test_replayer_gets_its_window_everyone_else_one_delta(self):
        db, market, server, clients = deployment(4)
        away, others = clients[0], clients[1:]
        market.tick(30)
        server.refresh_all()
        since = server.subscriptions()[0].last_ts
        server.detach("c0")
        market.tick(30)
        server.refresh_all()  # c0 misses this frame
        market.tick(30)  # and nobody has seen this commit yet
        server.attach(away)
        sent = {client.name: len(deltas(client)) for client in clients}
        assert server.replay("c0", "watch", since)
        truth = db.query(WATCH)
        # One consolidated delta over (since, now] for the replayer,
        # exactly the group's one delta for every other member.
        assert len(deltas(away)) == sent["c0"] + 1
        assert deltas(away)[-1].ts == db.now()
        for client in others:
            assert len(deltas(client)) == sent[client.name] + 1
        for client in clients:
            assert client.result("watch") == truth
            assert not any(
                isinstance(m, FullResultMessage) for m in client.history()
            )
        # The group is whole again: the next cycle evaluates once.
        market.tick(30)
        server.metrics.reset()
        server.refresh_all()
        assert server.metrics[Metrics.EXECUTIONS] == 1
        assert all(c.result("watch") == db.query(WATCH) for c in clients)

    def test_lazy_member_replay_folds_its_accumulation(self):
        db, market, server, clients = deployment(2, Protocol.DRA_LAZY)
        since = server.subscriptions()[0].last_ts
        market.tick(30)
        server.refresh_all()  # both accumulate, neither fetches
        market.tick(30)
        assert server.replay("c0", "watch", since)
        assert clients[0].result("watch") == db.query(WATCH)
        clients[1].fetch("watch")
        assert clients[1].result("watch") == db.query(WATCH)


class TestDegradedMember:
    def test_folding_back_takes_the_groups_copy(self):
        """``CQService`` degrades a backlogged session's DRA_DELTA
        subscriptions to DRA_LAZY and back; a session that drops while
        degraded has the accumulation folded without delivery. Either
        way the member ends up on the group's own copy again."""
        db, market, server, clients = deployment(2)
        sub = server._subscriptions[("c0", "watch")]
        sub.protocol = Protocol.DRA_LAZY
        market.tick(30)
        server.refresh_all()
        assert sub.pending_delta is not None
        sub.protocol = Protocol.DRA_DELTA
        assert sub.fold() is not None
        server.check_invariants()
        assert sub.previous_result is sub.group.result
        assert sub.changed_ts == sub.last_ts == db.now()
        # Nothing pending: the fold is a no-op that reports so.
        assert sub.fold() is None
        server.check_invariants()


class TestNoPrivatePath:
    @pytest.mark.parametrize("fanout", [False, True])
    def test_group_members_never_refresh_alone(self, fanout, monkeypatch):
        """On an indexed server only subscriptions in no group reach
        ``_refresh_one``; without an index every one does."""
        db = Database()
        market = StockMarket(db, seed=5)
        market.populate(200)
        net = SimulatedNetwork()
        server = CQServer(db, net, fanout=fanout)
        alone = []
        inner = CQServer._refresh_one
        monkeypatch.setattr(
            CQServer,
            "_refresh_one",
            lambda self, sub, cache: alone.append(sub.protocol)
            or inner(self, sub, cache),
        )
        clients = [
            attach(server, protocol.value, protocol) for protocol in Protocol
        ]
        market.tick(20)
        attach(server, "late")
        server.refresh_all()
        since = db.now()
        net.partition("server", "dra_delta")
        market.tick(20)
        server.refresh_all()  # the frame is lost in flight
        net.heal()
        assert server.replay("dra_delta", "watch", since)
        market.tick(20)
        server.refresh_all()
        dra = [p for p in alone if p in (Protocol.DRA_DELTA, Protocol.DRA_LAZY)]
        assert bool(dra) is not fanout
        assert Protocol.REEVAL_DELTA in alone and Protocol.REEVAL_FULL in alone
        clients[1].fetch("watch")
        for client in clients:
            assert client.result("watch") == db.query(WATCH)


class TestInvariantsAreChecked:
    """``check_invariants`` is only worth running after every operation
    if it notices: each corruption below breaks one law."""

    def break_window(server, sub, group):
        sub.last_ts -= 1

    def break_alias(server, sub, group):
        sub.previous_result = sub.previous_result.copy()

    def break_digest(server, sub, group):
        sub.digest = "3:0123456789abcdef"

    def break_membership(server, sub, group):
        del group.members[("c0", "watch")]

    def break_placement(server, sub, group):
        server._solo[("c0", "watch")] = sub

    def break_holders(server, sub, group):
        server._holders["watch"] += 1

    def break_index(server, sub, group):
        server.fanout_index.remove(group.sql_key)

    @pytest.mark.parametrize(
        "corrupt",
        [
            break_window,
            break_alias,
            break_digest,
            break_membership,
            break_placement,
            break_holders,
            break_index,
        ],
        ids=lambda corrupt: corrupt.__name__,
    )
    def test_a_broken_law_raises(self, corrupt):
        db, market, server, clients = deployment(2)
        server.check_invariants()
        (group,) = server._groups.values()
        corrupt(server, server._subscriptions[("c0", "watch")], group)
        with pytest.raises(AssertionError):
            server.check_invariants()
