"""Tests for the lazy-transmission protocol and shared (fan-out)
evaluation."""

import pytest

from repro import Database
from repro.errors import RegistrationError
from repro.metrics import Metrics
from repro.net.client import CQClient
from repro.net.messages import DeltaAvailableMessage, DeltaMessage
from repro.net.server import CQServer, Protocol
from repro.net.simnet import SimulatedNetwork
from repro.workload.stocks import StockMarket

WATCH = "SELECT sid, name, price FROM stocks WHERE price > 500"


def deployment(fanout=False, seed=44):
    db = Database()
    market = StockMarket(db, seed=seed)
    market.populate(500)
    net = SimulatedNetwork()
    server = CQServer(db, net, fanout=fanout)
    return db, market, net, server


def attach(server, name, protocol):
    client = CQClient(name)
    server.attach(client)
    client.register("watch", WATCH, protocol)
    return client


class TestLazyProtocol:
    def test_notice_then_fetch(self):
        db, market, net, server = deployment()
        client = attach(server, "lazy", Protocol.DRA_LAZY)
        market.tick(30)
        server.refresh_all()
        notice = client.pending_notice("watch")
        assert isinstance(notice, DeltaAvailableMessage)
        assert notice.entry_count > 0
        # The cached result is stale until the client pulls.
        assert client.result("watch") != db.query(WATCH)
        assert client.fetch("watch")
        assert client.pending_notice("watch") is None
        assert client.result("watch") == db.query(WATCH)

    def test_notice_is_tiny(self):
        db, market, net, server = deployment()
        client = attach(server, "lazy", Protocol.DRA_LAZY)
        market.tick(100)
        before = net.link("server", "lazy").bytes
        server.refresh_all()
        notice_bytes = net.link("server", "lazy").bytes - before
        assert notice_bytes <= 80  # envelope + two counters

    def test_pending_composes_across_refreshes(self):
        """Repeatedly modified tuples net out server-side before any
        bytes are shipped — the consolidation advantage of laziness."""
        db, market, net, server = deployment()
        lazy = attach(server, "lazy", Protocol.DRA_LAZY)
        eager = attach(server, "eager", Protocol.DRA_DELTA)
        # The same ten rows churn over several refresh cycles: the
        # eager protocol ships every intermediate state, the lazy one
        # ships each tuple's net change once.
        hot_tids = [row.tid for row in market.stocks.rows()][:10]
        for cycle in range(6):
            with db.begin() as txn:
                for i, tid in enumerate(hot_tids):
                    txn.modify_in(
                        market.stocks, tid, updates={"price": 600 + 10 * cycle + i}
                    )
            server.refresh_all()
        lazy.fetch("watch")
        truth = db.query(WATCH)
        assert lazy.result("watch") == truth
        assert eager.result("watch") == truth
        lazy_bytes = net.link("server", "lazy").bytes
        eager_bytes = net.link("server", "eager").bytes
        assert lazy_bytes < eager_bytes

    def test_fetch_with_nothing_pending(self):
        db, market, net, server = deployment()
        client = attach(server, "lazy", Protocol.DRA_LAZY)
        assert not client.fetch("watch")

    def test_fetch_unknown_subscription(self):
        db, market, net, server = deployment()
        client = attach(server, "lazy", Protocol.DRA_LAZY)
        from repro.net.messages import FetchMessage

        with pytest.raises(RegistrationError):
            server.handle_fetch("lazy", FetchMessage("nope"))

    def test_pending_that_nets_to_zero_clears(self):
        db, market, net, server = deployment()
        client = attach(server, "lazy", Protocol.DRA_LAZY)
        tid = market.stocks.insert((9999, "TMP", 900))
        server.refresh_all()
        market.stocks.delete(tid)
        server.refresh_all()
        # Insert then delete net to nothing: nothing left to fetch.
        assert not client.fetch("watch")
        assert client.result("watch") == db.query(WATCH)


class TestSharedEvaluation:
    def test_results_identical_with_sharing(self):
        db, market, net, server = deployment(fanout=True)
        clients = [attach(server, f"c{i}", Protocol.DRA_DELTA) for i in range(5)]
        for __ in range(3):
            market.tick(20)
            server.refresh_all()
        truth = db.query(WATCH)
        for client in clients:
            assert client.result("watch") == truth

    def test_sharing_computes_once(self):
        work, evaluations = {}, {}
        for fanout in (False, True):
            db, market, net, server = deployment(fanout=fanout, seed=45)
            for i in range(16):
                attach(server, f"c{i}", Protocol.DRA_DELTA)
            market.tick(20)
            server.metrics.reset()
            server.refresh_all()
            work[fanout] = server.metrics[Metrics.DELTA_ROWS_READ]
            evaluations[fanout] = server.metrics[Metrics.EXECUTIONS]
        assert work[True] * 8 <= work[False]
        assert evaluations == {False: 16, True: 1}

    def test_sharing_respects_windows(self):
        """A client registered mid-stream gets its own first window."""
        db, market, net, server = deployment(fanout=True)
        first = attach(server, "first", Protocol.DRA_DELTA)
        market.tick(20)
        server.refresh_all()
        # Joining between refreshes moves the group's window, and the
        # first member's with it: it is shipped that delta at the join.
        market.tick(10)
        late = attach(server, "late", Protocol.DRA_DELTA)
        market.tick(20)
        server.refresh_all()
        truth = db.query(WATCH)
        assert first.result("watch") == truth
        assert late.result("watch") == truth
