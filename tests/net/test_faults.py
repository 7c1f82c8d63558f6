"""Tests for injectable faults in the simulated network."""

import pytest

from repro.errors import NetworkError
from repro.metrics import Metrics
from repro.net.client import CQClient
from repro.net.server import CQServer, Protocol
from repro.net.simnet import SimulatedNetwork
from repro.workload.stocks import StockMarket

WATCH = "SELECT name, price FROM stocks WHERE price > 500"


class TestDrops:
    def test_lossless_by_default(self):
        net = SimulatedNetwork()
        for i in range(100):
            assert net.send("a", "b", 10) is not None
        assert net.link("a", "b").drops == 0

    def test_seeded_drops_are_deterministic(self):
        outcomes = []
        for __ in range(2):
            net = SimulatedNetwork()
            net.set_faults(drop_probability=0.3, seed=7)
            outcomes.append(
                [net.send("a", "b", 10) is None for __ in range(50)]
            )
        assert outcomes[0] == outcomes[1]
        assert any(outcomes[0]) and not all(outcomes[0])

    def test_drops_counted_not_billed(self):
        metrics = Metrics()
        net = SimulatedNetwork()
        net.set_faults(drop_probability=1.0, seed=1)
        assert net.send("a", "b", 100, metrics) is None
        link = net.link("a", "b")
        assert link.drops == 1
        assert link.bytes == 0 and link.messages == 0
        assert metrics[Metrics.MESSAGES_DROPPED] == 1
        assert metrics[Metrics.BYTES_SENT] == 0

    def test_invalid_probability_rejected(self):
        with pytest.raises(NetworkError):
            SimulatedNetwork().set_faults(drop_probability=1.5)


class TestLatency:
    def test_extra_latency_added_to_transfer_time(self):
        net = SimulatedNetwork(latency_seconds=0.001)
        base = net.transfer_time(1000)
        net.set_faults(extra_latency_seconds=0.05)
        assert net.transfer_time(1000) == pytest.approx(base + 0.05)

    def test_negative_latency_rejected(self):
        with pytest.raises(NetworkError):
            SimulatedNetwork().set_faults(extra_latency_seconds=-1)


class TestPartitions:
    def test_partition_severs_both_directions_by_default(self):
        net = SimulatedNetwork()
        net.partition("a", "b")
        assert net.send("a", "b", 1) is None
        assert net.send("b", "a", 1) is None
        assert net.send("a", "c", 1) is not None

    def test_directed_partition(self):
        net = SimulatedNetwork()
        net.partition("a", "b", bidirectional=False)
        assert net.send("a", "b", 1) is None
        assert net.send("b", "a", 1) is not None
        assert net.is_partitioned("a", "b")
        assert not net.is_partitioned("b", "a")

    def test_heal_restores_traffic(self):
        net = SimulatedNetwork()
        net.partition("a", "b")
        net.heal("a", "b")
        assert net.send("a", "b", 1) is not None

    def test_heal_all(self):
        net = SimulatedNetwork()
        net.partition("a", "b")
        net.partition("c", "d")
        net.heal()
        assert net.send("a", "b", 1) is not None
        assert net.send("c", "d", 1) is not None


class TestServerUnderFaults:
    """A lost refresh delta must not corrupt server-side state."""

    @pytest.fixture
    def deployment(self, db):
        market = StockMarket(db, seed=21)
        market.populate(300)
        net = SimulatedNetwork()
        server = CQServer(db, net)
        client = CQClient("c1")
        server.attach(client)
        client.register("watch", WATCH, Protocol.DRA_DELTA)
        return db, market, net, server, client

    def test_partitioned_client_resyncs_after_heal(self, deployment):
        db, market, net, server, client = deployment
        applied_ts = server.subscriptions()[0].last_ts
        net.partition("server", "c1")
        market.tick(30)
        server.refresh_all()
        # The delta was lost; the zone boundary must not have advanced
        # past what the client actually holds.
        boundary = server.zones.boundary("c1:watch")
        assert boundary == applied_ts
        net.heal()
        assert server.replay("c1", "watch", boundary)
        assert client.result("watch") == db.query(WATCH)

    def test_dropped_messages_counted_in_metrics(self, deployment):
        db, market, net, server, client = deployment
        net.set_faults(drop_probability=1.0, seed=3)
        market.tick(30)
        server.refresh_all()
        assert server.metrics[Metrics.MESSAGES_DROPPED] >= 1

    def test_quiet_cycle_after_a_lost_frame_keeps_the_replay_window(self, db):
        """The boundary the test above reads right after the loss must
        also survive the next *quiet* refresh: the client has not
        applied the lost frame, so its zone stays, GC keeps the window
        and the resume after the heal is differential."""
        market = StockMarket(db, seed=21)
        market.populate(300)
        net = SimulatedNetwork()
        server = CQServer(db, net)
        client = CQClient("c1")
        server.attach(client)
        client.register("watch", WATCH, Protocol.DRA_DELTA)
        applied_ts = server.subscriptions()[0].last_ts
        net.partition("server", "c1")
        market.tick(30)
        server.refresh_all()
        server.refresh_all()  # quiet: nothing committed since
        assert server.zones.boundary("c1:watch") == applied_ts
        server.collect_garbage()
        net.heal()
        assert server.replay("c1", "watch", applied_ts)
        assert server.metrics[Metrics.REPLAY_FALLBACKS] == 0
        assert client.result("watch") == db.query(WATCH)
        # Current again, the client stops pinning the log.
        server.refresh_all()
        assert server.zones.boundary("c1:watch") == db.now()
