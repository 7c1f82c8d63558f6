"""One frame per connection per refresh.

A refresh gathers every routed group's part for a client — the names
of the client's members of that group, the delta, the post-apply digest
— and sends the client one frame after the last group: the part itself
when it is the only one, a ``DeltaBatchMessage`` of them otherwise. These
tests pin the frame's bytes, what its loss does, how its bytes are
charged, and that a group raising mid-cycle does not keep the earlier
groups' parts from their clients.
"""

import asyncio

import pytest

from repro.core.scheduler import SharedView
from repro.errors import ReproError
from repro.metrics import Metrics
from repro.net.client import CQClient, CQSession
from repro.net.codec import encode_payload
from repro.net.messages import DeltaBatchMessage, DeltaMessage, FullResultMessage
from repro.net.server import CQServer
from repro.net.service import CQService
from repro.net.simnet import SimulatedNetwork
from repro.net.transport import FaultInjector
from repro.relational.types import AttributeType
from repro.storage.database import Database

SCHEMA = [
    ("id", AttributeType.INT),
    ("sym", AttributeType.STR),
    ("price", AttributeType.INT),
]
#: Three templates, so three groups; an insert at price 50 routes all.
SQLS = {
    "under80": "SELECT sym, price FROM stocks WHERE price < 80",
    "under90": "SELECT sym, price FROM stocks WHERE price < 90",
    "under99": "SELECT sym, price FROM stocks WHERE price < 99",
}
#: Each CQ's template; ``under80b`` shares ``under80``'s group.
CQS = {"under80": "under80", "under80b": "under80", "under90": "under90",
       "under99": "under99"}  # fmt: skip


def market():
    db = Database()
    table = db.create_table("stocks", SCHEMA)
    table.insert_many([(1, "IBM", 100), (2, "MAC", 50), (3, "HP", 75)])
    return db, table


def in_process():
    db, table = market()
    server = CQServer(db, SimulatedNetwork(), metrics=Metrics())
    client = CQClient("c1")
    server.attach(client)
    for name, template in CQS.items():
        client.register(name, SQLS[template])
    return db, table, server, client


def truth(db, name):
    return db.query(SQLS[CQS[name]])


class Frames:
    """Records the result frames reaching ``client`` through ``hook``."""

    def __init__(self, client, hook):
        self.seen = []
        inner = getattr(client, hook)

        def hooked(message):
            self.seen.append(message)
            return inner(message)

        setattr(client, hook, hooked)

    def deltas(self):
        return [
            m
            for m in self.seen
            if isinstance(m, (DeltaMessage, DeltaBatchMessage))
        ]


class TestOneFramePerConnection:
    def test_routed_groups_reach_a_client_in_one_frame(self):
        db, table, server, client = in_process()
        frames = Frames(client, "receive")
        server.network.reset()
        table.insert((4, "SUN", 50))
        assert server.refresh_all() == len(CQS)
        (frame,) = frames.deltas()
        assert isinstance(frame, DeltaBatchMessage)
        # One part per group, each addressing the client's members of it.
        assert [part.cq_names for part in frame.parts] == [
            ("under80", "under80b"),
            ("under90",),
            ("under99",),
        ]
        assert server.network.total.messages == 1
        for name in CQS:
            assert client.result(name) == truth(db, name)
        assert client.digest_mismatches == client.stale_deltas == 0

    def test_a_one_part_cycle_is_the_delta_frame_itself(self):
        """One routed group: the client gets that group's DeltaMessage,
        the bytes of a frame built on its own."""
        db, table, server, client = in_process()
        frames = Frames(client, "receive")
        table.insert((4, "SUN", 95))  # routes under99 only
        server.refresh_all()
        (frame,) = frames.deltas()
        assert type(frame) is DeltaMessage
        alone = DeltaMessage(frame.cq_names, frame.delta, frame.ts, frame.digest)
        assert frame.cq_names == ("under99",)
        assert frame.encoded() == encode_payload(alone)


class TestLostFrame:
    async def lose_and_heal(self, kind):
        if kind is CQClient:
            db, table, server, client = in_process()
            frames = Frames(client, "receive")
        else:
            db, table = market()
            injector = FaultInjector()
            service = CQService(db, injector=injector)
            server = service.server
            addr = await service.start()
            client = CQSession("c1", *addr, backoff_base=0.01)
            frames = Frames(client, "_handle")
            await client.connect()
            for name, template in CQS.items():
                await client.register(name, SQLS[template])

        async def refresh():
            if kind is CQClient:
                return server.refresh_all()
            return await service.refresh()

        table.insert((4, "SUN", 50))
        if kind is CQClient:
            server.network.partition("server", "c1")
            await refresh()
            server.network.heal()
            # The server saw the loss: no member of any part arrived.
            for name in CQS:
                s = server._subscriptions[("c1", name)]
                assert s.arrived_ts < s.changed_ts
        else:
            injector.drop_rate = 1.0
            await refresh()
            for _ in range(1000):
                if injector.frames_dropped:
                    break
                await asyncio.sleep(0.01)
            injector.drop_rate = 0.0
            assert injector.frames_dropped == 1
        assert not frames.deltas()

        table.insert((5, "DEC", 51))
        await refresh()
        if kind is CQSession:
            await client._wait_for(
                lambda: all(
                    client._results.get(name) == truth(db, name) for name in CQS
                ),
                10.0,
            )
        # Every member of every part mismatched and resynced.
        assert len(frames.deltas()) == 1
        assert client.digest_mismatches == len(CQS)
        resynced = [m.cq_name for m in frames.seen if isinstance(m, FullResultMessage)]
        assert sorted(resynced) == sorted(CQS)
        for name in CQS:
            assert client.result(name) == truth(db, name)
        if kind is CQSession:
            await client.close()
            await service.stop()

    @pytest.mark.parametrize("kind", [CQClient, CQSession])
    def test_a_lost_batch_heals_every_member_of_every_part(self, kind):
        asyncio.run(self.lose_and_heal(kind))


class TestAccounting:
    def test_per_cq_bytes_sum_to_the_frame(self):
        db, table, server, client = in_process()
        before = {name: server.stats.counters(name) for name in CQS}
        server.network.reset()
        for i in range(3):
            table.insert((10 + i, "NEW", 50 + i))
            server.refresh_all()
        assert server.network.total.messages == 3
        charged = {
            name: {
                key: server.stats.counters(name).get(key, 0)
                - before[name].get(key, 0)
                for key in (Metrics.BYTES_SENT, Metrics.MESSAGES_SENT)
            }
            for name in CQS
        }
        assert sum(c[Metrics.BYTES_SENT] for c in charged.values()) == (
            server.network.total.bytes
        )
        # Each CQ had one delivery a cycle.
        assert all(c[Metrics.MESSAGES_SENT] == 3 for c in charged.values())


class TestRaisingGroup:
    def test_earlier_groups_parts_still_reach_their_clients(self, monkeypatch):
        """The second group's evaluation raises: the first group's
        window has moved, so its part must still be shipped; the raising
        group's window stays where it was and the next cycle catches
        it up."""
        db, table, server, client = in_process()
        groups = list(server._views.values())
        failing = groups[1]
        inner = SharedView.evaluate

        def evaluate(self, *args, **kwargs):
            if self.sql_key == failing.sql_key:
                raise ReproError("evaluation failed")
            return inner(self, *args, **kwargs)

        monkeypatch.setattr(SharedView, "evaluate", evaluate)
        since = failing.since
        table.insert((4, "SUN", 50))
        with pytest.raises(ReproError):
            server.refresh_all()
        assert groups[0].since == db.now()
        assert client.result("under80") == truth(db, "under80")
        assert client.result("under80b") == truth(db, "under80b")
        assert failing.since == since
        assert client.result("under90") != truth(db, "under90")

        monkeypatch.setattr(SharedView, "evaluate", inner)
        server.refresh_all()
        for name in CQS:
            assert client.result(name) == truth(db, name)
        assert client.digest_mismatches == client.stale_deltas == 0
