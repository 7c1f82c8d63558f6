"""Self-verifying deltas and connect-timeout behavior.

Every result-bearing message carries an order-insensitive digest of
the post-apply retained result. Clients advance a running digest of
their copy with every apply and compare; a mismatch means the cached
copy is provably not what the server shipped from, so the client
discards it and resyncs — corruption is *detected and healed*, never
silently propagated. The server side of the same defense is the
sampled audit: every N-th differential refresh is checked against a
full re-evaluation.

Both sides keep their digests *differentially* (``apply_delta``):
``TestDetectionParity`` pins that every failure the per-delivery full
digest used to catch is still caught on the same frame, for both
client kinds; ``TestSteadyState`` pins that the steady state digests
no whole result, encodes a group's delta once, and lets the log GC
move past a quiet subscription.
"""

import asyncio
import socket
import time

import pytest

from repro.delta.differential import DeltaEntry, DeltaRelation
from repro.errors import ConnectTimeout, NetworkError
from repro.metrics import Metrics
from repro.net.client import CQClient, CQSession
from repro.net.digest import relation_digest, row_digest
from repro.net.messages import DeltaMessage, FullResultMessage
from repro.net.server import CQServer, Protocol
from repro.net.service import CQService
from repro.net.simnet import SimulatedNetwork
from repro.net.transport import FaultInjector
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.relational.types import AttributeType
from repro.storage.database import Database

SCHEMA = [("id", AttributeType.INT), ("sym", AttributeType.STR), ("price", AttributeType.INT)]
CHEAP = "SELECT sym, price FROM stocks WHERE price < 80"


def build(audit_interval=0, fanout=False):
    db = Database()
    table = db.create_table("stocks", SCHEMA)
    table.insert_many([(1, "IBM", 100), (2, "MAC", 50), (3, "HP", 75)])
    server = CQServer(
        db,
        SimulatedNetwork(),
        metrics=Metrics(),
        audit_interval=audit_interval,
        fanout=fanout,
    )
    client = CQClient("c1")
    server.attach(client)
    return db, table, server, client


class TestRelationDigest:
    def schema(self):
        return Schema.of(("sym", AttributeType.STR), ("price", AttributeType.INT))

    def test_order_insensitive(self):
        a, b = Relation(self.schema()), Relation(self.schema())
        rows = [(1, ("MAC", 50)), (2, ("HP", 75)), ((3, 4), ("SUN", 60))]
        for tid, values in rows:
            a.add(tid, values)
        for tid, values in reversed(rows):
            b.add(tid, values)
        assert relation_digest(a) == relation_digest(b)

    def test_sensitive_to_values_tids_and_count(self):
        base = Relation(self.schema())
        base.add(1, ("MAC", 50))
        changed = Relation(self.schema())
        changed.add(1, ("MAC", 51))
        moved = Relation(self.schema())
        moved.add(2, ("MAC", 50))
        assert relation_digest(base) != relation_digest(changed)
        assert relation_digest(base) != relation_digest(moved)
        # The row count guards the XOR fold against cancellation:
        # a row twice is not the same as no row at all.
        assert relation_digest(base).startswith("1:")
        assert relation_digest(Relation(self.schema())).startswith("0:")

    def test_row_digest_treats_tuple_and_list_tids_alike(self):
        # Wire decoding rebuilds nested tids as tuples; the digest must
        # not depend on which side computed it.
        assert row_digest((3, 4), ("X", 1)) == row_digest((3, 4), ("X", 1))
        assert row_digest(3, ("X", 1)) != row_digest(4, ("X", 1))


class TestClientVerification:
    def test_clean_traffic_never_mismatches(self):
        db, table, server, client = build()
        client.register("cheap", CHEAP)
        for price in (60, 40, 90):
            table.insert((10 + price, "NEW", price))
            server.refresh_all()
        assert client.digest_mismatches == 0
        assert client.result("cheap") == db.query(CHEAP)

    def test_corrupt_delta_detected_and_healed(self):
        """A delta stamped with a digest that does not match what the
        client computes must produce exactly one mismatch, then a
        successful automatic resync back to the true result."""
        from repro.delta.differential import DeltaRelation

        db, table, server, client = build()
        client.register("cheap", CHEAP)
        table.insert((4, "SUN", 60))
        server.refresh_all()
        good = client.result("cheap").copy()
        # An empty delta stamped with a forged digest — what a
        # corrupted-but-CRC-valid frame or a server bug would look like.
        forged = DeltaMessage(
            "cheap",
            DeltaRelation(good.schema, []),
            db.now(),
            "9:ffffffffffffffff",
        )
        client.receive(forged)
        assert client.digest_mismatches == 1
        assert server.metrics.get(Metrics.DIGEST_MISMATCHES) == 1
        # The resync already healed the cache to the server's truth.
        assert client.result("cheap") == db.query(CHEAP)
        assert client.result("cheap") == good

    def test_corrupt_full_result_rejected_not_cached(self):
        db, table, server, client = build()
        client.register("cheap", CHEAP)
        bogus = Relation(Schema.of(("sym", AttributeType.STR), ("price", AttributeType.INT)))
        bogus.add(99, ("EVIL", 1))
        client.receive(FullResultMessage("cheap", bogus, db.now(), "1:0000000000000000"))
        assert client.digest_mismatches == 1
        # The poisoned copy never landed; the resync restored truth.
        assert client.result("cheap") == db.query(CHEAP)


class TestSampledAudit:
    fanout = False

    def test_clean_refreshes_audit_without_divergence(self):
        db, table, server, client = build(audit_interval=2, fanout=self.fanout)
        client.register("cheap", CHEAP)
        for i in range(6):
            table.insert((100 + i, "NEW", 10 + i))
            server.refresh_all()
        assert server.metrics.get(Metrics.AUDITS) == 3
        assert server.metrics.get(Metrics.AUDIT_DIVERGENCES) == 0

    def test_divergent_retained_copy_detected_and_healed(self):
        db, table, server, client = build(audit_interval=1, fanout=self.fanout)
        client.register("cheap", CHEAP)
        # Corrupt the server's retained copy behind the engine's back
        # (the failure mode the audit exists to catch). Under fan-out
        # the subscription aliases its group's result, so this corrupts
        # the copy the group path maintains.
        sub = server._subscriptions[("c1", "cheap")]
        sub.previous_result.add(999, ("GHOST", 1))
        table.insert((4, "SUN", 60))
        server.refresh_all()
        assert server.metrics.get(Metrics.AUDIT_DIVERGENCES) == 1
        # The audit healed the retained copy to the full re-evaluation.
        assert sub.previous_result == db.query(CHEAP)


    def test_tampered_running_digest_detected_and_healed(self):
        """The audit also checks that the running digest still
        describes the retained copy: a drifted digest is a divergence
        even when the copy itself is right."""
        db, table, server, client = build(audit_interval=1, fanout=self.fanout)
        client.register("cheap", CHEAP)
        sub = server._subscriptions[("c1", "cheap")]
        holder = server._groups[sub.sql_key] if self.fanout else sub
        holder.digest = "3:0123456789abcdef"
        table.insert((4, "SUN", 60))
        server.refresh_all()
        assert server.metrics.get(Metrics.AUDIT_DIVERGENCES) == 1
        assert sub.previous_result == db.query(CHEAP)
        assert sub.digest == relation_digest(sub.previous_result)
        assert client.result("cheap") == db.query(CHEAP)


class TestSampledAuditFanout(TestSampledAudit):
    """The same audit on the shared-group refresh path."""

    fanout = True


class Deployment:
    """One fan-out server and one subscriber of ``CHEAP``, in-process
    (``CQClient``) or over loopback TCP (``CQSession``), with a hook on
    the frames reaching the subscriber: ``tamper(message)`` returns the
    frame to hand on, or None to lose it in flight."""

    def __init__(self, kind):
        self.kind = kind
        self.tamper = None
        self.seen = []
        #: The CQ of every full-result frame that reached the subscriber.
        self.resynced = []

    async def start(self, **service_kwargs):
        self.db = Database()
        self.table = self.db.create_table("stocks", SCHEMA)
        self.table.insert_many([(1, "IBM", 100), (2, "MAC", 50), (3, "HP", 75)])
        if self.kind is CQClient:
            self.server = CQServer(
                self.db, SimulatedNetwork(), metrics=Metrics(), fanout=True
            )
            self.client = CQClient("c1")
            self.server.attach(self.client)
            self._hook("receive")
        else:
            self.injector = FaultInjector()
            self.service = CQService(
                self.db, fanout=True, injector=self.injector, **service_kwargs
            )
            self.server = self.service.server
            addr = await self.service.start()
            self.client = CQSession("c1", *addr, backoff_base=0.01)
            self._hook("_handle")
            await self.client.connect()
        await self.register("cheap")
        return self

    async def register(self, name, sql=CHEAP):
        if self.kind is CQClient:
            self.client.register(name, sql)
        else:
            await self.client.register(name, sql)

    def _hook(self, name):
        inner = getattr(self.client, name)
        sync = self.kind is CQClient

        def hooked(message):
            if isinstance(message, FullResultMessage):
                self.resynced.append(message.cq_name)
            if isinstance(message, DeltaMessage):
                self.seen.append(message)
                if self.tamper is not None:
                    tamper, self.tamper = self.tamper, None
                    message = tamper(message)
            if message is not None:
                return inner(message)
            return None if sync else asyncio.sleep(0)

        setattr(self.client, name, hooked)

    async def refresh(self, heal=True):
        """One refresh cycle; over TCP, wait until its frames reached
        the subscriber and (``heal``) a resync round trip, if one was
        needed, brought it back to the truth."""
        if self.kind is CQClient:
            self.server.refresh_all()
            return
        due = self.addressed() + await self.service.refresh()
        await self.client._wait_for(lambda: self.addressed() >= due, 10.0)
        if heal:
            await self.client._wait_for(self.converged, 10.0)

    async def lose_next_refresh(self):
        """One refresh cycle whose frames are all lost: to a partition
        of the simulated network, or dropped by the TCP fault injector
        (which the server cannot see)."""
        if self.kind is CQClient:
            self.server.network.partition("server", "c1")
            self.server.refresh_all()
            self.server.network.heal()
            return
        self.injector.drop_rate = 1.0
        dropped = self.injector.frames_dropped
        await self.service.refresh()
        for _ in range(1000):
            if self.injector.frames_dropped > dropped:
                break
            await asyncio.sleep(0.01)
        self.injector.drop_rate = 0.0
        assert self.injector.frames_dropped == dropped + 1

    def addressed(self):
        """Subscriptions the seen frames reached: what ``refresh``
        counts, one per CQ a shared frame addresses."""
        return sum(len(message.cq_names) for message in self.seen)

    def converged(self, names=("cheap",)):
        truth = self.db.query(CHEAP)
        return all(self.client._results.get(name) == truth for name in names)

    async def settle(self, names):
        """Wait until every CQ in ``names`` holds the truth (over TCP a
        resync is a round trip; in-process it has already happened)."""
        if self.kind is CQSession:
            await self.client._wait_for(lambda: self.converged(names), 10.0)
        assert self.converged(names)

    def faults(self):
        return (self.client.digest_mismatches, self.client.stale_deltas)

    async def stop(self):
        if self.kind is CQSession:
            await self.client.close()
            await self.service.stop()


def both_clients(scenario):
    """Run ``scenario(deployment)`` once per client kind."""

    @pytest.mark.parametrize("kind", [CQClient, CQSession])
    def test(self, kind):
        async def run():
            deployment = Deployment(kind)
            try:
                await scenario(self, deployment)
            finally:
                await deployment.stop()

        asyncio.run(run())

    test.__name__ = scenario.__name__
    test.__doc__ = scenario.__doc__
    return test


class TestDetectionParity:
    """Each failure class raises exactly one counter on the very frame
    a per-delivery full digest caught it on, and heals by resync."""

    @both_clients
    async def test_frame_dropped_between_two_deltas(self, d):
        await d.start()
        d.table.insert((4, "SUN", 60))
        await d.refresh()
        d.tamper = lambda message: None  # lost in flight
        d.table.insert((5, "DEC", 61))
        await d.refresh(heal=False)
        assert len(d.seen) == 2
        assert d.faults() == (0, 0)  # nothing seen, nothing to detect
        d.table.insert((6, "SGI", 62))
        await d.refresh()
        assert len(d.seen) == 3
        assert d.faults() == (1, 0)
        assert d.converged()

    @both_clients
    async def test_new_side_value_altered_in_flight(self, d):
        def alter(message):
            entries = [
                DeltaEntry(e.tid, e.old, (e.new[0], e.new[1] + 1), e.ts)
                for e in message.delta
            ]
            return DeltaMessage(
                message.cq_name,
                DeltaRelation(message.delta.schema, entries),
                message.ts,
                message.digest,
            )

        await d.start()
        d.tamper = alter
        d.table.insert((4, "SUN", 60))
        await d.refresh()
        assert len(d.seen) == 1
        assert d.faults() == (1, 0)
        assert d.converged()

    @both_clients
    async def test_delta_for_a_tid_the_cache_lacks(self, d):
        """A delete of a row the cache never got is a stale delta (a
        modify of one is a count mismatch, covered by the dropped
        frame above); both client kinds resync instead of raising."""
        await d.start()
        held = d.client.result("cheap")
        tid = next(iter(held.tids()))
        d.client._results["cheap"] = Relation(
            held.schema, (row for row in held if row.tid != tid)
        )
        d.table.delete(tid)
        await d.refresh()
        assert len(d.seen) == 1
        assert d.faults() == (0, 1)
        assert d.converged()

    @both_clients
    async def test_forged_stamp(self, d):
        await d.start()
        d.tamper = lambda message: DeltaMessage(
            message.cq_name, message.delta, message.ts, "9:ffffffffffffffff"
        )
        d.table.insert((4, "SUN", 60))
        await d.refresh()
        assert len(d.seen) == 1
        assert d.faults() == (1, 0)
        assert d.converged()


class TestRunningDigestInvariant:
    """running digest == full digest of the held copy, for every holder
    on both sides, after every kind of operation that replaces one."""

    PROTOCOLS = [
        Protocol.DRA_DELTA,
        Protocol.DRA_LAZY,
        Protocol.REEVAL_DELTA,
        Protocol.REEVAL_FULL,
    ]

    def check(self, server, clients):
        for group in server._groups.values():
            assert group.digest == relation_digest(group.result)
        for sub in server.subscriptions():
            assert sub.digest == relation_digest(sub.previous_result)
        for client in clients:
            for name, held in client._results.items():
                described, digest = client._digests[name]
                assert described is held
                assert digest == relation_digest(held)

    @pytest.mark.parametrize("fanout", [False, True])
    def test_mixed_protocol_soak(self, fanout):
        import random

        rng = random.Random(17)
        db, table, server, first = build(audit_interval=3, fanout=fanout)
        second = CQClient("c2")
        server.attach(second)
        clients = [first, second]
        names = []
        for i, protocol in enumerate(self.PROTOCOLS * 2):
            client = clients[i % 2]
            client.register(f"q{i}", CHEAP, protocol)
            names.append((client, f"q{i}", protocol))
        next_id = 100
        for step in range(60):
            for __ in range(rng.randint(0, 3)):
                live = list(table.current.tids())
                roll = rng.random()
                if roll < 0.4 or len(live) < 3:
                    next_id += 1
                    table.insert((next_id, "NEW", rng.randint(40, 120)))
                elif roll < 0.7:
                    table.delete(rng.choice(live))
                else:
                    table.modify(
                        rng.choice(live),
                        updates={"price": rng.randint(40, 120)},
                    )
            action = rng.random()
            client, name, protocol = rng.choice(names)
            if action < 0.6:
                server.refresh_all()
            elif action < 0.75:
                client.fetch(name)
            elif action < 0.85:
                client.forget(name)
                client._resync(name)
            else:
                since = rng.randint(0, db.now())
                server.replay(client.name, name, since)
            self.check(server, clients)
        for client, name, protocol in names:
            if protocol is Protocol.DRA_LAZY:
                client.fetch(name)
        server.refresh_all()
        for client, name, protocol in names:
            if protocol is Protocol.DRA_LAZY:
                client.fetch(name)
        self.check(server, clients)
        assert all(
            client.result(name) == db.query(CHEAP)
            for client, name, __ in names
        )


class CountRows:
    """Wraps ``relation_digest`` where a module imported it, counting
    the rows it is asked to digest (what E18's net.digest_rows binds)."""

    def __init__(self, monkeypatch, module):
        self.rows = 0
        inner = module.relation_digest

        def counting(relation):
            self.rows += len(relation)
            return inner(relation)

        monkeypatch.setattr(module, "relation_digest", counting)


class TestSteadyState:
    @pytest.mark.parametrize("kind", [CQClient, CQSession])
    def test_refresh_cycles_and_late_joiners_digest_no_whole_result(
        self, kind, monkeypatch
    ):
        import repro.net.client
        import repro.net.server

        async def scenario():
            d = await Deployment(kind).start()
            # Three more members of the same group, on the same endpoint.
            for i in range(3):
                await d.register(f"cheap{i}")
            server_side = CountRows(monkeypatch, repro.net.server)
            client_side = CountRows(monkeypatch, repro.net.client)
            for i in range(5):
                d.table.insert((10 + i, "NEW", 20 + i))
                d.table.delete(list(d.db.query(CHEAP).tids())[0])
                await d.refresh()
                for name in ("cheap", "cheap0", "cheap1", "cheap2"):
                    assert d.client.result(name) == d.db.query(CHEAP)
            # One frame per cycle addresses all four members.
            names = ("cheap", "cheap0", "cheap1", "cheap2")
            assert [m.cq_names for m in d.seen] == [names] * 5
            assert (server_side.rows, client_side.rows) == (0, 0)
            # A k-th member copies the group's digest; only the new
            # client-side copy is digested in full.
            await d.register("late")
            assert server_side.rows == 0
            assert client_side.rows == len(d.db.query(CHEAP))
            assert d.faults() == (0, 0)
            await d.stop()

        asyncio.run(scenario())

    def test_one_delta_encode_per_group_with_an_attached_member(
        self, monkeypatch
    ):
        import repro.net.codec

        calls = []
        inner = repro.net.codec._delta_to_json
        monkeypatch.setattr(
            repro.net.codec,
            "_delta_to_json",
            lambda delta: calls.append(delta) or inner(delta),
        )
        db, table, server, client = build(fanout=True)
        dear = "SELECT sym, price FROM stocks WHERE price >= 80"
        other = CQClient("c2")
        server.attach(other)
        for i in range(3):
            client.register(f"cheap{i}", CHEAP)
            other.register(f"cheap{i}", CHEAP)
        gone = CQClient("c3")
        server.attach(gone)
        gone.register("dear", dear)
        server.detach("c3")
        sent = []
        for price in (60, 61):
            table.insert((10 + price, "NEW", price))  # routes CHEAP
            table.insert((20 + price, "NEW", price + 100))  # routes dear
            del calls[:]
            sent.append(server.refresh_all())
            # Two groups evaluated, six deliveries, one encode: the
            # group whose only member is detached encodes nothing.
            assert len(calls) == 1
        assert sent == [6, 6]
        for i in range(3):
            assert client.result(f"cheap{i}") == db.query(CHEAP)
            assert other.result(f"cheap{i}") == db.query(CHEAP)
        assert client.digest_mismatches == other.digest_mismatches == 0

    def test_shared_body_frames_equal_individually_encoded_frames(self):
        from repro.net.codec import decode_payload, encode_delta_body

        schema = Relation(Schema.of(("sym", AttributeType.STR))).schema
        delta = DeltaRelation(
            schema, [DeltaEntry((1, (2, 3)), None, ("X",), 7)]
        )
        alone = DeltaMessage("q", delta, 7, "1:00")
        shared = DeltaMessage("q", delta, 7, "1:00", encode_delta_body(delta))
        assert alone.encoded() == shared.encoded()
        back = decode_payload(shared.encoded())
        assert (back.cq_name, back.delta, back.ts, back.digest) == (
            "q", delta, 7, "1:00",
        )

    def test_quiet_subscription_does_not_pin_the_log(self):
        """A socket session's zones move only on heartbeat acks, and a
        subscription that never received a delta acks its registration
        timestamp; the server must still treat it as current through
        ``last_ts`` (its cache *is* the retained copy), or the log GC
        never prunes and a reconnect falls back to a full result."""
        quiet = "SELECT sym, price FROM stocks WHERE price > 100000"

        async def scenario():
            d = await Deployment(CQSession).start(heartbeat_interval=0.02)
            session, server = d.client, d.server
            await d.register("quiet", quiet)
            registered = session.applied["quiet"]
            for i in range(3):
                d.table.insert((10 + i, "NEW", 20 + i))
                await d.refresh()
            sub = server._subscriptions[("c1", "quiet")]
            await session._wait_for(
                lambda: server.zones.boundaries()
                == {"c1:cheap": d.db.now(), "c1:quiet": sub.last_ts},
                10.0,
            )
            assert session.applied["quiet"] == registered < sub.last_ts
            log = d.db.table("stocks").log
            assert sum(server.collect_garbage().values()) > 0
            assert log.pruned_through > registered

            # Reconnect after that GC: both subscriptions resume
            # differentially, the quiet one from last_ts.
            d.table.insert((20, "NEW", 30))
            assert d.service.sever_connections() == 1
            d.table.insert((21, "NEW", 31))
            await session._wait_for(lambda: session.reconnects >= 1, 10.0)
            await session.wait_applied("cheap", d.db.now())
            assert d.converged()
            assert session.result("quiet") == d.db.query(quiet)
            assert session.full_results == 0
            assert d.service.metrics.get(Metrics.REPLAY_FALLBACKS) == 0
            assert d.service.metrics.get(Metrics.REPLAYS) >= 2
            assert d.faults() == (0, 0)
            await d.stop()

        asyncio.run(scenario())

    def test_lost_frame_keeps_holding_the_boundary(self):
        """The 'current through last_ts' rule counts a frame from when
        it is built: a client that never got the frame that last
        changed the retained copy stays at what it really applied."""
        db, table, server, client = build()
        client.register("cheap", CHEAP)
        sub = server._subscriptions[("c1", "cheap")]
        registered = sub.last_ts
        assert sub.horizon(registered) == registered
        server.network.partition("server", "c1")
        table.insert((4, "SUN", 60))
        server.refresh_all()  # frame built, then lost
        table.insert((5, "DEC", 200))
        server.refresh_all()  # quiet cycle: last_ts moves on
        assert sub.changed_ts < sub.last_ts
        assert sub.horizon(registered) == registered
        assert sub.horizon(sub.changed_ts) == sub.last_ts


class TestSharedFrames:
    """A routed group's delta crosses each connection once: one frame
    addresses every DRA_DELTA member the connection holds, and the
    client applies it once per distinct cached state."""

    MEMBERS = ("cheap", "cheap0", "cheap1", "cheap2")

    async def start(self, d):
        await d.start()
        for name in self.MEMBERS[1:]:
            await d.register(name)

    @staticmethod
    def count_applies(calls):
        import repro.net.client

        inner = repro.net.client.apply_delta
        patch = pytest.MonkeyPatch()
        patch.setattr(
            repro.net.client,
            "apply_delta",
            lambda *args: calls.append(args) or inner(*args),
        )
        return patch

    @both_clients
    async def test_members_with_one_state_apply_once(self, d):
        await self.start(d)
        calls = []
        patch = self.count_applies(calls)
        try:
            d.table.insert((4, "SUN", 60))
            await d.refresh()
        finally:
            patch.undo()
        assert [m.cq_names for m in d.seen] == [self.MEMBERS]
        assert len(calls) == 1
        first, *rest = (d.client.result(name) for name in self.MEMBERS)
        assert first == d.db.query(CHEAP)
        # One relation, replaced (never mutated) by the next frame.
        assert all(result is first for result in rest)
        assert d.faults() == (0, 0)
        if d.kind is CQSession:
            assert d.client.deltas_applied == len(self.MEMBERS)
            assert {d.client.applied[n] for n in self.MEMBERS} == {d.db.now()}

    @both_clients
    async def test_diverged_member_resyncs_while_frame_mates_apply(self, d):
        await self.start(d)
        held = d.client.result("cheap1")
        tid = next(iter(held.tids()))
        d.client._results["cheap1"] = Relation(
            held.schema, (row for row in held if row.tid != tid)
        )
        calls = []
        patch = self.count_applies(calls)
        try:
            d.table.insert((4, "SUN", 60))
            await d.refresh()
            await d.settle(self.MEMBERS)
        finally:
            patch.undo()
        assert len(d.seen) == 1
        # One apply for the three alike, one for the diverged copy.
        assert len(calls) == 2
        assert d.faults() == (1, 0)
        assert d.resynced == ["cheap1"]
        mates = [d.client.result(n) for n in ("cheap", "cheap0", "cheap2")]
        assert mates[0] is mates[1] is mates[2]

    @both_clients
    async def test_lost_shared_frame_heals_every_addressed_member(self, d):
        await self.start(d)
        d.table.insert((4, "SUN", 60))
        await d.lose_next_refresh()
        if d.kind is CQClient:
            # The server saw the loss: no member counts as arrived, so
            # none of their zones moves past the lost frame.
            for name in self.MEMBERS:
                s = d.server._subscriptions[("c1", name)]
                assert s.arrived_ts < s.changed_ts
        d.table.insert((5, "DEC", 61))
        await d.refresh()
        await d.settle(self.MEMBERS)
        assert len(d.seen) == 1
        assert d.faults() == (len(self.MEMBERS), 0)
        assert sorted(d.resynced) == sorted(self.MEMBERS)

    def test_per_cq_bytes_sum_to_the_wire(self):
        """A shared frame's bytes are split over the CQs it addresses,
        and each is charged one delivery."""
        db, table, server, client = build(fanout=True)
        other = CQClient("c2")
        server.attach(other)
        names = ("a", "b", "c")
        for endpoint in (client, other):
            for name in names:
                endpoint.register(name, CHEAP)
        before = {name: server.stats.counters(name) for name in names}
        server.network.reset()
        reached = []
        for price in (60, 61, 62):
            table.insert((10 + price, "NEW", price))
            reached.append(server.refresh_all())
        assert reached == [6, 6, 6]
        # One frame per (client, group) and cycle.
        assert server.network.total.messages == 2 * 3
        charged = {
            name: {
                key: server.stats.counters(name).get(key, 0)
                - before[name].get(key, 0)
                for key in (Metrics.BYTES_SENT, Metrics.MESSAGES_SENT)
            }
            for name in names
        }
        assert sum(c[Metrics.BYTES_SENT] for c in charged.values()) == (
            server.network.total.bytes
        )
        assert all(c[Metrics.MESSAGES_SENT] == 2 * 3 for c in charged.values())


class TestConnectTimeout:
    def _dead_port(self):
        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            return s.getsockname()[1]

    def test_gives_up_after_max_attempts(self):
        async def scenario():
            session = CQSession(
                "c1", "127.0.0.1", self._dead_port(),
                backoff_base=0.01, max_attempts=2,
            )
            with pytest.raises(ConnectTimeout) as info:
                await session.connect(timeout=30.0)
            assert info.value.attempts >= 2
            assert isinstance(info.value, NetworkError)
            assert not session.connected
            assert session._task is None  # torn down, safe to retry

        asyncio.run(scenario())

    def test_timeout_is_a_total_deadline_across_backoff(self):
        async def scenario():
            # Long backoff + many attempts: a per-attempt budget would
            # keep dialing far past the deadline; the total deadline
            # must cut the whole loop off.
            session = CQSession(
                "c1", "127.0.0.1", self._dead_port(),
                backoff_base=0.5, backoff_cap=2.0, max_attempts=50,
            )
            start = time.monotonic()
            with pytest.raises(ConnectTimeout) as info:
                await session.connect(timeout=0.3)
            elapsed = time.monotonic() - start
            assert elapsed < 5.0
            assert info.value.attempts >= 1
            assert session._task is None

        asyncio.run(scenario())
