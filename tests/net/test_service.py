"""Tests for the asyncio CQ service and client sessions (real sockets).

No pytest-asyncio in the environment: each test is a plain function
running its coroutine with ``asyncio.run``.
"""

import asyncio
import time

import pytest

from repro.metrics import Metrics
from repro.net.client import CQSession
from repro.net.messages import (
    HeartbeatMessage,
    HelloAckMessage,
    HelloMessage,
    RegisterMessage,
)
from repro.net.server import Protocol
from repro.net.service import CQService
from repro.net.transport import TcpTransport
from repro.storage.database import Database
from repro.workload.stocks import StockMarket

WATCH = "SELECT name, price FROM stocks WHERE price > 800"
CHEAP = "SELECT name, price FROM stocks WHERE price < 40"


def build_market(rows=200, seed=13):
    db = Database()
    market = StockMarket(db, seed=seed)
    market.populate(rows)
    return db, market


async def start_service(db, **kwargs):
    service = CQService(db, **kwargs)
    addr = await service.start()
    return service, addr


class TestPushProtocol:
    def test_register_ships_initial_result(self):
        async def scenario():
            db, market = build_market()
            service, addr = await start_service(db)
            session = CQSession("c1", *addr)
            await session.connect()
            result = await session.register("watch", WATCH)
            assert result == db.query(WATCH)
            await session.close()
            await service.stop()

        asyncio.run(scenario())

    def test_refresh_pushes_delta_over_socket(self):
        async def scenario():
            db, market = build_market()
            service, addr = await start_service(db)
            session = CQSession("c1", *addr)
            await session.connect()
            await session.register("watch", WATCH)
            market.tick(50)
            await service.refresh()
            await session.wait_applied("watch", db.now())
            assert session.result("watch") == db.query(WATCH)
            assert session.deltas_applied >= 1
            assert session.full_results == 0
            assert service.metrics[Metrics.BYTES_ENCODED] > 0
            await session.close()
            await service.stop()

        asyncio.run(scenario())

    def test_lazy_protocol_over_socket(self):
        async def scenario():
            db, market = build_market()
            service, addr = await start_service(db)
            session = CQSession("c1", *addr)  # auto_fetch on by default
            await session.connect()
            await session.register("watch", WATCH, Protocol.DRA_LAZY)
            market.tick(50)
            await service.refresh()
            await session.wait_applied("watch", db.now())
            assert session.lazy_notices >= 1
            assert session.result("watch") == db.query(WATCH)
            await session.close()
            await service.stop()

        asyncio.run(scenario())

    def test_stale_delta_triggers_resync_full_result(self):
        async def scenario():
            db, market = build_market()
            service, addr = await start_service(db)
            session = CQSession("c1", *addr)
            await session.connect()
            await session.register("watch", WATCH)
            # Simulate client-side state loss: the next delta cannot
            # apply, so the session must request a full copy.
            session._results.pop("watch")
            market.tick(50)
            await service.refresh()
            await session.wait_applied("watch", db.now())
            assert session.stale_deltas >= 1
            assert session.full_results >= 1
            assert service.metrics[Metrics.RESYNCS] >= 1
            assert session.result("watch") == db.query(WATCH)
            await session.close()
            await service.stop()

        asyncio.run(scenario())


class TestBadRegistrations:
    def test_a_malformed_register_keeps_the_session(self):
        """An unknown protocol, unparsable SQL, an unknown table or an
        unknown column is refused as a registration error: the session
        that sent it stays up and its good subscription keeps
        receiving deltas, with no reconnect."""

        async def scenario():
            db, market = build_market()
            service, addr = await start_service(db)
            session = CQSession("c1", *addr)
            await session.connect()
            await session.register("watch", WATCH)
            bad = [
                RegisterMessage("p", WATCH, "no_such_protocol"),
                RegisterMessage("s", "SELEC name FROM stocks", "dra_delta"),
                RegisterMessage("t", "SELECT a FROM nowhere", "dra_delta"),
                RegisterMessage("c", "SELECT nope FROM stocks", "reeval_delta"),
                RegisterMessage("d", "SELECT nope FROM stocks", "dra_delta"),
            ]
            for message in bad:
                await session._send(message)
            # The session still reads what its client sends.
            await session.register("cheap", CHEAP, timeout=3.0)
            market.tick(50)
            await service.refresh()
            for cq_name, sql in (("watch", WATCH), ("cheap", CHEAP)):
                await session.wait_applied(cq_name, db.now())
                assert session.result(cq_name) == db.query(sql)
            assert session.reconnects == 0
            assert [s.cq_name for s in service.server.subscriptions()] == [
                "watch",
                "cheap",
            ]
            await session.close()
            await service.stop()

        asyncio.run(scenario())


class TestHeartbeats:
    def test_heartbeat_acks_advance_zone(self):
        async def scenario():
            db, market = build_market()
            service, addr = await start_service(db, heartbeat_interval=0.02)
            session = CQSession("c1", *addr)
            await session.connect()
            await session.register("watch", WATCH)
            market.tick(50)
            await service.refresh()
            await session.wait_applied("watch", db.now())
            applied = session.applied["watch"]
            for __ in range(50):
                if service.server.zones.boundary("c1:watch") == applied:
                    break
                await asyncio.sleep(0.02)
            assert service.server.zones.boundary("c1:watch") == applied
            assert session.heartbeats >= 1
            await session.close()
            await service.stop()

        asyncio.run(scenario())

    def test_mute_client_evicted_after_missed_heartbeats(self):
        async def scenario():
            db, __ = build_market(rows=20)
            service, addr = await start_service(
                db, heartbeat_interval=0.02, miss_limit=1
            )
            transport = TcpTransport()
            conn = await transport.connect(*addr)
            await conn.send(HelloMessage("mute", {}))
            ack = await conn.recv()
            assert isinstance(ack, HelloAckMessage)
            # Never ack a heartbeat: the server must cut us off.
            while True:
                message = await conn.recv()
                if message is None:
                    break
            assert service.metrics[Metrics.HEARTBEATS_MISSED] >= 1
            for __ in range(50):
                if "mute" not in service.sessions():
                    break
                await asyncio.sleep(0.02)
            assert "mute" not in service.sessions()
            await service.stop()

        asyncio.run(scenario())

    def test_idle_timeout_evicts_silent_connection(self):
        async def scenario():
            db, __ = build_market(rows=20)
            service, addr = await start_service(
                db,
                heartbeat_interval=0.02,
                miss_limit=100,
                idle_timeout=0.05,
            )
            transport = TcpTransport()
            conn = await transport.connect(*addr)
            await conn.send(HelloMessage("quiet", {}))
            await conn.recv()
            while True:
                message = await conn.recv()
                if message is None:
                    break
            assert "quiet" not in service.sessions()
            await service.stop()

        asyncio.run(scenario())


class TestBackpressure:
    def test_backlogged_session_degrades_to_lazy_and_recovers(self):
        async def scenario():
            db, market = build_market()
            service, addr = await start_service(db, queue_limit=4)
            session = CQSession("c1", *addr, auto_fetch=False)
            await session.connect()
            await session.register("watch", WATCH)
            (sub,) = service.server.subscriptions_for("c1")
            server_session = service.sessions()["c1"]
            # Simulate a consumer that cannot keep up: stuff the outbox
            # past the limit (no await between, so the writer can't
            # drain mid-setup) and run a refresh cycle.
            for __ in range(service.queue_limit):
                server_session.outbox.append(HeartbeatMessage(db.now()))
            market.tick(50)
            await service.refresh()
            assert sub.protocol is Protocol.DRA_LAZY
            assert service.metrics[Metrics.BACKPRESSURE_DEGRADES] == 1
            # While degraded, the refresh accumulated server-side; the
            # client got a notice, not the delta.
            assert sub.pending_delta is not None
            # Let the queue drain, then the next cycle restores the
            # push protocol and ships the consolidated delta.
            await asyncio.sleep(0.05)
            market.tick(10)
            await service.refresh()
            assert sub.protocol is Protocol.DRA_DELTA
            await session.wait_applied("watch", db.now())
            assert session.result("watch") == db.query(WATCH)
            assert session.full_results == 0
            await session.close()
            await service.stop()

        asyncio.run(scenario())


    def test_restore_races_fresh_degrade_in_same_cycle(self):
        """One backpressure pass can restore a drained session while it
        degrades a freshly backlogged one; each subscription is counted
        once and both converge."""

        async def scenario():
            db, market = build_market()
            service, addr = await start_service(db, queue_limit=4)
            fast = CQSession("fast", *addr, auto_fetch=False)
            slow = CQSession("slow", *addr, auto_fetch=False)
            await fast.connect()
            await slow.connect()
            await fast.register("watch", WATCH)
            await slow.register("watch", WATCH)
            (fast_sub,) = service.server.subscriptions_for("fast")
            (slow_sub,) = service.server.subscriptions_for("slow")

            # Cycle 1: only `fast` is backlogged — it degrades.
            for __ in range(service.queue_limit):
                service.sessions()["fast"].outbox.append(
                    HeartbeatMessage(db.now())
                )
            market.tick(50)
            await service.refresh()
            assert fast_sub.protocol is Protocol.DRA_LAZY
            assert slow_sub.protocol is Protocol.DRA_DELTA
            assert service.metrics[Metrics.BACKPRESSURE_DEGRADES] == 1

            # Let `fast` drain, then stuff `slow` with no await in
            # between: cycle 2 sees a restorable session and a freshly
            # backlogged one in the same _apply_backpressure pass.
            await asyncio.sleep(0.05)
            for __ in range(service.queue_limit):
                service.sessions()["slow"].outbox.append(
                    HeartbeatMessage(db.now())
                )
            market.tick(10)
            await service.refresh()
            assert fast_sub.protocol is Protocol.DRA_DELTA
            assert slow_sub.protocol is Protocol.DRA_LAZY
            assert service.sessions()["fast"].degraded == set()
            assert service.sessions()["slow"].degraded == {"watch"}
            # Exactly one degrade per subscription — the second cycle
            # must not re-count fast's restored sub or double-count
            # slow's already-lazy one on later cycles.
            market.tick(10)
            await service.refresh()
            assert service.metrics[Metrics.BACKPRESSURE_DEGRADES] == 2

            # Both drain and converge on the live result.
            await asyncio.sleep(0.05)
            market.tick(10)
            await service.refresh()
            assert fast_sub.protocol is Protocol.DRA_DELTA
            assert slow_sub.protocol is Protocol.DRA_DELTA
            for client in (fast, slow):
                await client.wait_applied("watch", db.now())
                assert client.result("watch") == db.query(WATCH)
            await fast.close()
            await slow.close()
            await service.stop()

        asyncio.run(scenario())

    def test_disconnect_while_degraded_restores_subscription(self):
        """A session dropping mid-degrade must not park its retained
        subscription on DRA_LAZY: a reconnecting client starts a fresh
        (empty) degraded set, so nothing would ever restore it."""

        async def scenario():
            db, market = build_market()
            service, addr = await start_service(db, queue_limit=4)
            session = CQSession("c1", *addr, auto_fetch=False)
            await session.connect()
            await session.register("watch", WATCH)
            (sub,) = service.server.subscriptions_for("c1")
            for __ in range(service.queue_limit):
                service.sessions()["c1"].outbox.append(
                    HeartbeatMessage(db.now())
                )
            market.tick(50)
            await service.refresh()
            assert sub.protocol is Protocol.DRA_LAZY
            assert sub.pending_delta is not None

            # Drop the connection while degraded.
            await session.close()
            for __ in range(50):
                if "c1" not in service.sessions():
                    break
                await asyncio.sleep(0.02)
            assert "c1" not in service.sessions()
            # The retained subscription resumed the push protocol, the
            # accumulated delta was folded into the retained result
            # (not lost, not left pending), and the zone is released.
            assert sub.protocol is Protocol.DRA_DELTA
            assert sub.pending_delta is None
            assert sub.previous_result == db.query(WATCH)
            assert "c1:watch" not in service.server.zones.boundaries()

            # A reconnect resumes cleanly and keeps receiving deltas.
            session2 = CQSession("c1", *addr, auto_fetch=False)
            await session2.connect()
            await session2.register("watch", WATCH)
            market.tick(10)
            await service.refresh()
            await session2.wait_applied("watch", db.now())
            assert session2.result("watch") == db.query(WATCH)
            assert service.metrics[Metrics.BACKPRESSURE_DEGRADES] == 1
            await session2.close()
            await service.stop()

        asyncio.run(scenario())


    def test_backlog_is_counted_in_cycles_not_groups(self):
        """A frame carries one whole refresh for its connection, so a
        stalled session holding three routed groups queues one frame a
        cycle and degrades exactly when that backlog reaches
        ``queue_limit`` frames, however many groups it holds."""

        async def scenario():
            db, market = build_market()
            service, addr = await start_service(db, queue_limit=4)
            session = CQSession("c1", *addr, auto_fetch=False)
            await session.connect()
            templates = [f"{WATCH} AND sid <> {i}" for i in range(3)]
            for i, sql in enumerate(templates):
                await session.register(f"watch{i}", sql)
            stalled = service.sessions()["c1"]
            writer = stalled._tasks[0]
            writer.cancel()
            await asyncio.gather(writer, return_exceptions=True)
            subs = service.server.subscriptions_for("c1")
            assert len({sub.view for sub in subs}) == 3
            for cycle in range(1, service.queue_limit + 1):
                market.tick(50)
                await service.refresh()
                assert all(sub.protocol is Protocol.DRA_DELTA for sub in subs)
                assert len(stalled.outbox) == cycle
            market.tick(50)
            await service.refresh()
            assert all(sub.protocol is Protocol.DRA_LAZY for sub in subs)
            assert service.metrics[Metrics.BACKPRESSURE_DEGRADES] == len(subs)
            await session.close()
            await service.stop()

        asyncio.run(scenario())


class TestStats:
    def test_stats_reply_round_trips_over_live_socket(self, tmp_path):
        async def scenario():
            db, market = build_market(rows=50)
            service, addr = await start_service(
                db, durability=str(tmp_path / "service.wal")
            )
            session = CQSession("c1", *addr)
            await session.connect()
            await session.register("watch", WATCH)
            market.tick(20)
            await service.refresh()
            await session.wait_applied("watch", db.now())

            stats = await session.stats()
            counters = stats["counters"]
            # Ops-critical counters are always present, even at zero.
            for key in (
                Metrics.WAL_APPENDS,
                Metrics.WAL_RECOVERED,
                Metrics.DIGEST_MISMATCHES,
                Metrics.BACKPRESSURE_DEGRADES,
                Metrics.BYTES_ENCODED,
                Metrics.RECONNECTS,
                Metrics.RESYNCS,
            ):
                assert key in counters
            assert counters[Metrics.WAL_APPENDS] > 0
            assert counters[Metrics.BYTES_ENCODED] > 0
            assert counters[Metrics.DIGEST_MISMATCHES] == 0

            assert stats["server"] == "server"
            (sess,) = stats["sessions"]
            assert sess["client"] == "c1"
            assert sess["degraded"] == []
            assert "c1:watch" in stats["zones"]
            (sub_row,) = stats["subscriptions"]
            assert sub_row["cq"] == "watch"
            assert sub_row["bytes_sent"] > 0
            assert "watch" in stats["per_cq"]
            await session.close()
            await service.stop()

        asyncio.run(scenario())

    def test_prometheus_exposition_parses(self):
        async def scenario():
            db, market = build_market(rows=50)
            service, addr = await start_service(db)
            session = CQSession("c1", *addr)
            await session.connect()
            await session.register("watch", WATCH)
            market.tick(20)
            await service.refresh()
            from repro.obs import counter_value, parse_prometheus_text

            parsed = parse_prometheus_text(service.prometheus())
            assert counter_value(parsed, "repro_bytes_encoded") > 0
            await session.close()
            await service.stop()

        asyncio.run(scenario())


class TestLifecycle:
    def test_evict_cuts_connection(self):
        async def scenario():
            db, __ = build_market(rows=20)
            service, addr = await start_service(db)
            session = CQSession("c1", *addr, max_attempts=1)
            await session.connect()
            assert service.evict("c1")
            for __ in range(50):
                if not session.connected:
                    break
                await asyncio.sleep(0.02)
            await session.close()
            await service.stop()

        asyncio.run(scenario())

    def test_second_connection_replaces_first(self):
        async def scenario():
            db, __ = build_market(rows=20)
            service, addr = await start_service(db)
            first = CQSession("c1", *addr)
            await first.connect()
            second = CQSession("c1", *addr)
            await second.connect()
            for __ in range(50):
                if service.sessions().get("c1") is not None:
                    break
                await asyncio.sleep(0.02)
            assert service.metrics[Metrics.RECONNECTS] >= 1
            await first.close()
            await second.close()
            await service.stop()

        asyncio.run(scenario())

    def test_status_report_lists_connection_counters(self):
        async def scenario():
            db, __ = build_market(rows=20)
            service, addr = await start_service(db)
            session = CQSession("c1", *addr)
            await session.connect()
            await session.register("watch", WATCH)
            report = service.status_report()
            for needle in (
                "reconnects=",
                "heartbeats_missed=",
                "replay_fallbacks=",
                "bytes_encoded=",
                "backpressure_degrades=",
                "watch",
            ):
                assert needle in report
            await session.close()
            await service.stop()

        asyncio.run(scenario())

    def test_server_side_teardown_after_peer_close_is_prompt(self):
        """recv() marks a connection closed on EOF; close() must still
        close the transport, or the handler's wait_closed() sits out
        its whole 1 s bound with a shielded waiter left pending."""

        async def scenario():
            torn_down = asyncio.Event()
            elapsed = []

            async def handler(conn):
                assert await conn.recv() is None  # peer closed
                start = time.perf_counter()
                conn.close()
                await conn.wait_closed()
                elapsed.append(time.perf_counter() - start)
                torn_down.set()

            transport = TcpTransport()
            server, addr = await transport.serve("127.0.0.1", 0, handler)
            client = await transport.connect(*addr)
            client.close()
            await client.wait_closed()
            await asyncio.wait_for(torn_down.wait(), 5.0)
            server.close()
            await server.wait_closed()
            await asyncio.sleep(0)  # let the handler task itself finish
            assert elapsed[0] < 0.2
            pending = asyncio.all_tasks() - {asyncio.current_task()}
            assert not pending

        asyncio.run(scenario())
