"""Reconnect replay over real sockets (the PR's acceptance scenario).

A TCP connection is killed mid-stream by an injected fault while
updates keep arriving. The client reconnects with its last-applied
timestamp and must converge with the server:

* while the update-log window survives, the resume is a single
  consolidated DeltaMessage — no full-result bytes cross the wire and
  ``replay_fallbacks`` stays 0;
* once garbage collection has pruned past the client's horizon, the
  server must fall back to a complete result, counted in
  ``replay_fallbacks``.
"""

import asyncio

from repro.metrics import Metrics
from repro.net.client import CQSession
from repro.net.service import CQService
from repro.storage.database import Database
from repro.workload.stocks import StockMarket

WATCH = "SELECT name, price FROM stocks WHERE price > 800"
JOIN = (
    "SELECT s.name, t.shares FROM stocks s, trades t "
    "WHERE s.sid = t.sid AND s.price > 800"
)


def build_market(seed=13):
    db = Database()
    market = StockMarket(db, seed=seed)
    market.populate(300)
    return db, market


class TestDeltaReplay:
    def test_mid_stream_kill_resumes_differentially(self):
        async def scenario():
            db, market = build_market()
            service = CQService(db, heartbeat_interval=0.02)
            addr = await service.start()
            session = CQSession("c1", *addr, backoff_base=0.01)
            await session.connect()
            await session.register("watch", WATCH)
            market.tick(60)
            await service.refresh()
            await session.wait_applied("watch", db.now())
            # Wait until a heartbeat ack pinned the zone at the applied
            # refresh, so the replay window is exactly GC-protected.
            applied = session.applied["watch"]
            for __ in range(100):
                if service.server.zones.boundary("c1:watch") == applied:
                    break
                await asyncio.sleep(0.02)

            # Fault: kill every TCP connection mid-stream while more
            # updates commit.
            market.tick(60)
            severed = service.sever_connections()
            assert severed == 1
            market.tick(60)

            await session.wait_applied("watch", db.now(), timeout=10.0)
            assert session.result("watch") == db.query(WATCH)
            assert session.reconnects >= 1
            # Differential resume: the whole missed window arrived as
            # one delta, never as a full result.
            assert session.full_results == 0
            assert service.metrics[Metrics.REPLAYS] >= 1
            assert service.metrics[Metrics.REPLAY_FALLBACKS] == 0
            service.server.check_invariants()
            await session.close()
            await service.stop()

        asyncio.run(scenario())

    def test_join_subscription_survives_reconnect(self):
        async def scenario():
            db = Database()
            market = StockMarket(db, seed=29, with_trades=True)
            market.populate(300, trades_per_stock=1)
            service = CQService(db, heartbeat_interval=0.02)
            addr = await service.start()
            session = CQSession("c1", *addr, backoff_base=0.01)
            await session.connect()
            await session.register("positions", JOIN)
            market.tick(40)
            await service.refresh()
            await session.wait_applied("positions", db.now())
            market.tick(40)
            service.sever_connections()
            await session.wait_applied("positions", db.now(), timeout=10.0)
            assert session.result("positions") == db.query(JOIN)
            assert session.full_results == 0
            service.server.check_invariants()
            await session.close()
            await service.stop()

        asyncio.run(scenario())


class TestGCFallback:
    def test_pruned_window_falls_back_to_full_result(self):
        async def scenario():
            db, market = build_market()
            service = CQService(db)
            addr = await service.start()
            session = CQSession("c1", *addr, backoff_base=0.01)
            await session.connect()
            await session.register("watch", WATCH)
            market.tick(60)
            await service.refresh()
            await session.wait_applied("watch", db.now())

            # Disconnect cleanly: the server releases the client's
            # replay zones, so its window is no longer GC-protected.
            await session.close()
            for __ in range(100):
                if "c1" not in service.sessions():
                    break
                await asyncio.sleep(0.02)
            market.tick(60)
            pruned = service.server.collect_garbage(include_unwatched=True)
            assert pruned, "GC should have retired the client's window"
            assert (
                db.table("stocks").log.pruned_through
                > session.applied["watch"]
            )

            # A new session resumes from the stale horizon: the only
            # sound answer is a complete result.
            resumed = CQSession("c1", *addr, backoff_base=0.01)
            resumed.applied = dict(session.applied)
            resumed._registered = dict(session._registered)
            resumed._results = {
                name: result.copy()
                for name, result in session._results.items()
            }
            await resumed.connect()
            await resumed.wait_applied("watch", db.now(), timeout=10.0)
            assert resumed.result("watch") == db.query(WATCH)
            assert resumed.full_results == 1
            assert service.metrics[Metrics.REPLAY_FALLBACKS] == 1
            service.server.check_invariants()
            await resumed.close()
            await service.stop()

        asyncio.run(scenario())

    def test_intact_window_replays_after_clean_disconnect(self):
        """Control for the fallback case: same flow but no GC, so the
        resume stays differential."""

        async def scenario():
            db, market = build_market(seed=47)
            service = CQService(db)
            addr = await service.start()
            session = CQSession("c1", *addr, backoff_base=0.01)
            await session.connect()
            await session.register("watch", WATCH)
            market.tick(60)
            await service.refresh()
            await session.wait_applied("watch", db.now())
            await session.close()
            market.tick(60)

            resumed = CQSession("c1", *addr, backoff_base=0.01)
            resumed.applied = dict(session.applied)
            resumed._registered = dict(session._registered)
            resumed._results = {
                name: result.copy()
                for name, result in session._results.items()
            }
            await resumed.connect()
            await resumed.wait_applied("watch", db.now(), timeout=10.0)
            assert resumed.result("watch") == db.query(WATCH)
            assert resumed.full_results == 0
            assert service.metrics[Metrics.REPLAY_FALLBACKS] == 0
            service.server.check_invariants()
            await resumed.close()
            await service.stop()

        asyncio.run(scenario())
