"""Crash/recovery: checkpoint a CQ server, restart it, resume clients.

The checkpoint (core/persistence.py) captures the database — contents
plus update logs — and every subscription's identity and refresh
position. A restored server must resume *differentially*: a stale
client reconnecting with its last-applied timestamp receives exactly
the missed window, and the resumed result equals a complete
re-evaluation over the restored database.
"""

import asyncio

import pytest

from repro.core.persistence import (
    load_server,
    recover_server,
    save_server,
    server_from_dict,
    server_to_dict,
)
from repro.net.client import CQClient, CQSession
from repro.net.server import CQServer, Protocol
from repro.net.service import CQService
from repro.net.simnet import SimulatedNetwork
from repro.storage.database import Database
from repro.workload.stocks import StockMarket

WATCH = "SELECT name, price FROM stocks WHERE price > 800"


def build_market(seed=17):
    db = Database()
    market = StockMarket(db, seed=seed)
    market.populate(300)
    return db, market


@pytest.fixture
def reconstructions(monkeypatch):
    """The E_0 runs of the views (``SharedView.at``), as a list of SQL
    texts: a restored group is reconstructed once, whatever its member
    count."""
    import repro.core.scheduler

    calls = []
    inner = repro.core.scheduler.dra_initial

    def counting(query, *args, **kwargs):
        calls.append(query.to_sql())
        return inner(query, *args, **kwargs)

    monkeypatch.setattr(repro.core.scheduler, "dra_initial", counting)
    return calls


class TestCheckpointRoundTrip:
    def test_subscriptions_and_positions_survive(
        self, tmp_path, reconstructions
    ):
        db, market = build_market()
        server = CQServer(db, SimulatedNetwork())
        for name in ("c1", "c2", "c3"):
            client = CQClient(name)
            server.attach(client)
            client.register("watch", WATCH, Protocol.DRA_DELTA)
        market.tick(40)
        server.refresh_all()

        path = tmp_path / "server.json"
        save_server(server, str(path))
        del reconstructions[:]
        restored = load_server(str(path))
        restored.check_invariants()
        assert len(reconstructions) == 1

        for orig, back in zip(server.subscriptions(), restored.subscriptions()):
            assert (back.client_id, back.cq_name) == (orig.client_id, orig.cq_name)
            assert back.protocol is orig.protocol
            assert back.last_ts == orig.last_ts
            assert back.previous_result == orig.previous_result
        assert restored.zones.boundary("c1:watch") == orig.last_ts

    def test_pending_window_reconstructed_behind_last_ts(
        self, tmp_path, reconstructions
    ):
        """Updates committed after the last refresh must not leak into
        the restored retained copy — it is the result *at last_ts*."""
        db, market = build_market(seed=23)
        server = CQServer(db, SimulatedNetwork())
        for name in ("c1", "c2"):
            client = CQClient(name)
            server.attach(client)
            client.register("watch", WATCH, Protocol.DRA_DELTA)
        market.tick(40)
        server.refresh_all()
        result_at_refresh = server.subscriptions()[0].previous_result.copy()
        market.tick(40)  # pending window, not yet refreshed

        del reconstructions[:]
        restored = server_from_dict(server_to_dict(server))
        restored.check_invariants()
        assert len(reconstructions) == 1
        assert restored.subscriptions()[0].previous_result == result_at_refresh

        # The first post-restore refresh is differential over exactly
        # the pending window and converges to the current truth.
        replay_client = CQClient("c1")
        replay_client._results["watch"] = result_at_refresh.copy()
        restored.attach(replay_client)
        restored.attach(CQClient("c2"))
        restored.refresh_all()
        restored.check_invariants()
        assert replay_client.result("watch") == restored.db.query(WATCH)

    def test_journal_recovered_members_of_one_group_converge(
        self, tmp_path, reconstructions
    ):
        """Members that registered at different times come back from
        the journal alone: the group is rebuilt once, with its first
        member, and the later one moves its window like any join. Each
        keeps its own zone, so its client still resumes from the logs."""
        wal_path = str(tmp_path / "server.wal")
        db = Database(durability=wal_path)
        market = StockMarket(db, seed=37)
        market.populate(300)
        server = CQServer(db, SimulatedNetwork())
        clients, registered = {}, {}
        for name in ("early", "late"):
            clients[name] = CQClient(name)
            server.attach(clients[name])
            clients[name].register("watch", WATCH, Protocol.DRA_DELTA)
            registered[name] = db.now()
            market.tick(30)
        assert registered["early"] < registered["late"] < db.now()
        # What each client really holds: the late join shipped the
        # early member the window it found open.
        applied = {s.client_id: s.arrived_ts for s in server.subscriptions()}
        db.wal.close()

        del reconstructions[:]
        restored = recover_server(wal_path)
        restored.check_invariants()
        assert len(reconstructions) == 1
        assert restored.zones.boundaries() == {
            f"{name}:watch": ts for name, ts in registered.items()
        }
        for name, client in clients.items():
            restored.attach(client)
            assert restored.replay(name, "watch", applied[name])
            restored.check_invariants()
        table = restored.db.table("stocks")
        with restored.db.begin() as txn:
            for row in list(table.rows())[:30]:
                txn.modify_in(
                    table, row.tid, updates={"price": row.values[2] + 100}
                )
        restored.refresh_all()
        restored.check_invariants()
        for client in clients.values():
            assert client.result("watch") == restored.db.query(WATCH)

    def test_rejects_wrong_checkpoint_kind(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            server_from_dict({"format": 1, "kind": "something_else"})


class TestCrashRecoveryEndToEnd:
    def test_client_resumes_against_restarted_service(self, tmp_path):
        async def scenario():
            db, market = build_market(seed=31)
            service = CQService(db, heartbeat_interval=0.02)
            addr = await service.start()
            session = CQSession("c1", *addr, backoff_base=0.01)
            await session.connect()
            await session.register("watch", WATCH)
            market.tick(50)
            await service.refresh()
            await session.wait_applied("watch", db.now())

            # Checkpoint, then crash: connections die without warning.
            path = tmp_path / "server.json"
            save_server(service.server, str(path))
            service.sever_connections()
            await service.stop()

            # Restart from the checkpoint on a fresh port. The new
            # process has its own database instance; updates continue
            # against it.
            restored_server = load_server(str(path))
            restarted = CQService(
                restored_server.db,
                server=restored_server,
                heartbeat_interval=0.02,
            )
            new_addr = await restarted.start()

            # Keep perturbing the restored database directly.
            table = restored_server.db.table("stocks")
            with restored_server.db.begin() as txn:
                for row in list(table.rows())[:30]:
                    txn.modify_in(
                        table, row.tid, updates={"price": row.values[2] + 100}
                    )

            # The stale client redials the restarted service and must
            # converge differentially from its pre-crash position.
            await session.redial(*new_addr, timeout=10.0)
            await restarted.refresh()
            await session.wait_applied(
                "watch", restored_server.db.now(), timeout=10.0
            )
            assert session.result("watch") == restored_server.db.query(WATCH)
            assert session.reconnects >= 1
            await session.close()
            await restarted.stop()

        asyncio.run(scenario())
