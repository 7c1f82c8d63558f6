"""Chaos soak: crashes, torn journals, severed links, corrupt deltas.

A seeded schedule drives random updates through a durable
:class:`CQService` while chaos events fire between rounds:

* **process crash** — the service is abandoned mid-flight (no clean
  checkpoint, connections severed) and rebuilt with
  :meth:`CQService.recover` from the write-ahead log;
* **torn journal tail** — garbage appended to the WAL before recovery,
  exercising truncate-and-continue;
* **severed connections** — TCP links cut without warning, forcing
  session reconnect + differential replay;
* **garbage collection** — update logs pruned up to the active delta
  zone boundary, forcing full-result fallbacks for stale resumes;
* **corrupt delta** — a digest-mismatched delta injected at a client,
  which must detect it, count exactly one mismatch, and auto-resync.

The invariant throughout: after the dust settles every client's cached
result equals a complete re-evaluation over the surviving database,
and every injected fault was *counted* — zero undetected divergences.
"""

import asyncio
import random

import pytest

from repro.core.persistence import save_server
from repro.errors import NetworkError
from repro.metrics import Metrics
from repro.net.client import CQSession
from repro.net.service import CQService
from repro.net.transport import FaultInjector
from repro.relational.types import AttributeType
from repro.storage.database import Database

SCHEMA = [
    ("id", AttributeType.INT),
    ("sym", AttributeType.STR),
    ("price", AttributeType.INT),
    ("volume", AttributeType.INT),
]

CQS = {
    "cheap": "SELECT sym, price FROM stocks WHERE price < 500",
    "heavy": "SELECT sym, volume FROM stocks WHERE volume > 3000",
}

SYMBOLS = ["IBM", "MAC", "HP", "SUN", "DEC", "NCR", "SGI", "CRI"]


def mutate(db, rng, count):
    """Apply ``count`` random inserts/modifies/deletes in one txn."""
    table = db.table("stocks")
    with db.begin() as txn:
        for _ in range(count):
            rows = list(table.rows())
            op = rng.random()
            if op < 0.5 or len(rows) < 5:
                txn.insert_into(
                    table,
                    (
                        rng.randrange(1_000_000),
                        rng.choice(SYMBOLS),
                        rng.randrange(1000),
                        rng.randrange(6000),
                    ),
                )
            elif op < 0.85:
                row = rng.choice(rows)
                txn.modify_in(
                    table, row.tid, updates={"price": rng.randrange(1000)}
                )
            else:
                txn.delete_from(table, rng.choice(rows).tid)


class TestChaosSoak:
    ROUNDS = 20
    CRASH_ROUNDS = frozenset({1, 3, 5, 7, 9, 11, 13, 15, 17, 19})  # 10 crashes
    TORN_ROUNDS = frozenset({3, 9, 15})  # corrupt the journal tail first
    CHECKPOINT_ROUNDS = frozenset({6, 14})  # mid-soak checkpoints
    SEVER_ROUNDS = frozenset({4, 12})  # cut links without killing the db
    GC_ROUNDS = frozenset({8, 16})
    # Incarnations recovered at these crash rounds run with a seeded
    # frame-drop injector until the next crash replaces them.
    DROP_ROUNDS = frozenset({7, 17})

    def test_soak_converges_through_ten_crashes(self, tmp_path):
        asyncio.run(self._soak(tmp_path, seed=1996))

    async def _soak(self, tmp_path, seed):
        rng = random.Random(seed)
        wal_path = str(tmp_path / "soak.wal")
        ckpt_path = str(tmp_path / "soak.ckpt")
        metrics = Metrics()

        db = Database(durability=wal_path)
        table = db.create_table("stocks", SCHEMA)
        for i in range(40):
            table.insert(
                (i, rng.choice(SYMBOLS), rng.randrange(1000), rng.randrange(6000))
            )

        service = CQService(
            db, metrics=metrics, heartbeat_interval=0.05, audit_interval=3
        )
        addr = await service.start()

        sessions = {}
        for name, sql in CQS.items():
            session = CQSession(
                f"client-{name}", *addr, backoff_base=0.01, seed=seed
            )
            await session.connect()
            await session.register(name, sql)
            sessions[name] = session

        crashes = 0
        torn_seen = 0
        checkpointed = False
        injectors = []
        try:
            for round_no in range(self.ROUNDS):
                mutate(service.db, rng, rng.randint(1, 6))

                if round_no in self.CHECKPOINT_ROUNDS:
                    save_server(service.server, ckpt_path)
                    checkpointed = True

                if round_no in self.GC_ROUNDS:
                    service.server.collect_garbage()

                if round_no in self.SEVER_ROUNDS:
                    service.sever_connections()

                if round_no in self.CRASH_ROUNDS:
                    # Crash mid-refresh: kick deliveries off, then kill
                    # the process before clients can have applied them.
                    await service.refresh()
                    service.sever_connections()
                    await service.stop()
                    crashes += 1
                    if round_no in self.TORN_ROUNDS:
                        with open(wal_path, "ab") as fh:
                            fh.write(b"\x00\x00\x07\xffchaos-torn-tail")
                    injector = None
                    if round_no in self.DROP_ROUNDS:
                        injector = FaultInjector(drop_rate=0.25, seed=seed)
                        injectors.append(injector)
                    incarnation = Metrics()
                    service = CQService.recover(
                        wal_path,
                        checkpoint_path=ckpt_path if checkpointed else None,
                        metrics=incarnation,
                        heartbeat_interval=0.05,
                        audit_interval=3,
                        injector=injector,
                    )
                    torn_seen += incarnation.get(Metrics.WAL_TORN_TRUNCATIONS)
                    addr = await service.start()
                    for session in sessions.values():
                        await self._redial(service, session, addr)
                else:
                    await service.refresh()
                service.server.check_invariants()

                # Every few rounds, force full convergence and compare
                # against a complete re-evaluation of the live database.
                if round_no % 5 == 4:
                    await self._assert_converged(service, sessions, rng)

            await service.refresh()
            await self._assert_converged(service, sessions, rng)
            service.server.check_invariants()
        finally:
            for session in sessions.values():
                await session.close()
            await service.stop()

        assert crashes == 10
        # Every injected torn tail was detected, truncated, and counted
        # — never crashed recovery.
        assert torn_seen == len(self.TORN_ROUNDS)
        # The drop windows actually lost frames; the convergence
        # assertions above prove every loss was detected and healed
        # (stale-delta resync or digest mismatch), never served stale.
        assert sum(i.frames_dropped for i in injectors) > 0
        assert sum(s.reconnects for s in sessions.values()) >= 1

    async def _redial(self, service, session, addr):
        """Reconnect a session after a crash, tolerating a handshake
        that a drop window ate (sever the half-open link and retry)."""
        for __ in range(5):
            try:
                await session.redial(*addr, timeout=3.0)
                return
            except NetworkError:
                service.sever_connections()
        raise AssertionError(
            f"session {session.client_id} could not re-establish"
        )

    async def _assert_converged(self, service, sessions, rng):
        # Wait on result equality, not applied timestamps: a CQ whose
        # delta window was empty never gets (or needs) a new message.
        # Under an active drop window the last delta may have been
        # eaten with nothing behind it to trigger resync, so on a miss
        # we nudge with another update+refresh round — the client then
        # detects its stale cache and heals — and re-check.
        for name, session in sessions.items():
            for attempt in range(5):
                reference = service.db.query(CQS[name])
                try:
                    await session._wait_for(
                        lambda n=name, s=session, r=reference: (
                            n in s._results and s._results[n] == r
                        ),
                        timeout=3.0,
                    )
                    break
                except NetworkError:
                    if attempt == 4:
                        raise AssertionError(
                            f"{name} failed to converge: "
                            f"cached={session._results.get(name)!r} "
                            f"expected={reference!r}"
                        )
                    mutate(service.db, rng, 1)
                    await service.refresh()


def mutate_cluster(router, rng, count):
    """Seeded random churn over the cluster schema (stocks replicated,
    folios partitioned — including partition-key migrations)."""
    db = router.db
    stocks = db.table("stocks")
    folios = db.table("folios")
    with db.begin() as txn:
        for __ in range(count):
            op = rng.random()
            stock_rows = list(stocks.current)
            folio_rows = list(folios.current)
            if op < 0.35 or len(stock_rows) < 5:
                txn.insert_into(
                    stocks,
                    (
                        rng.randrange(1_000_000),
                        rng.choice(SYMBOLS),
                        rng.randrange(1000),
                        rng.randrange(6000),
                    ),
                )
            elif op < 0.55:
                row = rng.choice(stock_rows)
                txn.modify_in(
                    stocks,
                    row.tid,
                    updates={"price": rng.randrange(1000)},
                )
            elif op < 0.7 or len(folio_rows) < 5:
                txn.insert_into(
                    folios,
                    (
                        rng.randrange(1_000_000),
                        f"client-{rng.randrange(12)}",
                        rng.choice(stock_rows).values[0],
                        rng.randrange(100),
                    ),
                )
            elif op < 0.85:
                # Partition-key update: the row migrates slices.
                row = rng.choice(folio_rows)
                txn.modify_in(
                    folios,
                    row.tid,
                    updates={"client": f"client-{rng.randrange(12)}"},
                )
            else:
                txn.delete_from(folios, rng.choice(folio_rows).tid)


class TestClusterChaosSoak:
    """Multi-shard chaos: kill shards mid-stream, keep streaming, and
    recover through both halves of the recovery matrix.

    A 3-shard cluster (one partitioned table, one replicated) absorbs a
    seeded update schedule. Shard 1 is killed mid-stream with its zone
    pinned — recovery must take the delta-replay path, exactly once.
    Shard 2 is killed with its zone released and the logs collected —
    recovery must take the baseline-fallback path, exactly once. After
    every recovery the soak asserts *bit-identical* convergence: each
    retained subscription result equals the single-process oracle (a
    from-scratch evaluation over the router's authoritative database).
    """

    ROUNDS = 16
    KILL_REPLAY_ROUND = 3  # kill shard 1, zone pinned
    RECOVER_REPLAY_ROUND = 7
    KILL_FALLBACK_ROUND = 9  # kill shard 2, zone released + GC
    RECOVER_FALLBACK_ROUND = 13

    CLUSTER_CQS = {
        "cheap": "SELECT sym, price FROM stocks WHERE price < 500",
        "heavy": "SELECT sym, volume FROM stocks WHERE volume > 3000",
        "folio": (
            "SELECT p.client, s.sym, s.price, p.qty "
            "FROM folios p, stocks s "
            "WHERE p.sid = s.id AND s.price > 200"
        ),
    }

    def _mutate(self, router, rng, count):
        mutate_cluster(router, rng, count)

    def _assert_converged(self, router):
        router.check_invariants()
        for name, sql in self.CLUSTER_CQS.items():
            oracle = router.db.query(sql)
            got = router.result("soak", name)
            assert got == oracle, f"{name} diverged from the oracle"

    def test_cluster_soak_replay_then_fallback(self, tmp_path):
        from repro.cluster import ClusterRouter, LocalBackend

        rng = random.Random(2026)
        router = ClusterRouter(
            shards=3,
            seed=17,
            backend=LocalBackend(wal_root=str(tmp_path)),
        )
        router.declare_table("stocks", SCHEMA)
        router.declare_table(
            "folios",
            [
                ("fid", AttributeType.INT),
                ("client", AttributeType.STR),
                ("sid", AttributeType.INT),
                ("qty", AttributeType.INT),
            ],
            partition_key="client",
        )
        router.start()

        db = router.db
        with db.begin() as txn:
            for i in range(40):
                txn.insert_into(
                    db.table("stocks"),
                    (
                        i,
                        rng.choice(SYMBOLS),
                        rng.randrange(1000),
                        rng.randrange(6000),
                    ),
                )
            for i in range(30):
                txn.insert_into(
                    db.table("folios"),
                    (i, f"client-{i % 12}", i % 40, rng.randrange(100)),
                )

        for name, sql in self.CLUSTER_CQS.items():
            router.subscribe("soak", name, sql)
        router.refresh()
        self._assert_converged(router)

        replayed = fallen_back = False
        for round_no in range(self.ROUNDS):
            self._mutate(router, rng, rng.randint(1, 6))

            if round_no == self.KILL_REPLAY_ROUND:
                router.kill_shard(1)
            if round_no == self.KILL_FALLBACK_ROUND:
                router.kill_shard(2, release_zone=True)
            router.check_invariants()

            router.refresh()
            router.check_invariants()

            if round_no == self.RECOVER_REPLAY_ROUND:
                replayed = router.recover_shard(1)
                router.check_invariants()
                router.refresh()
                self._assert_converged(router)
            if round_no == self.RECOVER_FALLBACK_ROUND:
                # GC first: the released zone lets the logs prune past
                # the dead shard's horizon, forcing the fallback.
                router.collect_garbage()
                fallen_back = not router.recover_shard(2)
                router.check_invariants()
                router.refresh()
                self._assert_converged(router)

        router.refresh()
        self._assert_converged(router)

        assert replayed, "shard 1 should have recovered via delta replay"
        assert fallen_back, "shard 2 should have needed the baseline fallback"
        snapshot = router.metrics.snapshot()
        assert snapshot.get(Metrics.SHARD_REPLAYS) == 1
        assert snapshot.get(Metrics.SHARD_FALLBACKS) == 1
        # The stream kept flowing while shards were down and the merge
        # machinery actually ran (this soak is not vacuously quiet).
        assert snapshot.get(Metrics.SCATTERS, 0) > 0
        assert snapshot.get(Metrics.CLUSTER_MERGES, 0) > 0
        router.close()


class TestReplicatedChaosSoak:
    """Failover chaos: with ``replicas=1``, any single shard may die at
    any moment — including mid-scatter, via injected deadline misses —
    and the soak must show **zero failed cycles** (refresh never
    raises), **zero baseline fallbacks**, and bit-identical convergence
    after every round.

    The schedule exercises every detection-and-recovery shape:

    * **hard crash** — shard 0 killed between cycles; its groups fail
      over on the next refresh and re-replicate in the background;
    * **mid-scatter hang** — shard 1's scatter sends time out (first
      try and the retry) partway through a cycle, forcing same-cycle
      promotion of its groups' replicas;
    * **slow shard** — shard 2 misses one deadline but answers the
      retry: one suspect, one retry, *no* failover;
    * **reply loss** — a scatter is applied but its reply is eaten;
      the retry must hit the shard's seq-dedup cache (exactly-once);
    * **rejoin** — both dead hosts recover as planned catch-ups
      (``recover_shard`` returns True; never a fallback).
    """

    ROUNDS = 18
    KILL_ROUND = 3  # hard crash of shard 0
    HANG_ROUND = 6  # mid-scatter deadline misses kill shard 1
    RECOVER_0_ROUND = 9
    SLOW_ROUND = 11  # one miss + successful retry on shard 2
    REPLY_LOSS_ROUND = 13
    RECOVER_1_ROUND = 15

    CLUSTER_CQS = TestClusterChaosSoak.CLUSTER_CQS

    def _assert_converged(self, router):
        router.check_invariants()
        for name, sql in self.CLUSTER_CQS.items():
            oracle = router.db.query(sql)
            got = router.result("soak", name)
            assert got == oracle, f"{name} diverged from the oracle"

    def test_soak_survives_any_single_shard_death(self, tmp_path):
        from repro.cluster import ClusterRouter, FaultInjector, LocalBackend
        from repro.net.messages import ScatterMessage

        rng = random.Random(2027)
        injector = FaultInjector()
        router = ClusterRouter(
            shards=3,
            seed=17,
            replicas=1,
            backend=LocalBackend(
                wal_root=str(tmp_path), fault_hook=injector
            ),
            request_timeout=5.0,
            retries=1,
            backoff_base=0.0,
        )
        router.declare_table("stocks", SCHEMA)
        router.declare_table(
            "folios",
            [
                ("fid", AttributeType.INT),
                ("client", AttributeType.STR),
                ("sid", AttributeType.INT),
                ("qty", AttributeType.INT),
            ],
            partition_key="client",
        )
        router.start()

        db = router.db
        with db.begin() as txn:
            for i in range(40):
                txn.insert_into(
                    db.table("stocks"),
                    (
                        i,
                        rng.choice(SYMBOLS),
                        rng.randrange(1000),
                        rng.randrange(6000),
                    ),
                )
            for i in range(30):
                txn.insert_into(
                    db.table("folios"),
                    (i, f"client-{i % 12}", i % 40, rng.randrange(100)),
                )

        for name, sql in self.CLUSTER_CQS.items():
            router.subscribe("soak", name, sql)
        router.refresh()
        self._assert_converged(router)

        is_scatter = lambda m: isinstance(m, ScatterMessage)  # noqa: E731
        for round_no in range(self.ROUNDS):
            mutate_cluster(router, rng, rng.randint(1, 6))

            if round_no == self.KILL_ROUND:
                router.kill_shard(0)
                router.check_invariants()
            if round_no == self.HANG_ROUND:
                # First try + the retry both miss: host down mid-cycle.
                injector.hang(1, phase="send", times=2, match=is_scatter)
            if round_no == self.SLOW_ROUND:
                # One miss, retry answers: slow, not dead.
                injector.hang(2, phase="send", times=1, match=is_scatter)
            if round_no == self.REPLY_LOSS_ROUND:
                injector.crash(2, phase="reply", times=1, match=is_scatter)

            router.refresh()  # zero failed cycles: this must not raise
            self._assert_converged(router)

            if round_no == self.RECOVER_0_ROUND:
                assert router.recover_shard(0) is True
                router.check_invariants()
                router.refresh()
                self._assert_converged(router)
            if round_no == self.RECOVER_1_ROUND:
                assert router.recover_shard(1) is True
                router.check_invariants()
                router.refresh()
                self._assert_converged(router)

        router.refresh()
        self._assert_converged(router)

        snapshot = router.metrics.snapshot()
        # Every fault was detected and counted; none escalated into a
        # baseline fallback or an uncounted divergence.
        assert snapshot.get(Metrics.SHARD_FALLBACKS, 0) == 0
        assert snapshot.get(Metrics.FAILOVERS, 0) >= 2  # crash + hang
        assert snapshot.get(Metrics.SCATTER_TIMEOUTS, 0) >= 3
        assert snapshot.get(Metrics.SCATTER_RETRIES, 0) >= 2
        assert snapshot.get(Metrics.SUSPECTS, 0) >= 2
        assert snapshot.get(Metrics.REREPLICATIONS, 0) >= 2
        assert snapshot.get(Metrics.CLUSTER_MERGES, 0) > 0
        # The slow shard and the reply loss healed without failover:
        # shard 2 must still be alive and serving.
        assert router.stats()["shards"][2]["alive"] is True
        # Background repair released every pinned zone.
        assert router.collect_garbage().pinned == {}
        router.close()


class TestCorruptDeltaDetection:
    def test_exactly_one_mismatch_then_auto_resync(self, tmp_path):
        """The acceptance check for self-verification: a corrupt delta
        yields exactly one counted digest mismatch, and the automatic
        resync converges the client back to the true result."""

        async def scenario():
            from repro.delta.differential import DeltaRelation
            from repro.net.messages import DeltaMessage

            db = Database(durability=str(tmp_path / "srv.wal"))
            table = db.create_table("stocks", SCHEMA)
            for i in range(20):
                table.insert((i, "SYM", i * 100, i * 500))
            service = CQService(db, heartbeat_interval=0.05)
            addr = await service.start()
            session = CQSession("c1", *addr, backoff_base=0.01)
            await session.connect()
            await session.register("cheap", CQS["cheap"])

            table.insert((100, "NEW", 50, 10))
            await service.refresh()
            await session.wait_applied("cheap", db.now())
            good = session.result("cheap").copy()

            # Inject a corrupted delta as if a damaged frame slipped
            # through CRC: right structure, wrong digest.
            forged = DeltaMessage(
                "cheap",
                DeltaRelation(good.schema, []),
                db.now(),
                "9:ffffffffffffffff",
            )
            await session._handle(forged)
            assert session.digest_mismatches == 1

            # The mismatch discarded the cache and sent a resync; the
            # service answers with a digest-stamped full result.
            await session._wait_for(
                lambda: "cheap" in session._results, timeout=10.0
            )
            assert session.result("cheap") == db.query(CQS["cheap"])
            assert session.result("cheap") == good
            assert session.digest_mismatches == 1  # exactly one

            await session.close()
            await service.stop()

        asyncio.run(scenario())
