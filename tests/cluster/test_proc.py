"""ProcessBackend: shards as real OS processes over the wire codec.

Consolidated scenarios (spawning interpreters is expensive on the CI
box): scatter/gather through real serialization, a terminate-based
crash, journal recovery, reply deadlines against a wedged (SIGSTOPped)
worker, and replicated failover across real processes — all converging
to the oracle.
"""

import os
import signal

import pytest

from repro.cluster import ClusterRouter, ProcessBackend, TableDecl, proc
from repro.cluster.dispatch import CycleEngine
from repro.errors import ClusterError
from repro.metrics import Metrics
from repro.net.messages import ScatterMessage
from tests.cluster.test_dispatch import _StubRouter

SQL = "SELECT name, price FROM stocks WHERE price > 102"


def test_process_shards_scatter_crash_and_recover(tmp_path):
    router = ClusterRouter(
        shards=2, seed=3, backend=ProcessBackend(wal_root=str(tmp_path))
    )
    router.declare_table(
        "stocks", [("sid", int), ("name", str), ("price", float)]
    )
    router.start()
    db = router.db
    stocks = db.table("stocks")
    with db.begin() as txn:
        for i in range(6):
            txn.insert_into(stocks, (i, f"S{i}", 100.0 + i))
    router.subscribe("c", "q", SQL)
    router.refresh()
    with db.begin() as txn:
        for row in list(stocks.current):
            if row.values[0] == 1:
                txn.modify_in(stocks, row.tid, (1, "S1", 500.0))
    router.refresh()
    oracle = sorted(r.values for r in db.query(SQL))
    assert sorted(r.values for r in router.result("c", "q")) == oracle

    # Crash (SIGTERM, no handshake) while the stream keeps moving.
    router.kill_shard(0)
    with pytest.raises(ClusterError):
        router.kill_shard(0)
    with db.begin() as txn:
        txn.insert_into(stocks, (9, "S9", 900.0))
    router.refresh()
    assert router.recover_shard(0) is True
    router.refresh()
    assert router.metrics.get(Metrics.SHARD_REPLAYS) == 1
    oracle = sorted(r.values for r in db.query(SQL))
    assert sorted(r.values for r in router.result("c", "q")) == oracle
    router.close()
    assert router.backend.alive() == []


def test_wedged_worker_times_out_and_retry_stays_exactly_once(tmp_path):
    """A SIGSTOPped worker is the failure detection's worst case: the
    process is alive, the pipe is open, nothing answers. The deadline
    must fire (a counted timeout and a downed host, not a hang), and
    after the worker resumes, the stale reply it eventually wrote must
    be discarded so the next request pairs with its own reply."""
    backend = ProcessBackend(wal_root=str(tmp_path))
    decls = [TableDecl("stocks", [("sid", int), ("price", float)])]
    backend.spawn(0, decls)
    router = _StubRouter(backend, retries=0)
    engine = CycleEngine(router)

    def request(seq):
        frame = engine.submit(0, ScatterMessage(0, seq, seq, group=0))
        engine.run()
        return frame.reply

    try:
        assert request(1).seq == 1

        pid = backend._procs[0].pid
        os.kill(pid, signal.SIGSTOP)
        router._request_timeout = 0.2
        try:
            assert request(2) is None
        finally:
            os.kill(pid, signal.SIGCONT)
        assert router.downed == [0]
        assert router.metrics.get(Metrics.SCATTER_TIMEOUTS) == 1
        router._hosts[0].dead = False
        router._request_timeout = 5.0

        # The resumed worker answers seq 2 into the pipe ahead of
        # seq 3's reply: either the next post drains it or the
        # engine's seq pairing discards it — never matched to seq 3.
        assert request(3).seq == 3
        stale = backend.stale_replies + router.metrics.get(
            Metrics.STALE_REPLIES
        )
        assert stale == 1

        # A frame without an integer seq can never be paired with its
        # reply (``None == None`` would match any stale seqless frame),
        # so the engine refuses to queue it at all.
        seqless = ScatterMessage(0, 4, 4, group=0)
        seqless.seq = None
        with pytest.raises(ClusterError, match="integer seq"):
            engine.submit(0, seqless)
        assert request(5).seq == 5
    finally:
        backend.close()
    assert backend.alive() == []


def test_recover_relaunches_a_host_declared_dead_by_deadline(tmp_path):
    """A wedged worker the health machine gave up on is still running
    (``_on_host_down`` never kills anything): recovery must terminate
    the straggler and relaunch from its journal, not trip over
    "already running"."""
    router = ClusterRouter(
        shards=2,
        seed=3,
        backend=ProcessBackend(wal_root=str(tmp_path)),
        request_timeout=0.2,
        retries=0,
    )
    router.declare_table(
        "stocks", [("sid", int), ("name", str), ("price", float)]
    )
    router.start()
    db = router.db
    stocks = db.table("stocks")
    try:
        with db.begin() as txn:
            for i in range(6):
                txn.insert_into(stocks, (i, f"S{i}", 100.0 + i))
        router.subscribe("c", "q", SQL)
        home = router.describe()[0]["shards"][0]
        router.refresh()

        wedged = router.backend._procs[home]
        os.kill(wedged.pid, signal.SIGSTOP)
        try:
            with db.begin() as txn:
                txn.insert_into(stocks, (9, "S9", 900.0))
            router.refresh()  # the deadline fires; the host is dead
        finally:
            os.kill(wedged.pid, signal.SIGCONT)
        assert router.stats()["shards"][home]["alive"] is False
        assert router.backend.host_alive(home)  # ...but still running

        router._request_timeout = 30.0
        assert router.recover_shard(home) is True
        assert not wedged.is_alive()
        assert router.backend._procs[home] is not wedged
        router.refresh()
        router.check_invariants()
        assert router.result("c", "q") == db.query(SQL)
    finally:
        router.close()
    assert router.backend.alive() == []


def test_replicated_failover_across_real_processes(tmp_path):
    """Kill a primary's OS process mid-stream: the router promotes the
    replica over the pipe protocol and the cycle completes."""
    router = ClusterRouter(
        shards=2,
        seed=3,
        replicas=1,
        backend=ProcessBackend(wal_root=str(tmp_path)),
    )
    router.declare_table(
        "stocks", [("sid", int), ("name", str), ("price", float)]
    )
    router.start()
    db = router.db
    stocks = db.table("stocks")
    with db.begin() as txn:
        for i in range(6):
            txn.insert_into(stocks, (i, f"S{i}", 100.0 + i))
    router.subscribe("c", "q", SQL)
    router.refresh()

    router.kill_shard(0)
    with db.begin() as txn:
        txn.insert_into(stocks, (9, "S9", 900.0))
    router.refresh()  # same-cycle failover, no ClusterError
    assert router.metrics.get(Metrics.FAILOVERS) == 1
    oracle = sorted(r.values for r in db.query(SQL))
    assert sorted(r.values for r in router.result("c", "q")) == oracle

    with db.begin() as txn:
        txn.insert_into(stocks, (10, "S10", 50.0))
        txn.insert_into(stocks, (11, "S11", 1100.0))
    router.refresh()
    oracle = sorted(r.values for r in db.query(SQL))
    assert sorted(r.values for r in router.result("c", "q")) == oracle
    router.close()
    assert router.backend.alive() == []


def _decls():
    return [TableDecl("stocks", [("sid", int), ("price", float)])]


def test_spawn_returns_before_the_hello_and_the_first_post_waits_for_it():
    """The fleet boots side by side: ``spawn`` does not read the
    hello, the first ``post`` does, and the engine's deadline (stamped
    after ``post`` returns) is not charged for the boot."""
    backend = ProcessBackend()
    try:
        backend.spawn(0, _decls())
        backend.spawn(1, _decls())
        assert backend._booting == {0, 1}
        # Far below an interpreter's boot, far above an empty frame.
        router = _StubRouter(backend, retries=0, timeout=0.2)
        engine = CycleEngine(router)
        frames = [
            engine.submit(h, ScatterMessage(h, 1, 1, group=h))
            for h in (0, 1)
        ]
        engine.run()
        assert [f.reply.seq for f in frames] == [1, 1]
        assert router.downed == []
        assert backend._booting == set()
    finally:
        backend.close()
    assert backend.alive() == []


def test_a_worker_that_fails_to_boot_is_a_cluster_error(tmp_path):
    """A decl the child's ``ShardHost`` rejects kills the worker before
    its hello: the first post (and a recover) raise ``ClusterError``
    naming the shard, and no process is left behind."""
    bad = [TableDecl("stocks", [("sid", int)], indexes=[("missing",)])]
    backend = ProcessBackend(wal_root=str(tmp_path))
    backend.spawn(3, bad)
    with pytest.raises(ClusterError, match="shard 3 died before its hello"):
        backend.post(3, ScatterMessage(3, 1, 1, group=3))
    assert backend.alive() == [] and not backend.host_alive(3)
    with pytest.raises(ClusterError, match="shard 3 died before its hello"):
        backend.recover(3, bad)
    assert backend.alive() == []


def test_the_wait_for_a_hello_is_bounded(monkeypatch):
    """A worker that has not said hello when ``_BOOT_TIMEOUT`` runs out
    (here: no interpreter boots in a millisecond) is stopped, and the
    wait ends in a ``ClusterError`` instead of hanging the router."""
    monkeypatch.setattr(proc, "_BOOT_TIMEOUT", 0.001)
    backend = ProcessBackend()
    backend.spawn(0, _decls())
    worker = backend._procs[0]
    with pytest.raises(ClusterError, match="shard 0 sent no hello within"):
        backend.post(0, ScatterMessage(0, 1, 1, group=0))
    assert backend.alive() == [] and not worker.is_alive()


@pytest.mark.parametrize("end", ["stop", "kill"])
def test_ending_a_shard_never_posted_to_leaves_no_process(end):
    backend = ProcessBackend()
    backend.spawn(0, _decls())
    worker = backend._procs[0]
    getattr(backend, end)(0)
    assert backend.alive() == [] and not worker.is_alive()
    backend.close()
