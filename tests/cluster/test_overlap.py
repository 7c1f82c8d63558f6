"""Scatter/gather dispatch: arrival order must never matter.

A refresh cycle dispatches every frame up front and gathers replies
as hosts answer; these tests prove the two properties that make that
safe:

* **Arrival independence** — with a seeded shuffle deliberately
  reordering every gather batch, results and the notification stream
  are bit-identical to unshuffled arrival, commit for commit, and
  every retained result equals the ``db.query`` oracle.
* **Bounded by the slowest host** — with every shard of a
  ``ProcessBackend`` fleet slowed by ``d``, a cycle finishes in about
  ``d``, not ``shards × d`` (the sum a host-at-a-time loop would pay).

Plus weighted placement plumb-through: router-level ``weights=``,
``add_shard(weight=)``, and weight survival across kill/rejoin.
"""

import time

import pytest

from repro.cluster import (
    ClusterRouter,
    FaultInjector,
    LocalBackend,
    ProcessBackend,
)
from repro.metrics import Metrics

JOIN_SQL = (
    "SELECT p.client, s.name, s.price, p.shares "
    "FROM positions p, stocks s "
    "WHERE p.sid = s.sid AND s.price > 105"
)
FILTER_SQL = "SELECT name, price FROM stocks WHERE price > 103"

ALL_CQS = {"watch": FILTER_SQL, "big": JOIN_SQL}


def make_cluster(
    shards=3,
    replicas=0,
    seed=7,
    shuffle_seed=None,
    wal_root=None,
    fault_hook=None,
    recorder=None,
    **kwargs,
):
    backend = LocalBackend(
        wal_root=wal_root, fault_hook=fault_hook, shuffle_seed=shuffle_seed
    )
    router = ClusterRouter(
        shards=shards,
        seed=seed,
        backend=backend,
        replicas=replicas,
        request_timeout=5.0,
        retries=1,
        backoff_base=0.0,
        **kwargs,
    )
    router.declare_table(
        "stocks", [("sid", int), ("name", str), ("price", float)]
    )
    router.declare_table(
        "positions",
        [("pid", int), ("client", str), ("sid", int), ("shares", int)],
        partition_key="client",
    )
    router.start()
    db = router.db
    with db.begin() as txn:
        for i in range(12):
            txn.insert_into(db.table("stocks"), (i, f"S{i}", 100.0 + i))
        for i in range(30):
            txn.insert_into(
                db.table("positions"),
                (i, f"c{i % 7}", i % 12, 10 * (i + 1)),
            )
    for name, sql in ALL_CQS.items():
        if recorder is None:
            router.subscribe("c", name, sql)
        else:
            router.subscribe(
                "c",
                name,
                sql,
                on_delta=(
                    lambda cq, d, ts: recorder.append(
                        (cq, ts, [(e.old, e.new) for e in d])
                    )
                ),
            )
    return router


def run_script(router):
    """One fixed multi-round workload: ticks, inserts, moves, deletes."""
    db = router.db
    stocks = db.table("stocks")
    positions = db.table("positions")
    router.refresh()
    router.check_invariants()
    for round_no in range(6):
        with db.begin() as txn:
            for row in list(stocks.current):
                sid = row.values[0]
                if sid % 3 == round_no % 3:
                    txn.modify_in(
                        stocks,
                        row.tid,
                        (sid, row.values[1], 90.0 + 10 * round_no + sid),
                    )
            txn.insert_into(
                stocks, (100 + round_no, f"N{round_no}", 104.0 + round_no)
            )
            for row in list(positions.current):
                pid, client, sid, shares = row.values
                if pid % 5 == round_no % 5:
                    # A partition-key change: the row moves slices.
                    txn.modify_in(
                        positions,
                        row.tid,
                        (pid, f"c{(pid + round_no) % 7}", sid, shares),
                    )
            if round_no == 3:
                doomed = [
                    r.tid for r in positions.current if r.values[0] < 4
                ]
                for tid in doomed:
                    txn.delete_from(positions, tid)
        router.refresh()
        router.check_invariants()
    return {
        name: list(r.values for r in router.result("c", name))
        for name in ALL_CQS
    }


class TestOutOfOrderEquivalence:
    """Shuffled gather arrival vs unshuffled arrival and the oracle."""

    @pytest.mark.parametrize("shuffle_seed", [1, 12, 123])
    def test_results_and_notifications_bit_identical(self, shuffle_seed):
        baseline_events = []
        baseline = make_cluster(recorder=baseline_events)
        expected = run_script(baseline)
        for name, sql in ALL_CQS.items():
            assert baseline.result("c", name) == baseline.db.query(sql)

        shuffled_events = []
        router = make_cluster(
            shuffle_seed=shuffle_seed, recorder=shuffled_events
        )
        got = run_script(router)

        # Row-for-row identical retained results (same order, not just
        # same set), and the notification stream — which CQ fired, at
        # which timestamp, with which delta — matches event for event.
        assert got == expected
        assert shuffled_events == baseline_events
        assert shuffled_events, "script produced no notifications"

    def test_replicated_shuffled_soak_zero_fallbacks(self, tmp_path):
        """Replicas + failover under shuffled arrival: kill a primary
        mid-stream, keep refreshing, rejoin — never a baseline
        fallback, always converged."""
        router = make_cluster(
            replicas=1,
            shuffle_seed=99,
            wal_root=str(tmp_path),
        )
        db = router.db
        stocks = db.table("stocks")
        router.refresh()
        for round_no in range(10):
            with db.begin() as txn:
                for row in list(stocks.current):
                    sid = row.values[0]
                    if sid % 4 == round_no % 4:
                        txn.modify_in(
                            stocks,
                            row.tid,
                            (sid, row.values[1], 95.0 + round_no + sid),
                        )
            if round_no == 3:
                router.kill_shard(0)
            router.refresh()
            for name, sql in ALL_CQS.items():
                oracle = router.db.query(sql)
                assert router.result("c", name) == oracle, name
            if round_no == 7:
                assert router.recover_shard(0) is True
        snapshot = router.metrics.snapshot()
        assert snapshot.get(Metrics.SHARD_FALLBACKS, 0) == 0
        assert snapshot.get(Metrics.FAILOVERS, 0) >= 1

    def test_injected_crash_counts_match_sequential(self):
        """A one-shot reply-phase crash on a live host retries and
        pairs exactly-once: one retry, nothing else — no timeout, no
        suspect-to-dead walk, no failover, and no fail-fast (the host
        object is still alive)."""
        from repro.net.messages import ScatterMessage

        injector = FaultInjector()
        router = make_cluster(
            replicas=1, shuffle_seed=5, fault_hook=injector
        )
        router.refresh()
        injector.crash(
            1,
            phase="reply",
            times=1,
            match=lambda m: isinstance(m, ScatterMessage),
        )
        db = router.db
        stocks = db.table("stocks")
        with db.begin() as txn:
            for row in list(stocks.current):
                txn.modify_in(
                    stocks,
                    row.tid,
                    (row.values[0], row.values[1], 200.0),
                )
        before = router.metrics.snapshot()
        router.refresh()
        router.check_invariants()
        for name, sql in ALL_CQS.items():
            assert router.result("c", name) == router.db.query(sql)
        counts = {
            k: v
            for k, v in router.metrics.diff(before).items()
            if k.startswith("cluster_")
            and k
            not in (
                Metrics.SCATTERS,
                Metrics.CLUSTER_MERGES,
                Metrics.SCATTER_SKIPPED,
            )
        }
        assert counts == {Metrics.SCATTER_RETRIES: 1, Metrics.SUSPECTS: 1}
        assert injector.fired == [(1, "reply")]


class TestWallClockBoundedBySlowest:
    def test_cycle_takes_about_d_not_shards_times_d(self, tmp_path):
        """Every one of 4 real shard processes sleeps ``d`` per frame:
        a host-at-a-time loop would pay ``4d``; the cycle must finish
        well under half of that."""
        d = 0.3
        router = ClusterRouter(
            shards=4,
            seed=3,
            backend=ProcessBackend(
                wal_root=str(tmp_path), slow={i: d for i in range(4)}
            ),
        )
        router.declare_table(
            "positions",
            [("pid", int), ("client", str), ("shares", int)],
            partition_key="client",
        )
        router.start()
        db = router.db
        with db.begin() as txn:
            for i in range(24):
                txn.insert_into(
                    db.table("positions"), (i, f"c{i % 11}", 10 * i)
                )
        sql = "SELECT client, shares FROM positions WHERE shares >= 0"
        router.subscribe("c", "all", sql)
        router.refresh()
        try:
            with db.begin() as txn:
                for row in list(db.table("positions").current):
                    pid, client, shares = row.values
                    txn.modify_in(
                        db.table("positions"),
                        row.tid,
                        (pid, client, shares + 1),
                    )
            start = time.monotonic()
            router.refresh()
            elapsed = time.monotonic() - start
            # One frame per shard, every shard sleeps d: the slowest
            # host bounds the cycle. 2.5d leaves CI headroom while
            # staying far below the 4d sum.
            assert elapsed < 2.5 * d, f"cycle took {elapsed:.2f}s"
            assert router.result("c", "all") == router.db.query(sql)
        finally:
            router.close()


class TestWeightedPlacement:
    def test_router_weights_reach_the_ring(self):
        router = make_cluster(weights={0: 2.0})
        assert router.ring.weight(0) == 2.0
        assert router.ring.weight(1) == 1.0

    def test_weighted_shard_homes_about_double_the_keys(self):
        router = make_cluster(shards=4, weights={0: 2.0})
        homes = {n: 0 for n in router.ring.nodes()}
        for i in range(4000):
            homes[router.ring.lookup(f"sql-key-{i}")] += 1
        light = sum(homes[n] for n in (1, 2, 3)) / 3
        assert 1.5 <= homes[0] / light <= 2.6, homes

    def test_add_shard_with_weight(self):
        router = make_cluster()
        new_id = router.add_shard(weight=2.0)
        assert router.ring.weight(new_id) == 2.0
        router.refresh()
        for name, sql in ALL_CQS.items():
            assert router.result("c", name) == router.db.query(sql)

    def test_rejoin_preserves_weight(self, tmp_path):
        router = make_cluster(
            replicas=1, weights={0: 2.0}, wal_root=str(tmp_path)
        )
        router.refresh()
        router.kill_shard(0)
        router.refresh()
        assert router.ring.weight(0) == 2.0  # ring never forgot it
        assert router.recover_shard(0) is True
        router.refresh()
        assert router.ring.weight(0) == 2.0
        for name, sql in ALL_CQS.items():
            assert router.result("c", name) == router.db.query(sql)

    def test_remove_shard_forgets_weight(self):
        router = make_cluster(shards=4, replicas=1, weights={3: 2.0})
        router.refresh()
        router.remove_shard(3)
        assert 3 not in router.ring.weights()
        router.refresh()
        for name, sql in ALL_CQS.items():
            assert router.result("c", name) == router.db.query(sql)
