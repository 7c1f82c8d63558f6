"""ClusterRouter behaviour: routing, merging, recovery, edge cases.

The invariant under test everywhere: after any sequence of commits,
refreshes, kills, recoveries, and topology changes, every retained
subscription result equals a from-scratch evaluation of its query over
the router's authoritative database.
"""

import pytest

from repro.cluster import ClusterRouter, LocalBackend
from repro.errors import ClusterError, RegistrationError
from repro.metrics import Metrics
from repro.obs.export import parse_prometheus_text

JOIN_SQL = (
    "SELECT p.client, s.name, s.price, p.shares "
    "FROM positions p, stocks s "
    "WHERE p.sid = s.sid AND s.price > 105"
)
FILTER_SQL = "SELECT name, price FROM stocks WHERE price > 103"


def make_cluster(shards=3, seed=7, wal_root=None, populate=True):
    backend = LocalBackend(wal_root=wal_root) if wal_root else None
    router = ClusterRouter(shards=shards, seed=seed, backend=backend)
    router.declare_table(
        "stocks", [("sid", int), ("name", str), ("price", float)]
    )
    router.declare_table(
        "positions",
        [("pid", int), ("client", str), ("sid", int), ("shares", int)],
        partition_key="client",
    )
    router.start()
    if populate:
        db = router.db
        with db.begin() as txn:
            for i in range(12):
                txn.insert_into(db.table("stocks"), (i, f"S{i}", 100.0 + i))
            for i in range(30):
                txn.insert_into(
                    db.table("positions"),
                    (i, f"c{i % 7}", i % 12, 10 * (i + 1)),
                )
    return router


def tick_stock(router, sid, price):
    db = router.db
    stocks = db.table("stocks")
    with db.begin() as txn:
        for row in list(stocks.current):
            if row.values[0] == sid:
                txn.modify_in(
                    stocks, row.tid, (sid, row.values[1], float(price))
                )


def assert_converged(router, client, cq, sql):
    oracle = sorted(r.values for r in router.db.query(sql))
    got = sorted(r.values for r in router.result(client, cq))
    assert got == oracle


class TestRoutingAndMerge:
    def test_replicated_cq_lives_on_one_shard(self):
        router = make_cluster()
        router.subscribe("c", "watch", FILTER_SQL)
        [info] = router.describe()
        assert len(info["shards"]) == 1
        assert not info["parallel"]

    def test_partitioned_cq_spans_every_shard(self):
        router = make_cluster()
        router.subscribe("c", "big", JOIN_SQL)
        [info] = router.describe()
        assert info["shards"] == [0, 1, 2]
        assert info["parallel"]

    def test_cross_shard_join_matches_oracle(self):
        router = make_cluster()
        deltas = []
        router.subscribe(
            "alice",
            "big",
            JOIN_SQL,
            on_delta=lambda cq, d, ts: deltas.append(len(d)),
        )
        router.refresh()
        tick_stock(router, 7, 200.0)
        notified = router.refresh()
        assert notified == 1
        assert deltas and deltas[-1] > 0
        assert_converged(router, "alice", "big", JOIN_SQL)
        assert router.metrics.get(Metrics.CLUSTER_MERGES) >= 1

    def test_members_share_one_group_and_both_converge(self):
        router = make_cluster()
        router.subscribe("alice", "a", FILTER_SQL)
        router.subscribe("bob", "b", FILTER_SQL)
        tick_stock(router, 2, 500.0)
        assert router.refresh() == 2
        assert_converged(router, "alice", "a", FILTER_SQL)
        assert_converged(router, "bob", "b", FILTER_SQL)

    def test_partition_key_update_merges_as_row_move(self):
        """A position moving between clients may cross slices: the
        gather merge recombines delete+insert into one modify."""
        router = make_cluster()
        sql = (
            "SELECT p.client, p.shares, s.name "
            "FROM positions p, stocks s WHERE p.sid = s.sid"
        )
        router.subscribe("c", "moves", sql)
        router.refresh()
        db = router.db
        positions = db.table("positions")
        moved = 0
        with db.begin() as txn:
            for row in list(positions.current):
                pid, client, sid, shares = row.values
                if pid < 10:
                    txn.modify_in(
                        positions, row.tid, (pid, f"x{pid}", sid, shares)
                    )
                    moved += 1
        assert moved
        router.refresh()
        assert_converged(router, "c", "moves", sql)

    def test_irrelevant_commit_scatters_nowhere(self):
        router = make_cluster()
        router.subscribe("c", "watch", FILTER_SQL)
        router.refresh()
        before = router.metrics.get(Metrics.SCATTERS)
        # Stays far below every registered predicate's threshold.
        tick_stock(router, 1, 50.0)
        router.refresh()
        assert router.metrics.get(Metrics.SCATTERS) == before
        assert router.metrics.get(Metrics.SCATTER_SKIPPED) >= 1
        assert_converged(router, "c", "watch", FILTER_SQL)

    def test_unsubscribe_retires_footprint(self):
        router = make_cluster()
        router.subscribe("c", "watch", FILTER_SQL)
        router.refresh()
        router.unsubscribe("c", "watch")
        before = router.metrics.get(Metrics.SCATTERS)
        tick_stock(router, 1, 900.0)
        router.refresh()
        assert router.metrics.get(Metrics.SCATTERS) == before
        with pytest.raises(RegistrationError):
            router.result("c", "watch")


class TestValidation:
    def test_two_partitioned_tables_rejected(self):
        router = ClusterRouter(shards=2)
        router.declare_table("a", [("k", str), ("v", int)], partition_key="k")
        router.declare_table("b", [("k", str), ("v", int)], partition_key="k")
        router.start()
        with pytest.raises(RegistrationError):
            router.subscribe(
                "c", "bad", "SELECT a.v FROM a, b WHERE a.k = b.k"
            )

    def test_undeclared_table_rejected(self):
        router = make_cluster(populate=False)
        with pytest.raises(ClusterError):
            router.subscribe("c", "bad", "SELECT x FROM nowhere")

    def test_subscribe_before_start_rejected(self):
        router = ClusterRouter(shards=2)
        router.declare_table("t", [("x", int)])
        with pytest.raises(ClusterError):
            router.subscribe("c", "q", "SELECT x FROM t")

    def test_declare_after_start_rejected(self):
        router = ClusterRouter(shards=1)
        router.declare_table("t", [("x", int)])
        router.start()
        with pytest.raises(ClusterError):
            router.declare_table("u", [("y", int)])

    def test_duplicate_registration_rejected(self):
        router = make_cluster()
        router.subscribe("c", "q", FILTER_SQL)
        with pytest.raises(RegistrationError):
            router.subscribe("c", "q", FILTER_SQL)


class TestEdgeCases:
    def test_empty_scatter_cycles_advance_zones_without_evaluation(self):
        """Commits no footprint cares about turn into heartbeats: every
        shard's zone still advances past them (the clock rides the
        heartbeat), and no shard evaluates a single term."""
        router = make_cluster()
        router.subscribe("c", "watch", FILTER_SQL)
        router.refresh()
        stats = router.stats()
        terms_before = stats["shard_totals"].get("terms_evaluated", 0)
        skipped_before = router.metrics.get(Metrics.SCATTER_SKIPPED)
        db = router.db
        for i in range(3):
            with db.begin() as txn:
                txn.insert_into(
                    db.table("stocks"), (100 + i, f"penny{i}", 1.0 + i)
                )
            commit_ts = db.now()
            router.refresh()
            stats = router.stats()
            for info in stats["shards"].values():
                assert info["zone"] >= commit_ts
        assert stats["shard_totals"].get("terms_evaluated", 0) == terms_before
        assert router.metrics.get(Metrics.SCATTER_SKIPPED) > skipped_before

    def test_empty_scatter_cycles_let_cluster_wide_gc_advance(self):
        router = make_cluster()
        router.subscribe("c", "watch", FILTER_SQL)
        router.refresh()
        db = router.db
        with db.begin() as txn:
            txn.insert_into(db.table("stocks"), (200, "penny", 2.0))
        router.refresh()
        pruned = router.collect_garbage()
        # The authoritative log of the hot table was prunable because
        # every shard zone advanced past the populate commits.
        assert pruned.get("stocks", 0) > 0

    def test_footprint_spanning_all_shards(self):
        """A partition-parallel CQ routes every relevant batch to every
        shard, and each shard contributes disjoint partial deltas."""
        router = make_cluster()
        router.subscribe("c", "big", JOIN_SQL)
        router.refresh()
        before = router.metrics.get(Metrics.SCATTERS)
        db = router.db
        with db.begin() as txn:
            for i in range(40, 52):
                txn.insert_into(
                    db.table("positions"), (i, f"c{i}", i % 12, 11)
                )
        router.refresh()
        assert router.metrics.get(Metrics.SCATTERS) - before == 3
        assert_converged(router, "c", "big", JOIN_SQL)

    def test_shard_joining_after_subscriptions_exist(self):
        """add_shard hands off moved sql_keys and re-slices partitions;
        results keep converging afterwards."""
        router = make_cluster(shards=2, seed=11)
        sqls = {}
        for i in range(6):
            sql = f"SELECT name, price FROM stocks WHERE price > {101 + i}"
            sqls[f"q{i}"] = sql
            router.subscribe("c", f"q{i}", sql)
        router.subscribe("c", "join", JOIN_SQL)
        router.refresh()
        new_id = router.add_shard()
        assert new_id == 2
        # The parallel key now spans the grown fleet.
        info = {d["cq"]: d for d in router.describe()}
        assert info["join"]["shards"] == [0, 1, 2]
        # Keys are owned exactly where the grown ring says.
        for d in info.values():
            if not d["parallel"]:
                assert d["shards"] == [router.ring.lookup(d["sql_key"])]
        tick_stock(router, 3, 600.0)
        tick_stock(router, 9, 50.0)
        router.refresh()
        for cq, sql in sqls.items():
            assert_converged(router, "c", cq, sql)
        assert_converged(router, "c", "join", JOIN_SQL)

    def test_a_filtered_join_converges_through_the_merge(self):
        """The join's price conjunct is enforced where the slices are
        evaluated; the router only sums the tid-disjoint partials, and
        the sum is the join's delta."""
        router = make_cluster()
        router.subscribe("c", "big", JOIN_SQL)
        tick_stock(router, 7, 200.0)
        tick_stock(router, 11, 90.0)
        router.refresh()
        assert_converged(router, "c", "big", JOIN_SQL)


class TestRecovery:
    def test_kill_then_replay(self, tmp_path):
        router = make_cluster(wal_root=str(tmp_path))
        router.subscribe("alice", "big", JOIN_SQL)
        router.subscribe("bob", "watch", FILTER_SQL)
        router.refresh()
        router.kill_shard(1)
        tick_stock(router, 3, 300.0)
        router.refresh()
        tick_stock(router, 7, 400.0)
        router.refresh()
        assert router.recover_shard(1) is True
        router.refresh()
        assert router.metrics.get(Metrics.SHARD_REPLAYS) == 1
        assert router.metrics.get(Metrics.SHARD_FALLBACKS) == 0
        assert_converged(router, "alice", "big", JOIN_SQL)
        assert_converged(router, "bob", "watch", FILTER_SQL)

    def test_released_zone_forces_fallback(self, tmp_path):
        router = make_cluster(wal_root=str(tmp_path))
        router.subscribe("alice", "big", JOIN_SQL)
        router.refresh()
        router.kill_shard(2, release_zone=True)
        tick_stock(router, 5, 500.0)
        router.refresh()
        router.collect_garbage()
        assert router.recover_shard(2) is False
        router.refresh()
        assert router.metrics.get(Metrics.SHARD_FALLBACKS) == 1
        assert_converged(router, "alice", "big", JOIN_SQL)

    def test_dead_shard_zone_pins_router_logs(self, tmp_path):
        router = make_cluster(wal_root=str(tmp_path))
        router.subscribe("c", "watch", FILTER_SQL)
        router.refresh()
        router.kill_shard(0)
        tick_stock(router, 4, 700.0)
        router.refresh()
        pruned = router.collect_garbage()
        boundary = router.zones.boundary("shard:0")
        assert router.db.table("stocks").log.pruned_through <= boundary

    def test_double_kill_and_bad_recover_rejected(self, tmp_path):
        router = make_cluster(wal_root=str(tmp_path))
        router.kill_shard(0)
        with pytest.raises(ClusterError):
            router.kill_shard(0)
        with pytest.raises(ClusterError):
            router.recover_shard(1)

    def test_memory_only_backend_cannot_recover(self):
        router = make_cluster()
        router.kill_shard(0)
        with pytest.raises(ClusterError):
            router.recover_shard(0)


class TestObservability:
    def test_stats_aggregates_per_shard_counters(self):
        router = make_cluster()
        router.subscribe("c", "big", JOIN_SQL)
        tick_stock(router, 7, 200.0)
        router.refresh()
        stats = router.stats()
        assert set(stats["shards"]) == {0, 1, 2}
        assert stats["shard_totals"].get("executions", 0) >= 1
        assert stats["subscriptions"] == 1
        for info in stats["shards"].values():
            assert info["alive"]

    def test_prometheus_has_per_shard_labels_and_parses(self):
        router = make_cluster()
        router.subscribe("c", "big", JOIN_SQL)
        tick_stock(router, 7, 200.0)
        router.refresh()
        text = router.prometheus()
        parsed = parse_prometheus_text(text)
        shard_labels = {
            labels
            for samples in parsed.values()
            for labels in samples
            if any(k == "shard" for k, __ in labels)
        }
        shards_seen = {
            dict(labels)["shard"] for labels in shard_labels
        }
        assert shards_seen == {"0", "1", "2"}
        assert any(
            dict(labels).get("role") == "router"
            for samples in parsed.values()
            for labels in samples
        )
