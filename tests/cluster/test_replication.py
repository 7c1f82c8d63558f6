"""Replicated placement, failure detection, and zero-downtime failover.

The invariant everywhere: no matter which single host dies — or when,
including mid-scatter — every retained subscription result stays
bit-identical to a from-scratch evaluation over the router's
authoritative database, refresh cycles keep completing (no
ClusterError surfaces), and each fault is counted exactly once.
"""

import pytest

from repro.cluster import ClusterRouter, FaultInjector, LocalBackend
from repro.errors import ClusterError
from repro.metrics import Metrics
from repro.net.messages import ScatterMessage

JOIN_SQL = (
    "SELECT p.client, s.name, s.price, p.shares "
    "FROM positions p, stocks s "
    "WHERE p.sid = s.sid AND s.price > 105"
)
FILTER_SQL = "SELECT name, price FROM stocks WHERE price > 103"

ALL_CQS = {"watch": FILTER_SQL, "big": JOIN_SQL}


def make_cluster(
    shards=3,
    replicas=1,
    seed=7,
    wal_root=None,
    fault_hook=None,
    populate=True,
    subscribe=True,
    **kwargs,
):
    backend = LocalBackend(wal_root=wal_root, fault_hook=fault_hook)
    router = ClusterRouter(
        shards=shards,
        seed=seed,
        backend=backend,
        replicas=replicas,
        request_timeout=5.0,
        retries=1,
        backoff_base=0.0,  # tests never really wait
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
    if subscribe:
        for name, sql in ALL_CQS.items():
            router.subscribe("c", name, sql)
        router.refresh()
    router.check_invariants()
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


def assert_converged(router, client="c"):
    router.check_invariants()
    for name, sql in ALL_CQS.items():
        oracle = sorted(r.values for r in router.db.query(sql))
        got = sorted(r.values for r in router.result(client, name))
        assert got == oracle, f"{name} diverged"


class TestPlacement:
    def test_every_group_gets_distinct_replica_hosts(self):
        router = make_cluster(shards=4, replicas=2, subscribe=False)
        placement = router.stats()["placement"]
        assert sorted(placement) == [0, 1, 2, 3]
        for group, hosts in placement.items():
            assert hosts[0] == group  # initial primary is the group's own host
            assert len(hosts) == 3  # primary + 2 replicas
            assert len(set(hosts)) == len(hosts)  # all distinct

    def test_replicas_capped_by_host_count(self):
        router = make_cluster(shards=2, replicas=5, subscribe=False)
        for hosts in router.stats()["placement"].values():
            assert len(hosts) == 2  # can't exceed the fleet

    def test_zero_replicas_is_the_old_layout(self):
        router = make_cluster(replicas=0, subscribe=False)
        for group, hosts in router.stats()["placement"].items():
            assert hosts == [group]

    def test_negative_replicas_rejected(self):
        with pytest.raises(ClusterError):
            ClusterRouter(shards=2, replicas=-1)

    def test_replicas_hold_no_subscriptions(self):
        router = make_cluster(shards=3, replicas=1)
        backend = router.backend
        placement = router.stats()["placement"]
        for group, hosts in placement.items():
            primary_subs = backend.host(hosts[0]).stores[group].sql_keys()
            for replica in hosts[1:]:
                store = backend.host(replica).stores[group]
                assert store.sql_keys() == []
            # The primary serves every key the group owns.
            owned = [
                key for key, owners in router._owners.items() if group in owners
            ]
            assert sorted(primary_subs) == sorted(owned)

    def test_stats_and_prometheus_expose_roles(self):
        router = make_cluster(shards=3, replicas=1)
        stats = router.stats()
        roles = set()
        for info in stats["shards"].values():
            for group_info in info["groups"].values():
                roles.add(group_info["role"])
        assert roles == {"primary", "replica"}
        text = router.prometheus()
        assert 'role="primary"' in text
        assert 'role="replica"' in text
        assert 'role="router"' in text


class TestFailover:
    def test_kill_primary_fails_over_within_the_cycle(self):
        router = make_cluster(shards=3, replicas=1)
        router.kill_shard(0)
        tick_stock(router, 3, 200.0)
        router.refresh()  # must not raise
        assert_converged(router)
        snapshot = router.metrics.snapshot()
        assert snapshot.get(Metrics.FAILOVERS) == 1
        assert snapshot.get(Metrics.SHARD_FALLBACKS, 0) == 0
        # Group 0's new primary is a different live host.
        placement = router.stats()["placement"]
        assert placement[0][0] != 0
        assert 0 not in placement[0]

    def test_mid_scatter_hang_fails_over_same_cycle(self):
        injector = FaultInjector()
        router = make_cluster(shards=3, replicas=1, fault_hook=injector)
        injector.hang(
            1,
            phase="send",
            times=2,  # first try + one retry = host down
            match=lambda m: isinstance(m, ScatterMessage),
        )
        tick_stock(router, 4, 250.0)
        router.refresh()  # no abort: the cycle completes
        assert_converged(router)
        snapshot = router.metrics.snapshot()
        assert snapshot.get(Metrics.SCATTER_TIMEOUTS) == 2
        assert snapshot.get(Metrics.SCATTER_RETRIES) == 1
        assert snapshot.get(Metrics.SUSPECTS) == 1
        assert snapshot.get(Metrics.FAILOVERS) == 1
        assert router.stats()["shards"][1]["alive"] is False

    def test_reply_loss_retries_without_failover(self):
        injector = FaultInjector()
        router = make_cluster(shards=3, replicas=1, fault_hook=injector)
        # The shard applies the frame, then the reply is lost — the
        # retry must hit the seq-dedup cache, not re-apply.
        injector.crash(
            2,
            phase="reply",
            times=1,
            match=lambda m: isinstance(m, ScatterMessage),
        )
        tick_stock(router, 6, 400.0)
        router.refresh()
        assert_converged(router)
        snapshot = router.metrics.snapshot()
        assert snapshot.get(Metrics.SCATTER_RETRIES) == 1
        assert snapshot.get(Metrics.FAILOVERS, 0) == 0
        assert len(injector.fired) == 1

    def test_stream_continues_after_failover(self):
        router = make_cluster(shards=3, replicas=1)
        deltas = []
        router.subscribe(
            "d",
            "feed",
            FILTER_SQL,
            on_delta=lambda cq, delta, ts: deltas.append(len(delta)),
        )
        router.kill_shard(0)
        for sid, price in ((3, 300.0), (4, 50.0), (5, 500.0)):
            tick_stock(router, sid, price)
            router.refresh()
        assert_converged(router)
        assert deltas  # the subscriber kept hearing updates
        oracle = sorted(r.values for r in router.db.query(FILTER_SQL))
        got = sorted(r.values for r in router.result("d", "feed"))
        assert got == oracle

    def test_background_rereplication_restores_capacity(self):
        router = make_cluster(shards=3, replicas=1)
        router.kill_shard(0)
        tick_stock(router, 3, 200.0)
        router.refresh()
        snapshot = router.metrics.snapshot()
        assert snapshot.get(Metrics.REREPLICATIONS, 0) >= 1
        placement = router.stats()["placement"]
        for hosts in placement.values():
            assert len(hosts) == 2  # back at primary + 1 on 2 live hosts
            assert 0 not in hosts

    def test_cascading_failures_down_to_one_host(self):
        router = make_cluster(shards=3, replicas=1)
        router.kill_shard(0)
        tick_stock(router, 3, 200.0)
        router.refresh()
        assert_converged(router)
        router.kill_shard(1)
        tick_stock(router, 4, 300.0)
        router.refresh()
        assert_converged(router)
        # Two failovers (one per killed primary), still serving.
        snapshot = router.metrics.snapshot()
        assert snapshot.get(Metrics.FAILOVERS, 0) >= 2
        placement = router.stats()["placement"]
        for hosts in placement.values():
            assert hosts == [2]


class TestPinnedZones:
    def test_failover_auto_releases_the_dead_hosts_zone(self):
        router = make_cluster(shards=3, replicas=1)
        router.kill_shard(0)
        tick_stock(router, 3, 200.0)
        router.refresh()  # failover + re-replication complete
        report = router.collect_garbage()
        assert report.pinned == {}
        assert router.stats()["pinned"] == {}

    def test_unreplicated_kill_pins_until_recovery(self, tmp_path):
        router = make_cluster(
            shards=3, replicas=0, wal_root=str(tmp_path)
        )
        router.kill_shard(1)
        tick_stock(router, 3, 200.0)
        router.refresh()
        report = router.collect_garbage()
        zone = "shard:1"
        assert zone in report.pinned
        assert report.pinned[zone]["groups"] == [1]
        assert report.pinned[zone]["retained_rows"] > 0
        assert zone in router.stats()["pinned"]
        # Rejoin releases the pin (and replays the held window).
        assert router.recover_shard(1) is True
        report = router.collect_garbage()
        assert report.pinned == {}
        router.refresh()
        assert_converged(router)

    def test_a_host_left_without_a_store_holds_no_zone(self, tmp_path):
        """A rejoin drains host 2 idle; ``add_shard`` gives it a replica
        of group 3, and ``remove_shard(3)`` dissolves that group. Host 2
        is live and carries nothing again, so it must hold no zone: a
        zone nothing advances would pin the router logs for good."""
        router = make_cluster(
            shards=3, replicas=1, seed=0, wal_root=str(tmp_path)
        )
        router.kill_shard(2)
        router.refresh()
        router.recover_shard(2)
        assert router.add_shard() == 3
        assert 3 in router._hosts[2].stores
        router.remove_shard(3)
        assert not router._hosts[2].stores
        assert router.zones.boundary("shard:2") is None
        for price in range(50):
            tick_stock(router, 3, 100.0 + price)
            router.refresh()
            assert router.collect_garbage().pinned == {}
        assert len(router.db.table("stocks").log) <= 1
        assert_converged(router)

    def test_gc_report_is_still_a_pruned_dict(self):
        router = make_cluster(shards=3, replicas=1)
        tick_stock(router, 3, 200.0)
        router.refresh()
        report = router.collect_garbage()
        assert isinstance(report, dict)
        for table, count in report.items():
            assert isinstance(table, str) and isinstance(count, int)


class TestRejoin:
    def test_failed_over_host_rejoins_as_spare(self, tmp_path):
        router = make_cluster(
            shards=3, replicas=1, wal_root=str(tmp_path)
        )
        router.kill_shard(0)
        tick_stock(router, 3, 200.0)
        router.refresh()
        assert_converged(router)
        # Everything failed over and re-replicated: the rejoin is a
        # planned catch-up (True), never a baseline fallback.
        assert router.recover_shard(0) is True
        snapshot = router.metrics.snapshot()
        assert snapshot.get(Metrics.SHARD_FALLBACKS, 0) == 0
        stats = router.stats()
        assert stats["shards"][0]["alive"] is True
        # At full strength the rejoiner idles as a spare — and a spare
        # must not pin the logs.
        assert stats["shards"][0]["groups"] == {}
        assert stats["shards"][0]["zone"] is None
        tick_stock(router, 4, 300.0)
        router.refresh()
        assert_converged(router)

    def test_spare_is_reenlisted_on_the_next_failure(self, tmp_path):
        router = make_cluster(
            shards=3, replicas=1, wal_root=str(tmp_path)
        )
        router.kill_shard(0)
        tick_stock(router, 3, 200.0)
        router.refresh()
        router.recover_shard(0)
        router.kill_shard(2)
        tick_stock(router, 4, 300.0)
        router.refresh()
        assert_converged(router)
        placement = router.stats()["placement"]
        assert any(0 in hosts for hosts in placement.values())
        tick_stock(router, 5, 400.0)
        router.refresh()
        assert_converged(router)

    def test_lost_group_rejoins_primary_via_replay(self, tmp_path):
        # replicas=1 on two hosts leaves no spare: killing one loses
        # its replica capacity and its primaries fail over; killing
        # with no survivors for a group exercises the lost path.
        router = make_cluster(
            shards=2, replicas=0, wal_root=str(tmp_path)
        )
        router.kill_shard(1)
        tick_stock(router, 3, 200.0)
        router.refresh()
        assert router.recover_shard(1) is True
        router.refresh()
        assert_converged(router)
        snapshot = router.metrics.snapshot()
        assert snapshot.get(Metrics.SHARD_REPLAYS) == 1

    def test_rejoin_reads_only_the_window_it_slices(self, tmp_path):
        """No subscription, so the rejoining store's group reads no
        table: its catch-up must not trip over logs that GC has pruned
        past the store's horizon for nobody's sake (minimised from a
        random op-sequence run: ``log pruned through ts=3; cannot read
        since ts=0``)."""
        router = make_cluster(
            shards=2,
            replicas=1,
            wal_root=str(tmp_path),
            populate=False,
            subscribe=False,
        )
        stocks = router.db.table("stocks")
        router.refresh()
        stocks.insert((1, "S1", 101.0))
        router.kill_shard(0)
        stocks.insert((2, "S2", 102.0))
        router.refresh()
        router.collect_garbage()
        stocks.insert((3, "S3", 103.0))
        router.recover_shard(0)
        router.refresh()
        router.check_invariants()
        router.subscribe("c", "watch", FILTER_SQL)
        router.refresh()
        assert sorted(r.values for r in router.result("c", "watch")) == sorted(
            r.values for r in router.db.query(FILTER_SQL)
        )


class TestRemoveShard:
    def test_remove_is_the_inverse_of_add(self):
        router = make_cluster(shards=3, replicas=1)
        new_id = router.add_shard()
        tick_stock(router, 3, 200.0)
        router.refresh()
        assert_converged(router)
        router.remove_shard(new_id)
        assert_converged(router)
        assert new_id not in router.backend.alive()
        assert new_id not in router.stats()["placement"]
        tick_stock(router, 4, 300.0)
        router.refresh()
        assert_converged(router)

    def test_remove_rehomes_subscriptions_and_slices(self):
        router = make_cluster(shards=4, replicas=1)
        tick_stock(router, 3, 200.0)  # pending window: drain must serve it
        router.remove_shard(2)
        assert_converged(router)
        placement = router.stats()["placement"]
        assert 2 not in placement
        assert all(2 not in hosts for hosts in placement.values())
        [info] = [i for i in router.describe() if i["cq"] == "big"]
        assert info["shards"] == sorted(placement)
        tick_stock(router, 4, 300.0)
        router.refresh()
        assert_converged(router)

    def test_remove_guards(self):
        router = make_cluster(shards=2, replicas=0)
        router.kill_shard(1)
        with pytest.raises(ClusterError):
            router.remove_shard(1)  # dead hosts are recover_shard's job
        with pytest.raises(ClusterError):
            router.remove_shard(0)  # never remove the last live shard
        with pytest.raises(ClusterError):
            router.remove_shard(99)  # not in the cluster

    def test_remove_without_replicas(self):
        router = make_cluster(shards=3, replicas=0)
        tick_stock(router, 3, 200.0)
        router.remove_shard(1)
        assert_converged(router)
        tick_stock(router, 4, 300.0)
        router.refresh()
        assert_converged(router)

    def test_remove_sole_holder_of_failed_over_group(self):
        """Removing a shard that is the only holder of a *foreign*
        group (one that failed over onto it) must seed a replacement
        replica on a survivor and promote it — not blow up mid-drain.

        Construction: with 2 hosts and replicas=1, killing host 0
        leaves host 1 sole holder of group 0 (no spare to top up
        onto); a third host then joins and host 1 is drained."""
        router = make_cluster(shards=2, replicas=1)
        router.kill_shard(0)
        tick_stock(router, 3, 200.0)
        router.refresh()
        assert router.stats()["placement"][0] == [1]  # sole holder
        new_id = router.add_shard()
        router.remove_shard(1)
        placement = router.stats()["placement"]
        assert all(1 not in hosts for hosts in placement.values())
        assert placement[0] == [new_id]  # promoted replacement
        assert_converged(router)
        tick_stock(router, 4, 300.0)
        router.refresh()
        assert_converged(router)

    def test_remove_keeps_load_bookkeeping_consistent(self):
        """A planned removal leaves no trace of the removed host or its
        dissolved group anywhere the router reports — a phantom store
        would skew every later replica placement — and the next
        placement decision still converges."""
        router = make_cluster(shards=4, replicas=1)
        tick_stock(router, 3, 200.0)
        router.refresh()
        router.remove_shard(2)
        stats = router.stats()
        assert 2 not in stats["placement"]
        assert all(2 not in hosts for hosts in stats["placement"].values())
        assert 2 not in stats["shards"]
        assert all(2 not in row["groups"] for row in stats["shards"].values())
        exposition = router.prometheus()
        assert 'shard="2"' not in exposition
        assert 'group="2"' not in exposition
        # The next placement decision sees the consistent state.
        tick_stock(router, 4, 300.0)
        router.refresh()
        assert_converged(router)


class TestAddShardReplicated:
    def test_growing_a_capped_fleet_tops_up_the_old_groups(self):
        """Two hosts, one killed: one host in service caps _strength()
        at a single store and the repair queue drains. Adding a host
        raises it again, so the groups the small fleet left at one
        store must be topped up (or stay queued), not forgotten."""
        router = make_cluster(shards=2, replicas=1)
        router.kill_shard(1)
        router.refresh()
        assert router.stats()["placement"] == {0: [0], 1: [0]}
        new_id = router.add_shard()
        router.check_invariants()
        placement = router.stats()["placement"]
        assert placement == {
            0: [0, new_id],
            1: [0, new_id],
            new_id: [new_id, 0],
        }
        tick_stock(router, 3, 200.0)
        router.refresh()
        assert_converged(router)
        # The top-up is real capacity: the old primary can now go.
        router.kill_shard(0)
        tick_stock(router, 4, 300.0)
        router.refresh()
        assert_converged(router)

    def test_new_group_gets_replicas_too(self):
        router = make_cluster(shards=3, replicas=1)
        new_id = router.add_shard()
        placement = router.stats()["placement"]
        assert len(placement[new_id]) == 2
        assert placement[new_id][0] == new_id
        tick_stock(router, 3, 200.0)
        router.refresh()
        assert_converged(router)
        # The grown cluster still survives losing the new primary.
        router.kill_shard(new_id)
        tick_stock(router, 4, 300.0)
        router.refresh()
        assert_converged(router)
