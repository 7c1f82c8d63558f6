"""Registration ships a store only the baselines it lacks.

Seeding a new ``sql_key`` sends each store of its groups a baseline of
every table the query touches — unless the store already confirmed
that table's slice under the current ring, with no commit to the table
since. A ring change (``add_shard``/``remove_shard``) voids every
stamp, and a store placed anew (re-replicated, rebuilt, rejoined) is a
new record without any. The seeding frames themselves still go out,
empty or not. A ``fault_hook`` that never faults spies on them.

A seeding frame is an install frame: it moves no window but the new
view's, so a commit still pending for another view when a subscription
seeds its store is delivered by the next refresh.
"""

from collections import Counter

import pytest

from repro.cluster import ClusterRouter, LocalBackend
from repro.net.messages import ShardSyncMessage

TABLE = "positions"


def _sql(k):
    return f"SELECT pid, client, shares FROM positions WHERE shares > {k}"


class Spy:
    """Records every install frame as it reaches a store."""

    def __init__(self):
        self.frames = []  # (host, group, {table: rows shipped})

    def __call__(self, shard_id, message, phase):
        if phase == "send" and isinstance(message, ShardSyncMessage):
            shipped = {t: len(rel) for t, rel in message.baselines.items()}
            self.frames.append((shard_id, message.group, shipped))

    def baselines(self, table=TABLE):
        """``(host, group) -> [rows]`` of every ``table`` baseline sent."""
        out = {}
        for host, group, shipped in self.frames:
            if table in shipped:
                out.setdefault((host, group), []).append(shipped[table])
        return out

    def clear(self):
        self.frames.clear()


def make_router(tmp_path, replicas, spy):
    router = ClusterRouter(
        shards=3,
        seed=3,
        replicas=replicas,
        backend=LocalBackend(wal_root=str(tmp_path), fault_hook=spy),
        backoff_base=0.0,
    )
    router.declare_table(
        "stocks", [("sid", int), ("name", str), ("price", float)]
    )
    router.declare_table(
        TABLE,
        [("pid", int), ("client", str), ("sid", int), ("shares", int)],
        partition_key="client",
    )
    router.start()
    db = router.db
    with db.begin() as txn:
        for i in range(8):
            txn.insert_into(db.table("stocks"), (i, f"S{i}", 100.0 + i))
        for i in range(40):
            txn.insert_into(db.table(TABLE), (i, f"c{i % 9}", i % 8, i))
    return router


def stores(router):
    return {
        (host, group)
        for group, hosts in router.stats()["placement"].items()
        for host in hosts
    }


def slice_rows(router, group):
    """Rows of the authoritative table that hash to ``group``."""
    return sum(
        router.ring.lookup(f"{TABLE}:{row.values[1]}") == group
        for row in router.db.table(TABLE).current
    )


def refresh_and_check(router, keys):
    router.refresh()
    for k in keys:
        assert router.result("c", f"q{k}") == router.db.query(_sql(k)), k


def commit(router, table=TABLE):
    db = router.db
    row = next(iter(db.table(table).current))
    values = list(row.values)
    values[-1] += 1
    with db.begin() as txn:
        txn.modify_in(db.table(table), row.tid, tuple(values))


@pytest.mark.parametrize("replicas", [0, 1])
def test_an_unchanged_table_is_shipped_to_each_store_once(tmp_path, replicas):
    spy = Spy()
    router = make_router(tmp_path, replicas, spy)
    keys = list(range(20))
    for k in keys:
        router.subscribe("c", f"q{k}", _sql(k))
        if k % 5 == 4:
            refresh_and_check(router, keys[: k + 1])
    placed = stores(router)
    shipped = spy.baselines()
    assert set(shipped) == placed
    assert all(len(rows) == 1 for rows in shipped.values()), shipped
    for (host, group), (rows,) in shipped.items():
        assert rows == slice_rows(router, group)
    # Every seeding frame still went out, baseline or none: one per
    # store per subscription.
    seeding = Counter((host, group) for host, group, _ in spy.frames)
    assert seeding == {store: len(keys) for store in placed}
    router.close()


@pytest.mark.parametrize("replicas", [0, 1])
def test_a_commit_between_subscriptions_ships_the_table_again(
    tmp_path, replicas
):
    spy = Spy()
    router = make_router(tmp_path, replicas, spy)
    router.subscribe("c", "q0", _sql(0))
    refresh_and_check(router, [0])
    commit(router)  # q0's window is pending across the subscription
    router.subscribe("c", "q1", _sql(1))
    refresh_and_check(router, [0, 1])
    assert all(len(r) == 2 for r in spy.baselines().values())
    # A commit to another table leaves this one's stamps standing.
    commit(router, "stocks")
    refresh_and_check(router, [0, 1])
    router.subscribe("c", "q2", _sql(2))
    refresh_and_check(router, [0, 1, 2])
    assert set(spy.baselines()) == stores(router)
    assert all(len(r) == 2 for r in spy.baselines().values())
    router.close()


@pytest.mark.parametrize("replicas", [0, 1])
def test_a_ring_change_ships_every_store_again(tmp_path, replicas):
    spy = Spy()
    router = make_router(tmp_path, replicas, spy)
    keys = [0, 1]
    for k in keys:
        router.subscribe("c", f"q{k}", _sql(k))
    refresh_and_check(router, keys)

    spy.clear()
    router.add_shard()
    refresh_and_check(router, keys)
    shipped = spy.baselines()
    assert set(shipped) == stores(router)
    for (host, group), rows in shipped.items():
        assert rows[-1] == slice_rows(router, group)

    spy.clear()
    router.remove_shard(0)
    refresh_and_check(router, keys)
    shipped = spy.baselines()
    assert set(shipped) == stores(router)
    for (host, group), rows in shipped.items():
        assert rows[-1] == slice_rows(router, group)
    router.close()


def test_a_rejoined_store_gets_a_full_baseline(tmp_path):
    spy = Spy()
    router = make_router(tmp_path, 0, spy)
    router.subscribe("c", "q0", _sql(0))
    refresh_and_check(router, [0])
    router.kill_shard(1)
    assert router.recover_shard(1) is True
    refresh_and_check(router, [0])

    spy.clear()
    router.subscribe("c", "q1", _sql(1))
    refresh_and_check(router, [0, 1])
    assert spy.baselines() == {(1, 1): [slice_rows(router, 1)]}
    router.close()


def test_a_re_replicated_store_gets_a_full_baseline(tmp_path):
    spy = Spy()
    router = make_router(tmp_path, 1, spy)
    router.subscribe("c", "q0", _sql(0))
    refresh_and_check(router, [0])
    before = stores(router)
    router.kill_shard(2)
    spy.clear()
    refresh_and_check(router, [0])  # background re-replication
    added = stores(router) - before
    assert added
    shipped = spy.baselines()
    assert set(shipped) == added
    for (host, group), rows in shipped.items():
        assert rows == [slice_rows(router, group)]

    spy.clear()
    router.subscribe("c", "q1", _sql(1))
    refresh_and_check(router, [0, 1])
    shipped = spy.baselines()
    assert set(shipped) == added  # new records, no stamps yet
    for (host, group), rows in shipped.items():
        assert rows == [slice_rows(router, group)]
    router.close()


@pytest.mark.parametrize("replicas", [0, 1, 2])
def test_a_seeding_frame_leaves_a_pending_window_to_the_refresh(
    tmp_path, replicas
):
    """A subscription seeds the store of another key whose commit is
    still pending; that key's delta must still reach the merge. (The
    seeding frame used to refresh every window on the store and drop
    the replies' deltas.)"""
    router = make_router(tmp_path, replicas, Spy())
    router.subscribe("c", "q0", _sql(0))
    router.refresh()
    commit(router)
    router.subscribe("c", "q1", _sql(1))
    for _ in range(3):
        refresh_and_check(router, [0, 1])
    router.close()


@pytest.mark.parametrize("replicas", [0, 1, 2])
def test_a_row_a_baseline_seeded_and_a_commit_deleted_leaves_the_store(
    tmp_path, replicas
):
    """The rows inserted since a store's last refresh reach it in a
    subscription's baseline; one deleted before the next refresh must
    leave the store too, although the refresh's window, read from the
    store's last refresh, nets its insert and delete out."""
    router = make_router(tmp_path, replicas, Spy())
    router.subscribe("c", "q0", _sql(0))
    db = router.db
    row = max(db.table(TABLE).current, key=lambda row: row.values[-1])
    with db.begin() as txn:
        txn.delete_from(db.table(TABLE), row.tid)
    refresh_and_check(router, [0])
    router.close()


def test_a_replica_promoted_before_its_group_served_a_refresh_reconciles(
    tmp_path,
):
    """No refresh of the group has been merged yet, so its views start
    at their subscriptions, wherever the replica's horizon stands (the
    second subscription's baselines moved it to now): the promotion
    reconciles them by re-installing the keys instead of trusting it."""
    router = make_router(tmp_path, 1, Spy())
    router.subscribe("c", "q0", _sql(0))
    commit(router)
    router.subscribe("c", "q1", _sql(1))
    router.kill_shard(router.stats()["placement"][0][0])
    refresh_and_check(router, [0, 1])
    router.close()


@pytest.mark.parametrize("replicas", [0, 1])
def test_a_rejoin_with_no_ring_change_replays_and_ships_no_baseline(
    tmp_path, replicas
):
    """A host down while the ring stands still comes back on its
    journal's slices: its missed window is replayed, and no baseline of
    the partitioned table is shipped to anyone. (With a replica its
    groups were re-replicated meanwhile, and its stores are drained.)"""
    spy = Spy()
    router = make_router(tmp_path, replicas, spy)
    keys = [0, 1]
    for k in keys:
        router.subscribe("c", f"q{k}", _sql(k))
    refresh_and_check(router, keys)
    router.kill_shard(1)
    commit(router)  # missed by the dead host's stores
    refresh_and_check(router, keys) if replicas else router.refresh()
    spy.clear()
    assert router.recover_shard(1) is True
    refresh_and_check(router, keys)
    assert spy.baselines() == {}
    if not replicas:  # (its lost group rejoined, primary, on a replay)
        assert any(host == 1 for host, __, __ in spy.frames)
    commit(router)
    refresh_and_check(router, keys)
    router.close()
