"""Registration ships a store only the baselines it lacks.

Seeding a new ``sql_key`` sends each store of its groups a baseline of
every table the query touches — unless the store already confirmed
that table's slice under the current ring, with no commit to the table
since. A ring change (``add_shard``/``remove_shard``) voids every
stamp, and a store placed anew (re-replicated, rebuilt, rejoined) is a
new record without any. The seeding frames themselves still go out,
empty or not. A ``fault_hook`` that never faults spies on them.
"""

from collections import Counter

import pytest

from repro.cluster import ClusterRouter, LocalBackend
from repro.net.messages import ScatterMessage

TABLE = "positions"


def _sql(k):
    return f"SELECT pid, client, shares FROM positions WHERE shares > {k}"


class Spy:
    """Records every scatter frame as it reaches a store."""

    def __init__(self):
        self.frames = []  # (host, group, {table: rows shipped})

    def __call__(self, shard_id, message, phase):
        if phase == "send" and isinstance(message, ScatterMessage):
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
    # store per subscription, plus the first refresh's scatter of the
    # initial rows (the later refreshes found nothing and heartbeat).
    seeding = Counter((host, group) for host, group, _ in spy.frames)
    assert seeding == {store: len(keys) + 1 for store in placed}
    router.close()


@pytest.mark.parametrize("replicas", [0, 1])
def test_a_commit_between_subscriptions_ships_the_table_again(
    tmp_path, replicas
):
    spy = Spy()
    router = make_router(tmp_path, replicas, spy)
    router.subscribe("c", "q0", _sql(0))
    refresh_and_check(router, [0])
    # Each commit is refreshed before the next subscription: a seeding
    # frame that meets a pending window advances the other keys' windows
    # without merging them (ROADMAP item 2), which this test is not about.
    commit(router)
    refresh_and_check(router, [0])
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
