"""One retained result per ``sql_key`` at the router.

Every member of a ``sql_key`` aliases one relation that a merge or a
catch-up *replaces* and nothing ever mutates; ``result()`` and
``subscribe()`` hand out copies. These tests walk many members of one
key through the whole lifecycle and check they can never be told apart
— and that a member joining or leaving from inside ``on_delta``, while
the merge is notifying, is safe.
"""

import pytest

from repro.cluster import ClusterRouter, LocalBackend
from tests.cluster.test_control_plane_trace import make_router

SQL = "SELECT name, price FROM stocks WHERE price > 103"
OTHER = "SELECT name, price FROM stocks WHERE price > 108"


def make_cluster(tmp_path, replicas=1):
    router = ClusterRouter(
        shards=3,
        seed=7,
        backend=LocalBackend(wal_root=str(tmp_path)),
        replicas=replicas,
        backoff_base=0.0,
    )
    router.declare_table(
        "stocks", [("sid", int), ("name", str), ("price", float)]
    )
    router.start()
    stocks = router.db.table("stocks")
    with router.db.begin() as txn:
        for i in range(12):
            txn.insert_into(stocks, (i, f"S{i}", 100.0 + i))
    return router


def tick(router, sid, price):
    stocks = router.db.table("stocks")
    with router.db.begin() as txn:
        for row in list(stocks.current):
            if row.values[0] == sid:
                txn.modify_in(stocks, row.tid, (sid, row.values[1], price))


def assert_members_agree(router, members, sql=SQL):
    oracle = router.db.query(sql)
    for client in members:
        assert router.result(client, "watch") == oracle, client
    assert len({id(router._subs[(c, "watch")].result) for c in members}) == 1
    router.check_invariants()


def test_members_of_one_key_share_one_result_through_the_lifecycle(tmp_path):
    router = make_cluster(tmp_path)
    streams = {}

    def listener(client):
        streams[client] = []
        return lambda cq, delta, ts: streams[client].append((len(delta), ts))

    members = [f"c{i}" for i in range(6)]
    for client in members:
        initial = router.subscribe(client, "watch", SQL, listener(client))
        assert initial == router.db.query(SQL)
    assert router.stats()["sql_keys"] == 1
    assert_members_agree(router, members)

    tick(router, 1, 150.0)  # enters the result
    tick(router, 9, 50.0)  # leaves it
    assert router.refresh() == len(members)
    assert_members_agree(router, members)

    router.unsubscribe(members.pop(0), "watch")  # the first member leaves
    tick(router, 2, 160.0)
    assert router.refresh() == len(members)
    assert_members_agree(router, members)

    # Lose the primary serving the key, commit while it is down,
    # recover: failover, rejoin and any catch-up keep one result.
    [home] = router.describe()[0]["shards"]
    router.kill_shard(router.stats()["placement"][home][0])
    tick(router, 3, 170.0)
    router.refresh()
    assert_members_agree(router, members)
    [dead] = [
        host
        for host, info in router.stats()["shards"].items()
        if not info["alive"]
    ]
    router.recover_shard(dead)
    tick(router, 4, 180.0)
    router.refresh()
    assert_members_agree(router, members)

    # A late joiner starts from the shared result and stays in step.
    members.append("late")
    assert router.subscribe("late", "watch", SQL, listener("late")) == (
        router.db.query(SQL)
    )
    tick(router, 5, 190.0)
    router.refresh()
    assert_members_agree(router, members)
    # Everyone still subscribed since the start saw the same stream.
    assert len({tuple(streams[c]) for c in members[:-1]}) == 1
    assert streams["late"] == streams["c1"][-1:]


def test_unreplicated_recovery_reinstalls_the_one_result(tmp_path):
    """replicas=0: the key's group is lost with its host, and its
    return re-installs the key — on the store and at the router, one
    diff, one replacement, every member notified the same catch-up."""
    router = make_cluster(tmp_path, replicas=0)
    seen = {"a": [], "b": []}
    for client in seen:
        router.subscribe(
            client,
            "watch",
            SQL,
            lambda cq, delta, ts, client=client: seen[client].append(
                sorted((e.old, e.new) for e in delta)
            ),
        )
    router.refresh()
    [home] = router.describe()[0]["shards"]
    router.kill_shard(home)
    tick(router, 1, 150.0)
    router.refresh()  # nobody serves the key
    router.recover_shard(home)
    router.refresh()
    assert_members_agree(router, ["a", "b"])
    assert seen["a"] == seen["b"] and seen["a"]


def test_handed_out_relations_are_copies(tmp_path):
    router = make_cluster(tmp_path)
    initial = router.subscribe("a", "watch", SQL)
    router.subscribe("b", "watch", SQL)
    handed = router.result("a", "watch")
    for relation in (initial, handed):
        relation.add(999, ("GHOST", 1.0))
        for row in list(relation):
            if row.tid != 999:
                relation.discard(row.tid)
    assert_members_agree(router, ["a", "b"])
    tick(router, 1, 150.0)
    router.refresh()
    assert_members_agree(router, ["a", "b"])
    assert 999 not in {row.tid for row in router.result("b", "watch")}


def test_subscribing_and_unsubscribing_from_inside_on_delta(tmp_path):
    """Callbacks run while the merge walks the member list: a member
    that leaves is not notified afterwards, a member that joins the
    same key already holds the new result (and is not notified the
    delta it contains), a brand-new key can be seeded mid-merge, and
    the last member leaving retires the key under the merge's feet."""
    router = make_cluster(tmp_path)
    log = []

    def first(cq, delta, ts):
        log.append("first")
        router.unsubscribe("second", "watch")
        joined = router.subscribe("joiner", "watch", SQL, record("joiner"))
        assert joined == router.db.query(SQL)
        router.subscribe("first", "other", OTHER, record("other"))

    def record(name):
        return lambda cq, delta, ts: log.append(name)

    router.subscribe("first", "watch", SQL, first)
    router.subscribe("second", "watch", SQL, record("second"))
    router.subscribe("third", "watch", SQL, record("third"))
    router.refresh()
    tick(router, 1, 150.0)
    assert router.refresh() == 2  # first and third; second had left
    assert log == ["first", "third"]
    assert_members_agree(router, ["first", "third", "joiner"])
    assert router.result("first", "other") == router.db.query(OTHER)

    # The sole member of a key unsubscribes from its own callback.
    del log[:]
    for client in ("first", "third", "joiner"):
        router.unsubscribe(client, "watch")
    router.subscribe(
        "solo", "watch", SQL, lambda *_: router.unsubscribe("solo", "watch")
    )
    tick(router, 2, 160.0)
    router.refresh()
    assert [d["cq"] for d in router.describe()] == ["other"]
    assert log == ["other"]
    router.check_invariants()
    tick(router, 3, 170.0)
    router.refresh()
    assert router.result("first", "other") == router.db.query(OTHER)


def test_a_member_copy_survives_a_move_across_a_lost_group(tmp_path):
    """replicas=0: a row moves from a slice whose group is lost to one
    that is served, and the lost group comes back. The member that
    applies what it is notified must end where ``result()`` does: the
    rejoined group re-installs the key, so its old owner's delete of
    the moved row is not delivered on top of the insert the catch-up
    already notified."""
    sql = "SELECT pid, client, shares FROM positions WHERE shares > 50"
    router = make_router(0, 0, tmp_path)
    try:
        copy = {}

        def on_delta(cq, delta, ts):
            for entry in delta:
                assert copy.get(entry.tid) == entry.old, entry
                if entry.new is None:
                    del copy[entry.tid]
                else:
                    copy[entry.tid] = entry.new

        initial = router.subscribe("a", "moves", sql, on_delta)
        copy.update((row.tid, row.values) for row in initial)
        router.refresh()
        router.kill_shard(0)
        positions = router.db.table("positions")
        assert positions.current.get(9)[1] == "c3"
        with router.db.begin() as txn:
            txn.modify_in(positions, 9, (8, "c0", 0, 500))
        router.recover_shard(0)
        router.refresh()
        oracle = router.db.query(sql)
        assert router.result("a", "moves") == oracle
        assert copy == {row.tid: row.values for row in oracle}
    finally:
        router.close()


def test_a_rejoin_catch_up_starts_every_owner_at_one_ts(tmp_path):
    """replicas=0, a partition-parallel key: rows of a slice that stays
    served change while group 0 is lost and again after it rejoins.
    The catch-up must not start the served owners' views at the rejoin
    while their tables are still at their last refresh, or the next
    window would carry the earlier change too: a delete of a row the
    view never held (the row leaves the result), or a modify whose two
    ends both fail the predicate (it entered the result meanwhile)."""
    sql = "SELECT pid, client, shares FROM positions WHERE shares > 50"
    router = make_router(0, 0, tmp_path)
    try:
        copy = {}

        def on_delta(cq, delta, ts):
            for entry in delta:
                assert copy.get(entry.tid) == entry.old, entry
                if entry.new is None:
                    del copy[entry.tid]
                else:
                    copy[entry.tid] = entry.new

        initial = router.subscribe("a", "parallel", sql, on_delta)
        copy.update((row.tid, row.values) for row in initial)
        router.refresh()
        positions = router.db.table("positions")
        served = [
            row
            for row in positions.current
            if router.ring.lookup(f"positions:{row.values[1]}") != 0
        ]
        leaving = next(row for row in served if row.values[3] > 50)
        entering = next(row for row in served if row.values[3] <= 50)

        def set_shares(row, shares):
            pid, client, sid, _ = row.values
            with router.db.begin() as txn:
                txn.modify_in(positions, row.tid, (pid, client, sid, shares))

        router.kill_shard(0)
        set_shares(leaving, 10)
        set_shares(entering, 500)
        router.recover_shard(0)
        set_shares(leaving, 5)
        set_shares(entering, 20)
        router.refresh()
        router.check_invariants()
        oracle = router.db.query(sql)
        assert router.result("a", "parallel") == oracle
        assert copy == {row.tid: row.values for row in oracle}
        set_shares(leaving, 70)
        router.refresh()
        oracle = router.db.query(sql)
        assert router.result("a", "parallel") == oracle
        assert copy == {row.tid: row.values for row in oracle}
    finally:
        router.close()


def rejoin_after_ring_change(tmp_path, change, partition_key, seed):
    """replicas=0, ``t(k, v)`` partitioned on ``partition_key``: group 0
    is lost while the ring changes, rejoins, and then every row is
    modified (moving each to another slice when the key is ``v``).
    Returns what a member applying its deltas was notified that does not
    fit its own copy, and whether that copy ends at ``db.query``."""
    sql = "SELECT k, v FROM t WHERE v >= 0"
    router = ClusterRouter(
        shards=3,
        seed=seed,
        backend=LocalBackend(wal_root=str(tmp_path)),
        backoff_base=0.0,
    )
    router.declare_table("t", [("k", int), ("v", int)], partition_key=partition_key)
    router.start()
    table = router.db.table("t")
    with router.db.begin() as txn:
        for i in range(40):
            txn.insert_into(table, (i, i))
    copy, misfits = {}, []

    def on_delta(cq, delta, ts):
        for entry in delta:
            if copy.get(entry.tid) != entry.old:
                misfits.append(entry)
            if entry.new is None:
                copy.pop(entry.tid, None)
            else:
                copy[entry.tid] = entry.new

    try:
        initial = router.subscribe("a", "all", sql, on_delta)
        copy.update((row.tid, row.values) for row in initial)
        router.refresh()
        router.kill_shard(0)
        change(router)
        router.refresh()
        router.recover_shard(0)
        router.refresh()
        with router.db.begin() as txn:
            for row in list(table.current):
                k, v = row.values
                txn.modify_in(table, row.tid, (k, (v * 7 + 13) % 40))
        router.refresh()
        oracle = {row.tid: row.values for row in router.db.query(sql)}
        return misfits, copy == oracle
    finally:
        router.close()


def test_a_group_lost_across_a_remove_rejoins_onto_its_new_slice(tmp_path):
    """Group 2 dissolves while group 0 is lost: rows of its slice move
    to group 0, whose journal never held them. The rejoin must re-seed
    the partitioned table, or a later modify of such a row reaches the
    member as an insert of a row it already holds."""
    for seed in (0, 1):
        remove = lambda router: router.remove_shard(2)  # noqa: E731
        misfits, converged = rejoin_after_ring_change(
            tmp_path / str(seed), remove, "k", seed
        )
        assert misfits == [] and converged, seed


def test_a_group_lost_across_an_add_rejoins_onto_its_new_slice(tmp_path):
    """A shard joins while group 0 is lost, taking rows of group 0's
    slice. Replayed onto its journal's slice, the rejoined store would
    keep them: a modify moving such a row would then come from two
    groups as a modify and a delete, which the merge rejects."""
    for seed in (0, 1):
        add = lambda router: router.add_shard()  # noqa: E731
        misfits, converged = rejoin_after_ring_change(
            tmp_path / str(seed), add, "v", seed
        )
        assert misfits == [] and converged, seed


def test_a_catch_up_counts_the_members_it_notifies(tmp_path):
    """replicas=0: a key's group is lost, a commit changes its result,
    and the group comes back. The refresh that catches the key up
    notifies both members and says so."""
    router = make_cluster(tmp_path, replicas=0)
    seen = []
    for client in ("a", "b"):
        router.subscribe(client, "watch", SQL, lambda *note: seen.append(note))
    router.refresh()
    [home] = router.describe()[0]["shards"]
    router.kill_shard(home)
    tick(router, 1, 150.0)
    assert router.refresh() == 0  # nobody serves the key
    router.recover_shard(home)
    assert router.refresh() == 2 == len(seen)
    assert_members_agree(router, ["a", "b"])


@pytest.mark.parametrize("release_zone", (False, True))
def test_a_callback_commits_during_a_catch_up(tmp_path, release_zone):
    """replicas=0, two keys over ``stocks`` homed on different groups.
    The served key's member commits to ``stocks`` from its ``on_delta``
    while the other key's group is lost and in the refresh that catches
    that key up. Every member applies what it is notified to a copy of
    its own. With ``release_zone`` the router's logs are collected past
    the behind key's window while its group is lost: the catch-up
    evaluates the query whole and diffs it with the view's result."""
    router = make_cluster(tmp_path, replicas=0)
    texts = [f"SELECT name, price FROM stocks WHERE price > {n}" for n in range(100, 112)]
    homes = {}
    for i, sql in enumerate(texts):
        router.subscribe("probe", f"q{i}", sql)
    for row in router.describe():
        homes.setdefault(row["shards"][0], texts[int(row["cq"][1:])])
    for i in range(len(texts)):
        router.unsubscribe("probe", f"q{i}")
    (__, served), (behind_home, behind) = sorted(homes.items())[:2]
    copies, budget = {}, [0]

    def member(client, cq, commit=False):
        def on_delta(cq_name, delta, ts):
            copy = copies[(client, cq)]
            for entry in delta:
                assert copy.get(entry.tid) == entry.old, entry
                if entry.new is None:
                    del copy[entry.tid]
                else:
                    copy[entry.tid] = entry.new
            if commit and budget[0]:
                budget[0] -= 1
                tick(router, 11, 200.0 + budget[0])  # in both results

        return on_delta

    members = [("w", "served", served, True), ("r1", "behind", behind, False)]
    members.append(("r2", "behind", behind, False))
    for client, cq, sql, commit in members:
        initial = router.subscribe(client, cq, sql, member(client, cq, commit))
        copies[(client, cq)] = {row.tid: row.values for row in initial}

    def refresh():
        router.refresh()
        router.check_invariants()
        for client, cq, __, __ in members:
            assert copies[(client, cq)] == {
                row.tid: row.values for row in router.result(client, cq)
            }, (client, cq)

    refresh()
    router.kill_shard(behind_home, release_zone=release_zone)
    budget[0] = 4
    for price in (150.0, 60.0):
        tick(router, 3, price)
        refresh()
    since = router._subs[("r1", "behind")].since
    if release_zone:
        router.collect_garbage()
        assert router.db.table("stocks").log.pruned_through > since
    router.recover_shard(behind_home)
    tick(router, 5, 170.0)
    refresh()  # the catch-up; the served key's member commits in it
    assert router._subs[("r1", "behind")].since > since
    budget[0] = 0
    refresh()
    for client, cq, sql, __ in members:
        oracle = {row.tid: row.values for row in router.db.query(sql)}
        assert copies[(client, cq)] == oracle, (client, cq)
