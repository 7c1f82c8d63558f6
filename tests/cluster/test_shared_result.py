"""One retained result per ``sql_key`` at the router.

Every member of a ``sql_key`` aliases one relation that a merge or a
reconcile *replaces* and nothing ever mutates; ``result()`` and
``subscribe()`` hand out copies. These tests walk many members of one
key through the whole lifecycle and check they can never be told apart
— and that a member joining or leaving from inside ``on_delta``, while
the merge is notifying, is safe.
"""

from repro.cluster import ClusterRouter, LocalBackend

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
    # recover: failover, rejoin and any reconcile keep one result.
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


def test_unreplicated_recovery_reconciles_the_one_result(tmp_path):
    """replicas=0: the key's group is lost with its host and comes back
    through ``_reconcile`` — one diff against the oracle, one
    replacement, every member notified the same catch-up."""
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
