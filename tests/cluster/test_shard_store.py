"""One shard store, driven frame by frame: a table slice plus one window
per ``sql_key``, and nothing the router already retains.

A store keeps no result copy, so a delta may delete a row the store's
evaluation never produced — the router's merged result holds it. The
first test is that case: a row inserted with a commit stamp below a
view's window start, then deleted inside a later window."""

import random

import pytest

from repro import Database
from repro.cluster import ClusterRouter, ClusterShard, LocalBackend, TableDecl
from repro.delta.differential import DeltaEntry, DeltaRelation
from repro.delta.propagate import evaluate_as_of
from repro.errors import RegistrationError
from repro.metrics import Metrics
from repro.relational.relation import Relation
from repro.net.messages import ScatterMessage, ShardSyncMessage
from repro.storage.wal import KIND_SUB_REGISTER, scan_wal, shard_wal_path

STOCKS = TableDecl("stocks", [("sid", int), ("name", str), ("price", float)])
POSITIONS = TableDecl(
    "positions", [("pid", int), ("client", str), ("sid", int), ("shares", int)]
)
DECLS = [STOCKS, POSITIONS]

EXPENSIVE = "SELECT sid, price FROM stocks WHERE price > 100"
HOLDINGS = (
    "SELECT p.client, s.name, p.shares FROM positions AS p, stocks AS s "
    "WHERE p.sid = s.sid AND p.shares > 20"
)


def journal(root):
    return shard_wal_path(str(root), 0)


def make_store(root):
    return ClusterShard(0, DECLS, db=Database(durability=journal(root)))


def spec(sql):
    return {"cq": sql, "sql": sql}


def delta(decl, *entries):
    return DeltaRelation(decl.schema, entries)


def scatter(seq, ts, deltas=None):
    """A refresh frame."""
    return ScatterMessage(0, seq, ts, deltas=deltas, group=0)


def sync(seq, ts, deltas=None, baselines=None, subscribe=(), unsubscribe=()):
    """An install frame."""
    return ShardSyncMessage(
        0,
        seq,
        ts,
        deltas=deltas,
        baselines=baselines,
        subscribe=[spec(sql) for sql in subscribe],
        unsubscribe=list(unsubscribe),
        group=0,
    )


def entries(reply):
    return [
        (key, sorted((e.tid, e.old, e.new, e.ts) for e in part), (since, ts))
        for key, part, since, ts in reply.entries
    ]


def windows(store):
    return {key: view.since for key, view in store._views.items()}


class TestRowsTheStoreNeverProduced:
    def test_delete_of_a_row_inserted_below_the_window_start(self, tmp_path):
        store = make_store(tmp_path)
        row = (7, "S7", 120.0)
        assert entries(store.handle(sync(1, 5, subscribe=[EXPENSIVE]))) == []
        # Stamped 3, below the window start 5: outside (5, 10].
        inserted = delta(STOCKS, DeltaEntry(7, None, row, 3))
        reply = store.handle(scatter(2, 10, deltas={"stocks": inserted}))
        assert entries(reply) == []
        deleted = delta(STOCKS, DeltaEntry(7, row, None, 15))
        reply = store.handle(scatter(3, 15, deltas={"stocks": deleted}))
        assert entries(reply) == [
            (EXPENSIVE, [(7, (7, 120.0), None, 15)], (10, 15))
        ]
        store.check_invariants()


class TestRegistration:
    def test_a_view_is_journaled_and_builds_no_result(self, tmp_path):
        store = make_store(tmp_path)
        reply = store.handle(sync(1, 5, subscribe=[EXPENSIVE]))
        assert reply.entries == [] and windows(store) == {EXPENSIVE: 5}
        # No initial evaluation: nothing was scanned.
        assert reply.counters.get("rows_scanned", 0) == 0
        events = [
            entry
            for entry in scan_wal(journal(tmp_path)).entries
            if entry["k"] == KIND_SUB_REGISTER
        ]
        assert events == [
            {
                "k": KIND_SUB_REGISTER,
                "client": "router",
                "cq": EXPENSIVE,
                "sql": EXPENSIVE,
                "protocol": "dra_delta",
                "ts": 5,
            }
        ]

    def test_duplicate_subscribe_and_unknown_unsubscribe_raise(self, tmp_path):
        store = make_store(tmp_path)
        store.handle(sync(1, 5, subscribe=[EXPENSIVE]))
        with pytest.raises(RegistrationError):
            store.handle(sync(2, 6, subscribe=[EXPENSIVE]))
        with pytest.raises(RegistrationError):
            store.handle(sync(3, 7, unsubscribe=[HOLDINGS]))

    def test_only_a_refresh_frame_moves_a_window(self, tmp_path):
        store = make_store(tmp_path)
        store.handle(sync(1, 5, subscribe=[EXPENSIVE, HOLDINGS]))
        store.handle(scatter(2, 9))
        assert windows(store) == {EXPENSIVE: 9, HOLDINGS: 9}
        store.handle(sync(3, 12, unsubscribe=[EXPENSIVE]))
        assert windows(store) == {HOLDINGS: 9}
        assert store.zones.boundaries() == {HOLDINGS: 9}
        store.handle(scatter(4, 14))
        assert windows(store) == {HOLDINGS: 14}

    def test_an_install_frame_leaves_every_other_window_where_it_was(
        self, tmp_path
    ):
        """What an install frame replays or converges is delivered by
        the next refresh frame, to the views it did not install."""
        store = make_store(tmp_path)
        store.handle(insert_stocks(1, 2, PRICES))
        store.handle(sync(2, 3, subscribe=[EXPENSIVE]))
        store.handle(scatter(3, 5))
        replay = reprice(6, (1, 105.0, 150.0))
        held = Relation(POSITIONS.schema)
        held.add(1, (1, "c1", 1, 40))
        frame = sync(
            4,
            8,
            deltas={"stocks": replay},
            baselines={"positions": held},
            subscribe=[HOLDINGS],
        )
        assert store.handle(frame).entries == []
        assert windows(store) == {EXPENSIVE: 5, HOLDINGS: 8}
        reply = store.handle(scatter(5, 9))
        assert entries(reply) == [
            (EXPENSIVE, [(1, (1, 105.0), (1, 150.0), 9)], (5, 9))
        ]
        assert windows(store) == {EXPENSIVE: 9, HOLDINGS: 9}


class TestRecovery:
    FRAMES = [
        scatter(
            1,
            4,
            deltas={
                "stocks": delta(
                    STOCKS,
                    *(
                        DeltaEntry(sid, None, (sid, f"S{sid}", 96.0 + 3 * sid), 2)
                        for sid in range(6)
                    ),
                ),
                "positions": delta(
                    POSITIONS,
                    *(
                        DeltaEntry(
                            pid, None, (pid, f"c{pid % 3}", pid % 6, 10 * pid), 3
                        )
                        for pid in range(8)
                    ),
                ),
            },
        ),
        sync(2, 6, subscribe=[EXPENSIVE, HOLDINGS]),
    ]
    NEXT = scatter(
        3,
        9,
        deltas={
            "stocks": delta(
                STOCKS,
                DeltaEntry(1, (1, "S1", 99.0), (1, "S1", 130.0), 7),
                DeltaEntry(5, (5, "S5", 111.0), None, 8),
                DeltaEntry(9, None, (9, "S9", 140.0), 9),
            ),
            "positions": delta(
                POSITIONS,
                DeltaEntry(2, (2, "c2", 2, 20), (2, "c2", 2, 60), 8),
                DeltaEntry(4, (4, "c1", 4, 40), None, 9),
            ),
        },
    )

    def test_a_recovered_store_matches_an_uncrashed_twin(self, tmp_path):
        crashed = make_store(tmp_path / "crashed")
        twin = make_store(tmp_path / "twin")
        for frame in self.FRAMES:
            assert entries(crashed.handle(frame)) == entries(twin.handle(frame))
        # The crash: abandon the store without closing its journal.
        recovered = ClusterShard.recover(0, DECLS, journal(tmp_path / "crashed"))
        recovered.check_invariants()
        assert recovered.sql_keys() == crashed.sql_keys() == [HOLDINGS, EXPENSIVE]
        assert windows(recovered) == windows(crashed) == {EXPENSIVE: 6, HOLDINGS: 6}
        want = entries(twin.handle(self.NEXT))
        assert {key for key, _part, _ts in want} == {EXPENSIVE, HOLDINGS}
        assert entries(recovered.handle(self.NEXT)) == want
        recovered.check_invariants()
        twin.close()
        recovered.close()

    def test_a_view_recovers_at_its_registration(self, tmp_path):
        store = make_store(tmp_path)
        for frame in self.FRAMES:
            store.handle(frame)
        store.handle(sync(3, 8, unsubscribe=[HOLDINGS]))
        assert windows(store) == {EXPENSIVE: 6}
        recovered = ClusterShard.recover(0, DECLS, journal(tmp_path))
        assert windows(recovered) == {EXPENSIVE: 6}
        recovered.close()


class TestInvariants:
    def test_each_law_catches_its_break(self, tmp_path):
        store = make_store(tmp_path)
        store.handle(sync(1, 5, subscribe=[EXPENSIVE]))
        store.check_invariants()
        store.index.remove(EXPENSIVE)
        with pytest.raises(AssertionError, match="index keys"):
            store.check_invariants()

        store = make_store(tmp_path / "zones")
        store.handle(sync(1, 5, subscribe=[EXPENSIVE]))
        store.zones.advance(EXPENSIVE, 7)
        with pytest.raises(AssertionError, match="zones"):
            store.check_invariants()

        store = make_store(tmp_path / "window")
        store.handle(sync(1, 5, subscribe=[EXPENSIVE]))
        store.handle(scatter(2, 6))
        store._views[EXPENSIVE].since = 7
        store.zones.advance(EXPENSIVE, 7)
        with pytest.raises(AssertionError, match="last refresh"):
            store.check_invariants()

        store = make_store(tmp_path / "pruned")
        store.handle(sync(1, 5, subscribe=[EXPENSIVE]))
        store.db.table("stocks").log.mark_pruned(9)
        with pytest.raises(AssertionError, match="pruned-through 9"):
            store.check_invariants()


def insert_stocks(seq, ts, prices):
    """A frame inserting ``sid -> price`` rows, the sid as the tid."""
    rows = [
        DeltaEntry(sid, None, (sid, f"S{sid}", price), ts)
        for sid, price in prices.items()
    ]
    return scatter(seq, ts, deltas={"stocks": delta(STOCKS, *rows)})


def reprice(ts, *changes):
    """The ``stocks`` slice moving each ``(sid, old, new)`` price."""
    return delta(
        STOCKS,
        *(
            DeltaEntry(sid, (sid, f"S{sid}", old), (sid, f"S{sid}", new), ts)
            for sid, old, new in changes
        ),
    )


def executions(store, frame):
    before = store.metrics.snapshot()
    reply = store.handle(frame)
    return store.metrics.diff(before).get(Metrics.EXECUTIONS, 0), reply


def assert_gathered(store, reply, since):
    """Each view's gathered delta (empty without an entry) covers its
    window from ``since[key]`` and takes Q's result there to Q's result
    now."""
    got = {key: part for key, part, __, __ in reply.entries}
    assert all(start == since[key] for key, __, start, __ in reply.entries)
    assert got.keys() <= since.keys()
    for key, view in store._views.items():
        start = evaluate_as_of(view.query, store.db, since[key])
        part = got.get(key)
        now = start if part is None else part.apply_to(start)
        assert now == store.db.query(view.query), key


#: Four literals of one shape over stocks, and a view of another shape.
FAMILY = [
    "SELECT sid, price FROM stocks WHERE sid = 1",
    "SELECT sid, price FROM stocks WHERE sid = 2",
    "SELECT sid, price FROM stocks WHERE price >= 100 AND price < 110",
    "SELECT sid, price FROM stocks WHERE price > 150 OR sid = 3",
]
ASIDE = "SELECT name FROM stocks WHERE sid = 9"
SHAPE = "SELECT sid, price FROM stocks"
PRICES = {sid: 100.0 + 5 * sid for sid in range(10)}


def family_store(root, texts):
    store = make_store(root)
    store.handle(insert_stocks(1, 2, PRICES))
    store.handle(sync(2, 3, subscribe=texts))
    return store


class TestFamilies:
    """A routed window of a family is one execution per store, split
    into each member's gather entry (``core/scheduler.py`` ``Family``)."""

    def test_a_routed_family_runs_one_execution_per_window(self, tmp_path):
        store = family_store(tmp_path, FAMILY + [ASIDE])
        assert len(store._families) == 2
        changes = reprice(4, (1, 105.0, 185.0), (2, 110.0, 104.0))
        count, reply = executions(store, scatter(3, 4, deltas={"stocks": changes}))
        assert count == 1
        assert {key for key, __, __, __ in reply.entries} == set(FAMILY)
        assert_gathered(store, reply, dict.fromkeys(store._views, 3))

    def test_a_member_moved_across_gets_a_delete_and_the_other_an_insert(
        self, tmp_path
    ):
        """The projection drops ``price``: the old side routes to one
        member, the new side to another, and both project ``(sid,)``."""
        cheap = "SELECT sid FROM stocks WHERE price >= 100 AND price < 110"
        dear = "SELECT sid FROM stocks WHERE price > 150"
        store = family_store(tmp_path, [cheap, dear])
        changes = reprice(4, (1, 105.0, 160.0))
        count, reply = executions(store, scatter(3, 4, deltas={"stocks": changes}))
        assert count == 1
        assert entries(reply) == [
            (cheap, [(1, (1,), None, 4)], (3, 4)),
            (dear, [(1, None, (1,), 4)], (3, 4)),
        ]

    def test_a_family_of_one_runs_its_own_execution(self, tmp_path):
        lone = "SELECT price FROM stocks WHERE sid = 2"
        store = family_store(tmp_path, [FAMILY[0], lone])
        assert all(len(f.members) == 1 for f in store._families.values())
        changes = reprice(4, (1, 105.0, 106.0), (2, 110.0, 111.0))
        count, reply = executions(store, scatter(3, 4, deltas={"stocks": changes}))
        assert count == 2 and len(reply.entries) == 2

    def test_a_quarantined_member_runs_its_own_execution(self, tmp_path):
        store = family_store(tmp_path, FAMILY + [ASIDE])
        store.index._quarantine(FAMILY[0], keep_table="")
        changes = reprice(4, (1, 105.0, 106.0), (2, 110.0, 111.0))
        # FAMILY[1] and FAMILY[2] share one; FAMILY[0] reads unrouted.
        count, reply = executions(store, scatter(3, 4, deltas={"stocks": changes}))
        assert count == 2
        assert {key for key, __, __, __ in reply.entries} == set(FAMILY[:3])
        assert_gathered(store, reply, dict.fromkeys(store._views, 3))

    def test_a_window_touching_another_table_runs_one_execution_per_key(
        self, tmp_path
    ):
        texts = [
            "SELECT s.name, p.shares FROM stocks AS s, positions AS p "
            f"WHERE s.sid = p.sid AND s.price = {price}"
            for price in (105.0, 110.0, 115.0)
        ]
        store = family_store(tmp_path, texts)
        (family,) = store._families.values()
        assert family.key[1] == "s" and len(family.members) == 3
        held = delta(
            POSITIONS,
            *(DeltaEntry(pid, None, (pid, "c", pid, 10), 4) for pid in (1, 2, 3)),
        )
        count, reply = executions(store, scatter(3, 4, deltas={"positions": held}))
        assert count == 3 and len(reply.entries) == 3
        # positions has no local predicate: its sides route to every member.
        changes = reprice(5, (1, 105.0, 110.0))
        moved = delta(POSITIONS, DeltaEntry(3, (3, "c", 3, 10), (3, "c", 3, 20), 5))
        since = dict.fromkeys(store._views, 4)
        frame = scatter(4, 5, deltas={"stocks": changes, "positions": moved})
        count, reply = executions(store, frame)
        assert count == 3
        assert_gathered(store, reply, since)
        changes = reprice(6, (1, 110.0, 115.0))
        count, reply = executions(store, scatter(5, 6, deltas={"stocks": changes}))
        assert count == 1
        assert_gathered(store, reply, dict.fromkeys(store._views, 5))


class TestPlans:
    def test_the_last_member_takes_the_family_and_its_plan(self, tmp_path):
        store = family_store(tmp_path, FAMILY + [ASIDE])
        store.handle(scatter(3, 4, deltas={"stocks": reprice(4, (1, 105.0, 106.0))}))
        assert SHAPE in store.plans
        store.handle(sync(4, 5, unsubscribe=FAMILY))
        assert list(store._families) == [("SELECT name FROM stocks", "stocks")]
        assert SHAPE not in store.plans
        assert len(store.plans) == 1

    def test_unsubscribed_texts_leave_no_plan_on_any_store(self):
        """Subscribing and unsubscribing 50 distinct texts through a
        router leaves every store with no view and no plan."""
        router = ClusterRouter(shards=2, seed=3, backend=LocalBackend())
        router.declare_table("stocks", STOCKS.schema)
        router.start()
        with router.db.begin() as txn:
            for sid, price in PRICES.items():
                txn.insert_into(router.db.table("stocks"), (sid, f"S{sid}", price))
        texts = [f"SELECT sid, name FROM stocks WHERE price > {i}" for i in range(50)]
        for i, sql in enumerate(texts):
            router.subscribe("c", f"q{i}", sql)
        router.refresh()
        for i in range(len(texts)):
            router.unsubscribe("c", f"q{i}")
        router.refresh()
        stores = stores_of(router)
        try:
            assert [len(store._views) for store in stores] == [0] * len(stores)
            assert [len(store.plans) for store in stores] == [0] * len(stores)
        finally:
            router.close()


def rows(relation):
    return sorted(row.values for row in relation)


def stores_of(router):
    return [
        store
        for host in router.backend.shards.values()
        for store in host.stores.values()
    ]


class TestQuarantine:
    SQL = "SELECT sid, name FROM stocks WHERE price > 50"

    def check_after(self, quarantine):
        """29 matching rows, a refresh, ``quarantine(router)``, one more
        matching row: the next refresh must still reach ``db.query``'s
        30 rows."""
        router = ClusterRouter(shards=2, seed=3, backend=LocalBackend())
        router.declare_table("stocks", STOCKS.schema)
        router.start()
        db = router.db
        with db.begin() as txn:
            for sid in range(29):
                txn.insert_into(db.table("stocks"), (sid, f"S{sid}", 60.0 + sid))
        try:
            router.subscribe("c", "watch", self.SQL)
            router.refresh()
            quarantine(router)
            with db.begin() as txn:
                txn.insert_into(db.table("stocks"), (99, "HI", 900.0))
            router.refresh()
            assert len(db.query(self.SQL)) == 30
            assert rows(router.result("c", "watch")) == rows(db.query(self.SQL))
        finally:
            router.close()

    def test_a_quarantined_view_is_evaluated_unrouted(self):
        """A stale-signature entry matches nothing in a store's index,
        so routing cannot vouch for the view: a touched frame evaluates
        it unrouted (the server's ``test_a_quarantined_group_is_
        evaluated_unrouted``, at the store)."""

        def quarantine(router):
            for store in stores_of(router):
                store.index._quarantine(self.SQL, keep_table="")

        self.check_after(quarantine)

    def test_a_router_quarantined_key_is_scattered(self):
        """The router's own index vouches for nothing on a quarantined
        key either: its tables still ship to the owner groups, whose
        stores evaluate it (left out of the plan, it missed the new
        row: 29 rows against 30)."""
        self.check_after(
            lambda router: router.index._quarantine(self.SQL, keep_table="")
        )


@pytest.mark.parametrize("replicas", [0, 1])
def test_routed_families_serve_every_member(replicas):
    """Two in-process shards: every member of two families and a join
    equals ``db.query`` after every refresh."""
    router = ClusterRouter(
        shards=2, seed=5, replicas=replicas, backend=LocalBackend()
    )
    router.declare_table("stocks", STOCKS.schema)
    router.declare_table("positions", POSITIONS.schema, partition_key="client")
    router.start()
    db = router.db
    texts = [
        f"SELECT name, price FROM stocks WHERE price > {100 + 4 * i}"
        for i in range(8)
    ]
    texts += [
        f"SELECT pid, shares FROM positions WHERE shares < {10 * i}"
        for i in range(6)
    ]
    texts.append(HOLDINGS)
    rng = random.Random(replicas)
    with db.begin() as txn:
        for sid in range(12):
            txn.insert_into(db.table("stocks"), (sid, f"S{sid}", 100.0 + 3 * sid))
        for pid in range(20):
            txn.insert_into(
                db.table("positions"), (pid, f"c{pid % 5}", pid % 12, 5 * pid)
            )
    try:
        for i, sql in enumerate(texts):
            router.subscribe(f"c{i % 3}", f"q{i}", sql)
        for __ in range(12):
            with db.begin() as txn:
                for name, make in (
                    ("stocks", lambda v: (v[0], v[1], float(rng.randrange(95, 140)))),
                    ("positions", lambda v: (v[0], v[1], v[2], rng.randrange(100))),
                ):
                    table = db.table(name)
                    for row in rng.sample(list(table.current), 3):
                        txn.modify_in(table, row.tid, make(row.values))
            router.refresh()
            for i, sql in enumerate(texts):
                assert rows(router.result(f"c{i % 3}", f"q{i}")) == rows(db.query(sql))
    finally:
        router.close()
