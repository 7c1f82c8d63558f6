"""One shard store, driven frame by frame: a table slice plus one window
per ``sql_key``, and nothing the router already retains.

A store keeps no result copy, so a delta may delete a row the store's
evaluation never produced — the router's merged result holds it. The
first test is that case: a row inserted with a commit stamp below a
view's window start, then deleted inside a later window."""

import pytest

from repro import Database
from repro.cluster import ClusterShard, TableDecl
from repro.delta.differential import DeltaEntry, DeltaRelation
from repro.errors import RegistrationError
from repro.net.messages import ScatterMessage, ShardHeartbeatMessage
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


def scatter(seq, ts, deltas=None, subscribe=(), unsubscribe=()):
    return ScatterMessage(
        0,
        seq,
        ts,
        deltas=deltas,
        subscribe=[spec(sql) for sql in subscribe],
        unsubscribe=list(unsubscribe),
        group=0,
    )


def entries(reply):
    return [
        (key, sorted((e.tid, e.old, e.new, e.ts) for e in part), ts)
        for key, part, ts in reply.entries
    ]


def windows(store):
    return {key: view.since for key, view in store._views.items()}


class TestRowsTheStoreNeverProduced:
    def test_delete_of_a_row_inserted_below_the_window_start(self, tmp_path):
        store = make_store(tmp_path)
        row = (7, "S7", 120.0)
        assert entries(store.handle(scatter(1, 5, subscribe=[EXPENSIVE]))) == []
        # Stamped 3, below the window start 5: outside (5, 10].
        inserted = delta(STOCKS, DeltaEntry(7, None, row, 3))
        reply = store.handle(scatter(2, 10, deltas={"stocks": inserted}))
        assert entries(reply) == []
        deleted = delta(STOCKS, DeltaEntry(7, row, None, 15))
        reply = store.handle(scatter(3, 15, deltas={"stocks": deleted}))
        assert entries(reply) == [(EXPENSIVE, [(7, (7, 120.0), None, 15)], 15)]
        store.check_invariants()


class TestRegistration:
    def test_a_view_is_journaled_and_builds_no_result(self, tmp_path):
        store = make_store(tmp_path)
        reply = store.handle(scatter(1, 5, subscribe=[EXPENSIVE]))
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
        store.handle(scatter(1, 5, subscribe=[EXPENSIVE]))
        with pytest.raises(RegistrationError):
            store.handle(scatter(2, 6, subscribe=[EXPENSIVE]))
        with pytest.raises(RegistrationError):
            store.handle(scatter(3, 7, unsubscribe=[HOLDINGS]))

    def test_every_frame_advances_every_window(self, tmp_path):
        store = make_store(tmp_path)
        store.handle(scatter(1, 5, subscribe=[EXPENSIVE, HOLDINGS]))
        store.handle(ShardHeartbeatMessage(0, 2, 9, group=0))
        assert windows(store) == {EXPENSIVE: 9, HOLDINGS: 9}
        store.handle(scatter(3, 12, unsubscribe=[EXPENSIVE]))
        assert windows(store) == {HOLDINGS: 12}
        assert store.zones.boundaries() == {HOLDINGS: 12}


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
        scatter(2, 6, subscribe=[EXPENSIVE, HOLDINGS]),
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
        store.handle(scatter(3, 8, subscribe=[], unsubscribe=[HOLDINGS]))
        assert windows(store) == {EXPENSIVE: 8}
        recovered = ClusterShard.recover(0, DECLS, journal(tmp_path))
        assert windows(recovered) == {EXPENSIVE: 6}
        recovered.close()


class TestInvariants:
    def test_each_law_catches_its_break(self, tmp_path):
        store = make_store(tmp_path)
        store.handle(scatter(1, 5, subscribe=[EXPENSIVE]))
        store.check_invariants()
        store.index.remove(EXPENSIVE)
        with pytest.raises(AssertionError, match="index keys"):
            store.check_invariants()

        store = make_store(tmp_path / "zones")
        store.handle(scatter(1, 5, subscribe=[EXPENSIVE]))
        store.zones.advance(EXPENSIVE, 7)
        with pytest.raises(AssertionError, match="zones"):
            store.check_invariants()

        store = make_store(tmp_path / "pruned")
        store.handle(scatter(1, 5, subscribe=[EXPENSIVE]))
        store.db.table("stocks").log.mark_pruned(9)
        with pytest.raises(AssertionError, match="pruned-through 9"):
            store.check_invariants()
