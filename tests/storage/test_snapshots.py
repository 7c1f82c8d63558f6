"""Tests for database snapshot save/load."""

import pytest

from repro import Database
from repro.errors import StorageError
from repro.storage.snapshots import (
    database_from_dict,
    database_to_dict,
    load_database,
    save_database,
)
from repro.workload.stocks import StockMarket


@pytest.fixture
def populated():
    db = Database()
    market = StockMarket(db, seed=77)
    market.populate(50)
    market.tick(20, p_insert=0.2, p_delete=0.2)
    return db, market


class TestRoundTrip:
    def test_contents_preserved(self, populated):
        db, market = populated
        restored = database_from_dict(database_to_dict(db))
        original = db.relation("stocks")
        copy = restored.relation("stocks")
        assert copy == original
        # Same tids too, not just values.
        assert set(copy.tids()) == set(original.tids())

    def test_clock_and_tids_resume(self, populated):
        db, market = populated
        restored = database_from_dict(database_to_dict(db))
        assert restored.now() == db.now()
        tid_before = db.table("stocks")._next_tid
        new_tid = restored.table("stocks").insert((9999, "NEW", 1))
        assert new_tid == tid_before  # continues, never reuses

    def test_log_preserved_for_cq_windows(self, populated):
        """A CQ window opened before the snapshot survives restore."""
        from repro.delta.capture import delta_since

        db, market = populated
        ts = db.now()
        market.tick(10)
        snapshot = database_to_dict(db)
        restored = database_from_dict(snapshot)
        original_delta = delta_since(db.table("stocks"), ts)
        restored_delta = delta_since(restored.table("stocks"), ts)
        assert list(original_delta) == list(restored_delta)

    def test_pruned_watermark_preserved(self, populated):
        db, market = populated
        db.table("stocks").log.prune_before(2)
        restored = database_from_dict(database_to_dict(db))
        assert restored.table("stocks").log.pruned_through == 2
        assert restored.table("stocks").log.newest_ts == (
            db.table("stocks").log.newest_ts
        )
        with pytest.raises(ValueError):
            restored.table("stocks").log.since(0)

    def test_indexes_rebuilt(self, populated):
        db, market = populated
        restored = database_from_dict(database_to_dict(db))
        index = restored.table("stocks").index_for((0,))
        assert index is not None
        row = next(iter(restored.relation("stocks")))
        assert row.tid in index.lookup((row.values[0],))

    def test_without_logs(self, populated):
        db, market = populated
        restored = database_from_dict(
            database_to_dict(db, include_logs=False)
        )
        assert len(restored.table("stocks").log) == 0
        assert restored.relation("stocks") == db.relation("stocks")

    def test_json_file_roundtrip(self, populated, tmp_path):
        db, market = populated
        path = str(tmp_path / "snapshot.json")
        save_database(db, path)
        restored = load_database(path)
        assert restored.relation("stocks") == db.relation("stocks")

    def test_unknown_format_rejected(self):
        with pytest.raises(StorageError):
            database_from_dict({"format": 999, "now": 0, "tables": {}})


class TestResumedOperation:
    def test_cqs_resume_on_restored_database(self, populated):
        """The restored site can serve fresh CQs immediately."""
        from repro.core import CQManager

        db, market = populated
        restored = database_from_dict(database_to_dict(db))
        mgr = CQManager(restored)
        mgr.register_sql(
            "watch", "SELECT name, price FROM stocks WHERE price > 500"
        )
        mgr.drain()
        restored.table("stocks").insert((9999, "NEW", 900))
        notes = mgr.drain()
        assert len(notes) == 1
        assert notes[0].delta.insertions().values_set() == {
            ("NEW", 900)
        }
