"""Tests for the append-only update log."""

import pytest

from repro.storage.update_log import UpdateKind, UpdateLog, UpdateRecord


def record(tid, ts, kind=UpdateKind.INSERT, old=None, new=(1,)):
    return UpdateRecord(kind, tid, old, new, ts, txn_id=1)


class TestAppend:
    def test_append_and_len(self):
        log = UpdateLog()
        log.append(record(1, ts=1))
        log.append(record(2, ts=1))
        assert len(log) == 2

    def test_timestamps_must_not_decrease(self):
        log = UpdateLog()
        log.append(record(1, ts=5))
        with pytest.raises(ValueError):
            log.append(record(2, ts=4))

    def test_equal_timestamps_allowed(self):
        log = UpdateLog()
        log.append(record(1, ts=5))
        log.append(record(2, ts=5))  # same transaction
        assert len(log) == 2


class TestSince:
    def test_since_is_exclusive(self):
        log = UpdateLog()
        for ts in (1, 2, 2, 3):
            log.append(record(ts * 10, ts=ts))
        assert [r.ts for r in log.since(2)] == [3]
        assert [r.ts for r in log.since(1)] == [2, 2, 3]
        assert [r.ts for r in log.since(0)] == [1, 2, 2, 3]
        assert log.since(3) == []

    def test_since_preserves_order(self):
        log = UpdateLog()
        log.append(record(1, ts=1))
        log.append(record(2, ts=1))
        assert [r.tid for r in log.since(0)] == [1, 2]


class TestPrune:
    def test_prune_before_drops_prefix(self):
        log = UpdateLog()
        for ts in (1, 2, 3, 4):
            log.append(record(ts, ts=ts))
        assert log.prune_before(2) == 2
        assert len(log) == 2
        assert log.oldest_ts() == 3
        assert log.pruned_through == 2

    def test_prune_noop(self):
        log = UpdateLog()
        log.append(record(1, ts=5))
        assert log.prune_before(4) == 0

    def test_read_into_pruned_region_raises(self):
        log = UpdateLog()
        for ts in (1, 2, 3):
            log.append(record(ts, ts=ts))
        log.prune_before(2)
        with pytest.raises(ValueError):
            log.since(1)
        assert [r.ts for r in log.since(2)] == [3]

    def test_newest_ts_survives_pruning(self):
        """``latest_ts`` describes the records held, ``newest_ts`` the
        table: pruning forgets records, not that they were committed."""
        log = UpdateLog()
        assert log.newest_ts == 0
        for ts in (1, 2, 3):
            log.append(record(ts, ts=ts))
        log.prune_before(7)
        assert (log.latest_ts(), log.pruned_through, log.newest_ts) == (0, 7, 3)
        log.append(record(4, ts=9))
        assert log.newest_ts == 9

    def test_mark_pruned_seeds_newest_ts_conservatively(self):
        """A rebuilt log cannot know what its pruned history held:
        ``newest_ts`` reads max(latest record, pruned_through)."""
        behind, ahead = UpdateLog(), UpdateLog()
        ahead.append(record(1, ts=5))
        for log in (behind, ahead):
            log.mark_pruned(3)
            assert log.pruned_through == 3
        assert (behind.newest_ts, ahead.newest_ts) == (3, 5)

    def test_latest_and_oldest_on_empty(self):
        log = UpdateLog()
        assert log.latest_ts() == 0 and log.oldest_ts() == 0


def test_record_equality_and_repr():
    a = record(1, ts=1)
    b = record(1, ts=1)
    assert a == b and hash(a) == hash(b)
    assert "insert" in repr(a)
