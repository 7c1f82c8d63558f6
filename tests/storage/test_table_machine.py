"""A generated state machine under ``Table``: the write path's laws.

Whatever sequence of transactions, index creations and log prunes a
table lives through, three things hold after every step:

* every hash index equals one rebuilt from the current rows (so a
  modify that moves a key moved it, one that does not left the buckets
  alone, and no empty bucket survives);
* the log replays: the oldest unpruned snapshot plus the consolidated
  records since it is the current relation (paper Section 4.1);
* log timestamps never decrease and ``newest_ts`` is the last commit's.

The direct tests below pin the batch-append, key-moved and
partial-apply rules one at a time.
"""

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro import Database
from repro.delta.differential import DeltaRelation
from repro.relational.indexes import HashIndex
from repro.relational.types import AttributeType
from repro.storage.update_log import UpdateKind, UpdateLog, UpdateRecord

INT, FLOAT, STR = AttributeType.INT, AttributeType.FLOAT, AttributeType.STR
COLUMNS = [("k", INT), ("g", FLOAT), ("s", STR), ("v", INT)]
INDEXABLE = [("k",), ("g",), ("k", "g"), ("s",), ("g", "s")]

# Few distinct keys, so buckets fill, empty and refill; NULL and NaN
# keys (each NaN a fresh object) are where bucket identity is subtlest.
k_values = st.sampled_from([0, 1, 2, None])
g_values = st.sampled_from([0.0, 1.5, None]) | st.builds(float, st.just("nan"))
s_values = st.sampled_from(["a", "b"])
v_values = st.integers(0, 99)
rows = st.tuples(k_values, g_values, s_values, v_values)
picks = st.integers(0, 50)

operations = st.one_of(
    st.tuples(st.just("insert"), rows),
    st.tuples(st.just("delete"), picks),
    st.tuples(st.just("move"), picks, k_values, g_values),
    st.tuples(st.just("touch"), picks, v_values),
    st.tuples(st.just("update"), picks, st.fixed_dictionaries({"v": v_values})),
    st.tuples(st.just("update"), picks, st.fixed_dictionaries({"k": k_values})),
    st.tuples(st.just("twice"), picks, k_values, v_values),
)


class _InTransaction:
    """``Table``'s single-operation signatures over an open transaction."""

    def __init__(self, txn, table):
        self.txn, self.table = txn, table

    def insert(self, values):
        return self.txn.insert_into(self.table, values)

    def delete(self, tid):
        self.txn.delete_from(self.table, tid)

    def modify(self, tid, values=None, updates=None):
        self.txn.modify_in(self.table, tid, values=values, updates=updates)


def perform(operation, writer, rows_now):
    """Run one drawn operation through ``writer`` and on the model
    ``rows_now`` (tid -> values); returns whether it wrote anything."""
    kind, *args = operation
    if kind == "insert":
        rows_now[writer.insert(args[0])] = args[0]
        return True
    if not rows_now:
        return False
    tid = sorted(rows_now)[args[0] % len(rows_now)]
    k, g, s, v = rows_now[tid]
    if kind == "delete":
        writer.delete(tid)
        del rows_now[tid]
    elif kind == "move":
        rows_now[tid] = (args[1], args[2], s, v)
        writer.modify(tid, values=rows_now[tid])
    elif kind == "touch":
        rows_now[tid] = (k, g, s, args[1])
        writer.modify(tid, values=rows_now[tid])
    elif kind == "update":
        writer.modify(tid, updates=args[1])
        rows_now[tid] = (args[1].get("k", k), g, s, args[1].get("v", v))
    else:  # the same tid twice: its key moves, then a non-key column
        writer.modify(tid, values=(args[1], g, s, v))
        writer.modify(tid, updates={"v": args[2]})
        rows_now[tid] = (args[1], g, s, args[2])
    return True


class TableMachine(RuleBasedStateMachine):
    @initialize(indexes=st.lists(st.sampled_from(INDEXABLE), max_size=2))
    def create(self, indexes):
        self.db = Database()
        self.table = self.db.create_table("t", COLUMNS, indexes=indexes)
        self.model = {}
        self.last_ts = 0
        self.snapshots = [(self.db.now(), self.table.snapshot())]

    def _committed(self, rows_now):
        self.model = rows_now
        self.last_ts = self.db.now()
        self.snapshots.append((self.last_ts, self.table.snapshot()))

    @rule(operation=operations)
    def single_operation(self, operation):
        rows_now = dict(self.model)
        if perform(operation, self.table, rows_now):
            self._committed(rows_now)

    @rule(batch=st.lists(operations, min_size=1, max_size=6), fate=st.integers(0, 4))
    def transaction(self, batch, fate):
        rows_now = dict(self.model)
        txn = self.db.begin()
        writer = _InTransaction(txn, self.table)
        wrote = [perform(operation, writer, rows_now) for operation in batch]
        if fate == 0:
            txn.abort()
        else:
            txn.commit()
            if any(wrote):
                self._committed(rows_now)

    @rule(columns=st.sampled_from(INDEXABLE))
    def create_index(self, columns):
        self.table.create_index(columns)

    @rule(pick=picks)
    def prune(self, pick):
        keep_from = pick % len(self.snapshots)
        self.table.log.prune_before(self.snapshots[keep_from][0])
        del self.snapshots[:keep_from]

    @invariant()
    def every_index_equals_a_rebuilt_one(self):
        for index in self.table.indexes.all():
            rebuilt = HashIndex.build(self.table.current, index.positions)
            assert index.buckets_map() == rebuilt.buckets_map()

    @invariant()
    def oldest_snapshot_plus_log_is_current(self):
        assert self.table.current.rows_map() == self.model
        ts, snapshot = self.snapshots[0]
        delta = DeltaRelation.from_records(
            self.table.schema, self.table.log.since(ts)
        )
        assert delta.apply_to(snapshot) == self.table.current

    @invariant()
    def log_stamps_never_decrease(self):
        stamps = [record.ts for record in self.table.log]
        assert stamps == sorted(stamps)
        assert self.table.log.newest_ts == self.last_ts


TestTableMachine = TableMachine.TestCase
TestTableMachine.settings = settings(
    max_examples=80, stateful_step_count=30, deadline=None
)


def _insert(tid, ts):
    return UpdateRecord(UpdateKind.INSERT, tid, None, (tid,), ts, txn_id=1)


class TestBatchAppend:
    def test_extend_rejects_a_decrease_inside_the_batch(self):
        log = UpdateLog()
        log.extend([_insert(1, 3)])
        with pytest.raises(ValueError):
            log.extend([_insert(2, 5), _insert(3, 4)])
        assert [record.tid for record in log] == [1]
        assert log.newest_ts == log.latest_ts() == 3

    def test_extend_rejects_a_batch_behind_the_tail(self):
        log = UpdateLog()
        log.extend([_insert(1, 3), _insert(2, 3)])
        with pytest.raises(ValueError):
            log.extend([_insert(3, 2), _insert(4, 9)])
        assert len(log) == 2 and log.newest_ts == 3
        log.extend([_insert(3, 3), _insert(4, 9)])
        assert len(log) == 4 and log.newest_ts == log.latest_ts() == 9

    def test_extend_of_nothing_changes_nothing(self):
        log = UpdateLog()
        log.extend([])
        assert len(log) == 0 and log.newest_ts == 0


class _CountingBuckets(dict):
    """A bucket map that counts the calls HashIndex mutates through."""

    touches = 0

    def setdefault(self, *args):
        self.touches += 1
        return super().setdefault(*args)

    def get(self, *args):
        self.touches += 1
        return super().get(*args)

    def __delitem__(self, key):
        self.touches += 1
        super().__delitem__(key)


class TestKeyMovedRule:
    def test_non_key_modify_touches_no_bucket_and_builds_no_key(self, monkeypatch):
        db = Database()
        orders = db.create_table(
            "orders",
            [("oid", INT), ("cid", INT), ("pid", INT), ("amt", INT)],
            indexes=[("cid",), ("pid",), ("cid", "pid")],
        )
        tids = orders.insert_many([(o, o % 7, o % 5, 0) for o in range(1500)])
        keys_built = []
        key_of = HashIndex.key_of
        monkeypatch.setattr(
            HashIndex, "key_of", lambda self, v: keys_built.append(v) or key_of(self, v)
        )
        for index in orders.indexes.all():
            index._buckets = _CountingBuckets(index._buckets)
        with db.begin() as txn:
            for tid in tids:
                oid, cid, pid, amt = orders.get(tid)
                txn.modify_in(orders, tid, (oid, cid, pid, amt + 1))
        assert [i.buckets_map().touches for i in orders.indexes.all()] == [0, 0, 0]
        assert keys_built == []
        # ... and a modify that does move a key still moves it.
        orders.modify(tids[0], updates={"cid": 99})
        assert orders.indexes.single_column(1).lookup((99,)) == {tids[0]}
        assert tids[0] not in orders.indexes.single_column(1).lookup((0,))
        assert len(keys_built) == 4  # remove + insert on each cid index


class TestPartialApply:
    def test_failed_record_leaves_the_applied_ones_logged_and_indexed(self):
        db = Database()
        table = db.create_table("t", COLUMNS, indexes=[("k",), ("k", "g")])
        insert = UpdateRecord(UpdateKind.INSERT, 1, None, (0, 1.5, "a", 7), 1, 1)
        missing = UpdateRecord(UpdateKind.DELETE, 2, (0, 0.0, "b", 8), None, 1, 1)
        with pytest.raises(KeyError):
            table.apply_committed([insert, missing])
        assert list(table.log) == [insert] and table.log.newest_ts == 1
        assert table.current.rows_map() == {1: insert.new}
        for index in table.indexes.all():
            assert index.buckets_map() == HashIndex.build(
                table.current, index.positions
            ).buckets_map()
            assert len(index) == 1
