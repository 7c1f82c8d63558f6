"""``evaluate_as_of(query, db, ts)`` ≡ the query over a snapshot taken
at ``ts`` — the Section 4.2 old state, *current ⊖ Δ(ts, now]*, in its
one spelling. Generated histories in the style of
``tests/storage/test_table_machine.py``: transactions over two tables
(a tid touched twice, rows that move between join keys, deletes), a
snapshot kept per commit, then every past timestamp is asked for —
SPJ and aggregate queries alike, ``ts == now`` reading no log at all,
and a ``ts`` that garbage collection has passed raising instead of
answering from a log that no longer holds the window.
"""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro import Database
from repro.delta.propagate import _evaluate, evaluate_as_of
from repro.relational.sql import parse_query
from repro.relational.types import AttributeType
from repro.storage.update_log import UpdateLog

INT = AttributeType.INT
QUERIES = [
    "SELECT k, v FROM a WHERE v > 40",
    "SELECT a.v AS va, b.v AS vb FROM a, b WHERE a.k = b.k AND a.v > 20",
    "SELECT SUM(v) AS total, COUNT(*) AS n FROM a WHERE v > 10",
    "SELECT k, MAX(v) AS top FROM b GROUP BY k",
    "SELECT COUNT(*) AS n FROM a, b WHERE a.k = b.k AND b.v > 30",
]

keys, values, picks = st.integers(0, 3), st.integers(0, 99), st.integers(0, 50)
operations = st.one_of(
    st.tuples(st.just("insert"), keys, values),
    st.tuples(st.just("delete"), picks),
    st.tuples(st.just("modify"), picks, keys, values),
)
transactions = st.lists(
    st.tuples(st.sampled_from("ab"), st.lists(operations, min_size=1, max_size=4)),
    min_size=1,
    max_size=8,
)


def replay(history):
    """Commit ``history``; returns the database and, per commit
    timestamp (0 = the empty start), a snapshot of every table."""
    db = Database()
    tables = {
        name: db.create_table(name, [("k", INT), ("v", INT)], indexes=[("k",)])
        for name in "ab"
    }
    snapshots = {db.now(): {n: t.snapshot() for n, t in tables.items()}}
    for name, ops in history:
        table = tables[name]
        with db.begin() as txn:
            for kind, *args in ops:
                live = sorted(
                    tid for tid in table.current.tids()
                    if txn.read(table, tid) is not None
                )
                if kind == "insert":
                    txn.insert_into(table, tuple(args))
                elif not live:
                    continue
                elif kind == "delete":
                    txn.delete_from(table, live[args[0] % len(live)])
                else:
                    tid = live[args[0] % len(live)]
                    txn.modify_in(table, tid, values=(args[1], args[2]))
        snapshots[db.now()] = {n: t.snapshot() for n, t in tables.items()}
    return db, snapshots


@settings(max_examples=60, deadline=None)
@given(history=transactions, sql=st.sampled_from(QUERIES), prune=st.integers(0, 8))
def test_equals_the_query_over_a_snapshot_taken_then(history, sql, prune):
    db, snapshots = replay(history)
    query = parse_query(sql)
    pruned = sorted(snapshots)[min(prune, len(snapshots) - 1)] if prune else 0
    for table in db.tables():
        table.log.prune_before(pruned)
    for ts, state in snapshots.items():
        core = getattr(query, "core", query)
        reaches = all(
            db.table(name).log.pruned_through <= ts for name in core.table_names
        )
        if ts == db.now():
            with mock.patch.object(UpdateLog, "since") as since:
                got = evaluate_as_of(query, db, ts)
            assert not since.called, "ts == now read the log"
        elif not reaches:
            with pytest.raises(ValueError, match="pruned through"):
                evaluate_as_of(query, db, ts)
            continue
        else:
            got = evaluate_as_of(query, db, ts)
        assert got == _evaluate(query, state.__getitem__, None), (sql, ts)


def test_charges_the_metrics_it_is_given():
    from repro.metrics import Metrics

    db, __ = replay([("a", [("insert", 1, 50)]), ("a", [("insert", 2, 60)])])
    metrics = Metrics()
    result = evaluate_as_of(parse_query(QUERIES[0]), db, 1, metrics)
    assert [row.values for row in result] == [(1, 50)]
    assert metrics.get(Metrics.ROWS_SCANNED) > 0
