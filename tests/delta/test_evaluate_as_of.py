"""``evaluate_as_of(query, db, ts)`` ≡ the query over a snapshot taken
at ``ts`` — the Section 4.2 old state, *current ⊖ Δ(ts, now]*, in its
one spelling. Generated histories in the style of
``tests/storage/test_table_machine.py``: transactions over two tables
(a tid touched twice, rows that move between join keys, deletes), a
snapshot kept per commit, then every past timestamp is asked for —
SPJ and aggregate queries alike, ``ts == now`` reading no log at all,
and a ``ts`` that garbage collection has passed raising instead of
answering from a log that no longer holds the window.

The kernel install step — E_0 as one DRA term seeded by a whole
relation (:func:`repro.dra.algorithm.dra_initial`; an aggregate folds
its narrowed core's rows) — is held to the same snapshots at every
``ts``. A third table, ``c``, is never written after it is filled and
always holds the most rows, so the chain through it seeds in the
middle.
"""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro import Database
from repro.delta.propagate import _evaluate, evaluate_as_of
from repro.dra.aggregates import DifferentialAggregate
from repro.dra.algorithm import dra_initial
from repro.dra.prepared import prepare_cq
from repro.relational.aggregates import AggregateQuery
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
    # a self-join with renamed columns
    "SELECT x.k AS xk, x.v AS xv, y.v AS yv FROM a x, a y "
    "WHERE x.k = y.k AND x.v < y.v",
    # a three-table chain whose largest table, c, sits in the middle
    "SELECT a.v AS av, c.v AS cv, b.v AS bv FROM a, c, b "
    "WHERE a.k = c.k AND c.v = b.k",
    # a cartesian product
    "SELECT a.v AS av, b.v AS bv FROM a, b WHERE a.v > 50 AND b.v < 30",
    # a constant-false conjunct
    "SELECT k, v FROM a WHERE v > 10 AND 1 = 2",
]

#: ``c``'s rows: more than a history can put in ``a`` or ``b``.
C_ROWS = [(k, v) for k in range(4) for v in range(4)] * 3

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
    timestamp (the first = the start: ``a`` and ``b`` empty, ``c``
    filled), a snapshot of every table."""
    db = Database()
    tables = {
        name: db.create_table(name, [("k", INT), ("v", INT)], indexes=[("k",)])
        for name in "abc"
    }
    tables["c"].insert_many(C_ROWS)
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


@settings(max_examples=120, deadline=None)
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
            with pytest.raises(ValueError, match="pruned through"):
                kernel_install(query, db, ts)
            continue
        else:
            got = evaluate_as_of(query, db, ts)
        assert got == _evaluate(query, state.__getitem__, None), (sql, ts)
        assert kernel_install(query, db, ts) == got, (sql, ts)


def kernel_install(query, db, ts):
    """Q(state at ``ts``) through the kernel install, on a plan compiled
    (join indexes created) as registration compiles it."""
    if isinstance(query, AggregateQuery):
        state = DifferentialAggregate(query, db)
        return state.initialize(None, prepare_cq(state.core, db), ts)
    return dra_initial(query, db, ts, prepare_cq(query, db))


def test_charges_the_metrics_it_is_given():
    from repro.metrics import Metrics

    db, snapshots = replay([("a", [("insert", 1, 50)]), ("a", [("insert", 2, 60)])])
    first = sorted(snapshots)[1]  # the first commit to ``a``
    metrics = Metrics()
    result = evaluate_as_of(parse_query(QUERIES[0]), db, first, metrics)
    assert [row.values for row in result] == [(1, 50)]
    assert metrics.get(Metrics.ROWS_SCANNED) > 0
