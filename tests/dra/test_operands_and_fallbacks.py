"""Tests for term-operand machinery: index probes, scan fallbacks."""

import pytest

from repro import Database
from repro.metrics import Metrics
from repro.relational import AttributeType, parse_query
from repro.delta.capture import deltas_since
from repro.delta.propagate import propagate
from repro.dra.algorithm import dra_execute
from repro.dra.operands import BaseOperand
from repro.dra.prepared import prepare_cq


def build(with_indexes):
    db = Database()
    r = db.create_table(
        "r",
        [("k", AttributeType.INT), ("v", AttributeType.INT)],
        indexes=[("k",)] if with_indexes else (),
    )
    s = db.create_table(
        "s",
        [("k", AttributeType.INT), ("w", AttributeType.INT)],
        indexes=[("k",)] if with_indexes else (),
    )
    r.insert_many([(i % 20, i) for i in range(200)])
    s.insert_many([(i % 20, i * 3) for i in range(100)])
    return db, r, s

JOIN = "SELECT r.v, s.w FROM r, s WHERE r.k = s.k"


class TestProbePaths:
    def test_indexed_join_probes_not_scans(self):
        db, r, s = build(with_indexes=True)
        ts = db.now()
        r.insert((5, 999))
        metrics = Metrics()
        result = dra_execute(
            parse_query(JOIN), db, since=ts, metrics=metrics
        )
        assert metrics[Metrics.ROWS_SCANNED] == 0
        assert metrics[Metrics.INDEX_PROBES] >= 1
        assert len(result.delta) == 5  # 5 partners with k=5 in s

    def test_unindexed_join_scans_once_per_operand(self):
        db, r, s = build(with_indexes=False)
        ts = db.now()
        r.insert((5, 999))
        metrics = Metrics()
        result = dra_execute(
            parse_query(JOIN), db, since=ts, metrics=metrics
        )
        # Transient hash build: one scan of s's old state, not of r.
        assert metrics[Metrics.ROWS_SCANNED] == len(s)
        assert len(result.delta) == 5

    def test_scan_cache_shared_across_probes(self):
        db, r, s = build(with_indexes=False)
        ts = db.now()
        with db.begin() as txn:
            for i in range(10):
                txn.insert_into(r, (i, 1000 + i))
        metrics = Metrics()
        dra_execute(parse_query(JOIN), db, since=ts, metrics=metrics)
        # Ten seeds, but the transient index over s is built once.
        assert metrics[Metrics.ROWS_SCANNED] == len(s)

    def test_results_identical_with_and_without_indexes(self):
        outcomes = []
        for with_indexes in (True, False):
            db, r, s = build(with_indexes)
            ts = db.now()
            with db.begin() as txn:
                txn.insert_into(r, (3, 777))
                txn.insert_into(s, (3, 888))
                txn.delete_from(s, next(iter(s.current.tids())))
            deltas = deltas_since([r, s], ts)
            result = dra_execute(parse_query(JOIN), db, deltas=deltas, ts=9)
            outcomes.append({(e.tid, e.old, e.new) for e in result.delta})
            assert result.delta == propagate(
                parse_query(JOIN), db.relation, deltas, ts=9
            )
        assert outcomes[0] == outcomes[1]


class TestCartesianTerms:
    def test_cartesian_term_uses_scan(self):
        db, r, s = build(with_indexes=True)
        q = parse_query("SELECT r.v, s.w FROM r, s WHERE r.v > 195")
        ts = db.now()
        r.insert((99, 500))
        metrics = Metrics()
        result = dra_execute(q, db, since=ts, metrics=metrics)
        # One new r row passing the filter x all 100 s rows.
        assert len(result.delta) == 100
        assert metrics[Metrics.ROWS_SCANNED] == len(s)


class TestCompositeJoinKeys:
    def test_two_edges_between_same_pair(self):
        db = Database()
        a = db.create_table(
            "a",
            [("x", AttributeType.INT), ("y", AttributeType.INT),
             ("v", AttributeType.INT)],
            indexes=[("x", "y")],
        )
        b = db.create_table(
            "b",
            [("x", AttributeType.INT), ("y", AttributeType.INT),
             ("w", AttributeType.INT)],
            indexes=[("x", "y")],
        )
        a.insert_many([(i % 3, i % 2, i) for i in range(30)])
        b.insert_many([(i % 3, i % 2, i * 2) for i in range(20)])
        q = parse_query(
            "SELECT a.v, b.w FROM a, b WHERE a.x = b.x AND a.y = b.y"
        )
        ts = db.now()
        a.insert((1, 1, 999))
        deltas = deltas_since([a, b], ts)
        result = dra_execute(q, db, deltas=deltas, ts=9)
        expected = propagate(q, db.relation, deltas, ts=9)
        assert result.delta == expected
        assert len(result.delta) > 0


class TestKeyUniqueProbe:
    """Which answer :meth:`BaseOperand.probe_batch` gives: the one-pass
    unique answer (``_unique`` built it), or the grouped answer — which
    is still read as unique when every key kept one match. Every case
    counts one index probe per key, its misses included."""

    KEYS = [(1,), (2,), (3,), (9,)]

    def probe(self, sql, rows, indexed=True, change=None):
        db = Database()
        s = db.create_table(
            "s",
            [("k", AttributeType.INT), ("w", AttributeType.INT)],
            indexes=[("k",)] if indexed else (),
        )
        tids = s.insert_many(rows)
        since = db.now()
        if change is not None:
            change(s, tids)
        prepared = prepare_cq(parse_query(sql), db)
        metrics = Metrics()
        operand = BaseOperand(
            "s",
            s,
            deltas_since([s], since).get("s"),
            prepared.compiled_local["s"],
            metrics,
            filter_spec=prepared.local_specs.get("s"),
        )
        built = []
        original = BaseOperand._unique

        def spy(*args):
            answer = original(*args)
            built.append(answer is not None)
            return answer

        BaseOperand._unique = spy
        try:
            answer, unique = operand.probe_batch((0,), list(self.KEYS))
        finally:
            BaseOperand._unique = original
        assert metrics[Metrics.INDEX_PROBES] == (len(self.KEYS) if indexed else 0)
        return answer, unique, built

    def values(self, answer, unique):
        if unique:
            return {k: v for k, (__, v) in answer.items()}
        return {k: [v for __, v in m] for k, m in answer.items()}

    def test_primary_key_answers_in_one_pass(self):
        answer, unique, built = self.probe(
            "SELECT w FROM s", [(1, 10), (2, None), (3, 30)]
        )
        assert (unique, built) == (True, [True])
        assert self.values(answer, unique) == {
            (1,): (1, 10), (2,): (2, None), (3,): (3, 30)
        }

    def test_one_comparison_filters_in_the_same_pass(self):
        answer, unique, built = self.probe(
            "SELECT w FROM s WHERE w > 15", [(1, 10), (2, 20), (3, 30)]
        )
        assert (unique, built) == (True, [True])
        assert self.values(answer, unique) == {(2,): (2, 20), (3,): (3, 30)}

    def test_null_in_the_filter_column_groups(self):
        answer, unique, built = self.probe(
            "SELECT w FROM s WHERE w > 15", [(1, 10), (2, None), (3, 30)]
        )
        assert built == [False]
        assert unique  # one match a key, once NULL dropped out
        assert self.values(answer, unique) == {(3,): (3, 30)}

    def test_longer_filter_groups(self):
        answer, unique, built = self.probe(
            "SELECT w FROM s WHERE w > 15 AND w < 35",
            [(1, 10), (2, 20), (3, 30)],
        )
        assert built == [False]
        assert unique
        assert self.values(answer, unique) == {(2,): (2, 20), (3,): (3, 30)}

    def test_two_rows_under_a_key_group(self):
        answer, unique, built = self.probe(
            "SELECT w FROM s WHERE w > 15",
            [(1, 10), (2, 20), (2, 25), (3, 30)],
        )
        assert (unique, built) == (False, [False])
        assert sorted(self.values(answer, unique)[(2,)]) == [(2, 20), (2, 25)]
        assert self.values(answer, unique)[(3,)] == [(3, 30)]

    def test_changed_operand_answers_through_its_delta(self):
        def change(s, tids):
            s.modify(tids[0], (1, 11))

        answer, unique, built = self.probe(
            "SELECT w FROM s", [(1, 10), (3, 30)], change=change
        )
        assert (unique, built) == (True, [])
        assert self.values(answer, unique) == {(1,): (1, 10), (3,): (3, 30)}

    def test_scanned_operand_groups_then_reads_unique(self):
        answer, unique, built = self.probe(
            "SELECT w FROM s", [(1, 10), (3, 30)], indexed=False
        )
        assert (unique, built) == (True, [])
        assert self.values(answer, unique) == {(1,): (1, 10), (3,): (3, 30)}
