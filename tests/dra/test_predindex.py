"""Directed edge cases for the predicate-index fan-out layer.

The property suite (test_predindex_property.py) holds the index equal
to the relevance oracle over random inputs; these tests pin the named
edge cases from the fan-out design: overlapping intervals, null and
absent attribute values, a predicate column dropped by a schema
change (index invalidation), unsatisfiable conjunctions, and the
empty-batch no-op path — plus the probe-count shape the bench gates.
"""

import pytest

from repro.metrics import Metrics
from repro.relational import parse_query
from repro.relational.algebra import RelationRef, SPJQuery
from repro.relational.expressions import ColumnRef, Literal
from repro.relational.predicates import And, Comparison, Not, eq, gt, le, lt
from repro.relational.schema import Schema
from repro.relational.types import AttributeType
from repro.delta.differential import DeltaEntry, DeltaRelation
from repro.dra.predindex import IntervalIndex, PredicateIndex

SCHEMA = Schema.of(("k", AttributeType.INT), ("v", AttributeType.INT))
SCOPES = {"t": SCHEMA}


def sub(predicate):
    return SPJQuery([RelationRef("t")], predicate)


def batch(*rows, schema=SCHEMA):
    """One insert entry per row."""
    entries = [
        DeltaEntry(tid, None, row, ts=tid + 1) for tid, row in enumerate(rows)
    ]
    return {"t": DeltaRelation(schema, entries)}


def test_overlapping_intervals_route_exactly():
    index = PredicateIndex()
    index.add("mid", sub(And(le(Literal(10), ColumnRef("v")), le(ColumnRef("v"), Literal(20)))), SCOPES)
    index.add("high", sub(And(le(Literal(15), ColumnRef("v")), le(ColumnRef("v"), Literal(25)))), SCOPES)
    index.add("open", sub(le(Literal(18), ColumnRef("v"))), SCOPES)

    assert index.match_batch(batch((1, 12))).keys() == {"mid"}
    assert index.match_batch(batch((1, 17))).keys() == {"mid", "high"}
    assert index.match_batch(batch((1, 19))).keys() == {"mid", "high", "open"}
    assert index.match_batch(batch((1, 30))).keys() == {"open"}
    assert index.match_batch(batch((1, 9))).keys() == set()


def test_interval_boundary_inclusivity():
    index = PredicateIndex()
    index.add("closed", sub(And(le(Literal(5), ColumnRef("v")), le(ColumnRef("v"), Literal(7)))), SCOPES)
    index.add("open", sub(And(lt(Literal(5), ColumnRef("v")), lt(ColumnRef("v"), Literal(7)))), SCOPES)

    assert index.match_batch(batch((1, 5))).keys() == {"closed"}
    assert index.match_batch(batch((1, 6))).keys() == {"closed", "open"}
    assert index.match_batch(batch((1, 7))).keys() == {"closed"}


def test_unsatisfiable_interval_never_matches():
    index = PredicateIndex()
    index.add("never", sub(And(gt(ColumnRef("v"), Literal(10)), lt(ColumnRef("v"), Literal(5)))), SCOPES)
    index.add("point_excl", sub(And(gt(ColumnRef("v"), Literal(5)), lt(ColumnRef("v"), Literal(5)))), SCOPES)
    for v in (0, 5, 7, 10, 12):
        assert index.match_batch(batch((1, v))).keys() == set()


def test_null_attributes_comparisons_reject_not_accepts():
    """None-is-False semantics: a comparison never matches a null, so
    Not(comparison) always does — the scan bucket preserves that."""
    index = PredicateIndex()
    index.add("eq5", sub(eq(ColumnRef("v"), Literal(5))), SCOPES)
    index.add("lt9", sub(lt(ColumnRef("v"), Literal(9))), SCOPES)
    index.add("not5", sub(Not(eq(ColumnRef("v"), Literal(5)))), SCOPES)

    assert index.match_batch(batch((1, None))).keys() == {"not5"}
    assert index.match_batch(batch((1, 5))).keys() == {"eq5", "lt9"}
    assert index.match_batch(batch((1, 6))).keys() == {"lt9", "not5"}


def test_modify_matches_on_either_side():
    """An update leaving the relevant slice is still relevant (its old
    side was inside); one entering it matches on the new side."""
    index = PredicateIndex()
    index.add("hot", sub(eq(ColumnRef("k"), Literal(1))), SCOPES)
    leaving = {"t": DeltaRelation(SCHEMA, [DeltaEntry(0, (1, 10), (2, 10), 1)])}
    entering = {"t": DeltaRelation(SCHEMA, [DeltaEntry(0, (3, 10), (1, 10), 1)])}
    outside = {"t": DeltaRelation(SCHEMA, [DeltaEntry(0, (3, 10), (4, 10), 1)])}
    assert index.match_batch(leaving).keys() == {"hot"}
    assert index.match_batch(entering).keys() == {"hot"}
    assert index.match_batch(outside).keys() == set()


def test_empty_batch_routes_nothing_and_probes_nothing():
    metrics = Metrics()
    index = PredicateIndex(metrics)
    for i in range(50):
        index.add(f"s{i}", sub(eq(ColumnRef("k"), Literal(i))), SCOPES)

    assert index.match_batch({}).keys() == set()
    assert index.match_batch({"t": DeltaRelation(SCHEMA, [])}).keys() == set()
    assert metrics[Metrics.PREDINDEX_PROBES] == 0
    assert metrics[Metrics.PREDINDEX_MATCHES] == 0


def test_equality_probe_count_independent_of_subscriber_count():
    """The sublinearity claim at its core: 1000 equality subscriptions,
    one delta row → probes bounded by the bucket size, not the
    subscriber count."""
    metrics = Metrics()
    index = PredicateIndex(metrics)
    for i in range(1000):
        index.add(f"s{i}", sub(eq(ColumnRef("k"), Literal(i))), SCOPES)

    matched = index.match_batch(batch((7, 0)))
    assert matched.keys() == {"s7"}
    assert metrics[Metrics.PREDINDEX_PROBES] <= 2  # one per entry side
    assert metrics[Metrics.PREDINDEX_MATCHES] == 1


def test_dropped_column_quarantines_subscription(db):
    """A schema change that removes a predicate's column invalidates
    the signature; the subscription is quarantined (routed nowhere,
    reported stale) while untouched subscriptions keep routing."""
    db.create_table("t", [("k", AttributeType.INT), ("v", AttributeType.INT)])
    metrics = Metrics()
    index = PredicateIndex(metrics)
    scopes = {"t": db.table("t").schema}
    index.add("on_v", sub(gt(ColumnRef("v"), Literal(5))), scopes)
    index.add("on_k", sub(eq(ColumnRef("k"), Literal(1))), scopes)

    db.drop_table("t")
    db.create_table("t", [("k", AttributeType.INT)])
    new_schema = db.table("t").schema
    dropped = {
        "t": DeltaRelation(new_schema, [DeltaEntry(0, None, (1,), 1)])
    }
    assert index.match_batch(dropped).keys() == {"on_k"}
    assert index.stale() == {"on_v"}
    assert metrics[Metrics.PREDINDEX_INVALIDATIONS] >= 1
    assert "on_v" not in index.match_batch(dropped)
    # Re-adding against the live schema clears the quarantine.
    index.add("on_v", sub(eq(ColumnRef("k"), Literal(1))), {"t": new_schema})
    assert index.stale() == set()
    assert index.match_batch(dropped).keys() == {"on_k", "on_v"}


def test_surviving_columns_recompile_after_schema_change(db):
    """A recreated table whose columns still satisfy the predicate
    recompiles in place: same routing, new schema object."""
    db.create_table("t", [("k", AttributeType.INT), ("v", AttributeType.INT)])
    index = PredicateIndex()
    index.add("hot", sub(eq(ColumnRef("k"), Literal(3))), {"t": db.table("t").schema})

    db.drop_table("t")
    db.create_table("t", [("v", AttributeType.INT), ("k", AttributeType.INT)])
    new_schema = db.table("t").schema
    # k moved from position 0 to 1: a stale signature would look at v.
    moved = {"t": DeltaRelation(new_schema, [DeltaEntry(0, None, (99, 3), 1)])}
    assert index.match_batch(moved).keys() == {"hot"}
    miss = {"t": DeltaRelation(new_schema, [DeltaEntry(0, None, (3, 99), 1)])}
    assert index.match_batch(miss).keys() == set()
    assert index.stale() == set()


def test_parsed_sql_round_trips_through_index():
    """Predicates that arrive via the SQL front door (the manager and
    server path) index identically to hand-built ASTs."""
    index = PredicateIndex()
    query = parse_query("SELECT k, v FROM t WHERE k = 4 AND v > 10")
    index.add("q", query, SCOPES)
    assert index.match_batch(batch((4, 11))).keys() == {"q"}
    assert index.match_batch(batch((4, 10))).keys() == set()
    assert index.match_batch(batch((5, 11))).keys() == set()


def test_remove_drops_all_structures():
    index = PredicateIndex()
    index.add("a", sub(eq(ColumnRef("k"), Literal(1))), SCOPES)
    index.add("b", sub(gt(ColumnRef("v"), Literal(1))), SCOPES)
    index.add("c", sub(Not(eq(ColumnRef("v"), Literal(1)))), SCOPES)
    assert len(index) == 3
    for sub_id in ("a", "b", "c"):
        assert index.remove(sub_id)
        assert not index.remove(sub_id)
    assert len(index) == 0
    assert index.tables() == []
    assert index.match_batch(batch((1, 2))).keys() == set()


def test_interval_index_stab_is_exact():
    index = IntervalIndex()
    index.add(("a", "t"), (5, 0), (10, 1))   # [5, 10]
    index.add(("b", "t"), (7, 1), None)      # (7, inf)
    index.add(("c", "t"), None, (6, 0))      # (-inf, 6)
    matches, inspected = index.stab(6)
    assert {key for key in matches} == {("a", "t")}
    assert inspected >= 1
    matches, __ = index.stab(5)
    assert {key for key in matches} == {("a", "t"), ("c", "t")}
    matches, __ = index.stab(8)
    assert {key for key in matches} == {("a", "t"), ("b", "t")}
    matches, __ = index.stab(11)
    assert {key for key in matches} == {("b", "t")}
    index.remove(("a", "t"))
    matches, __ = index.stab(8)
    assert {key for key in matches} == {("b", "t")}
