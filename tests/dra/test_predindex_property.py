"""Property suite: PredicateIndex routing ≡ the naive relevance oracle.

The fan-out layer's whole contract is exactness: for any schema, any
set of subscription predicates (equalities, ranges, conjunctions,
disjunctions, negations), and any delta batch (inserts, deletes,
modifies, null attribute values, FLOAT columns with NaN and signed
zeros), :meth:`PredicateIndex.match_batch`
must return precisely the subscriptions the paper's Section 5.2
relevance test (:func:`repro.dra.relevance.is_relevant`) would select
by probing every subscription one at a time. Hypothesis drives the
randomization; the oracle is the spec.

The index does not stop at the match set: per matched (subscription,
alias) it returns the signed entry sides that passed. Those must be,
column for column and in order, what ``signed_columns`` filters out of
the same batch with the local predicate ``prepare_cq`` compiles — DRA's
operand seed — so ``dra_execute(seeds=...)`` equals the unseeded run.
"""

from hypothesis import given, settings, strategies as st

from repro import Database
from repro.metrics import Metrics
from repro.relational.algebra import RelationRef, SPJQuery
from repro.relational.expressions import ColumnRef, Literal
from repro.relational.predicates import (
    Comparison,
    Not,
    Or,
    TruePredicate,
    conjunction,
)
from repro.relational.schema import Schema
from repro.relational.types import AttributeType
from repro.relational import parse_query
from repro.delta.capture import deltas_since
from repro.delta.differential import DeltaEntry, DeltaRelation
from repro.dra.algorithm import dra_execute
from repro.dra.operands import signed_columns
from repro.dra.predindex import PredicateIndex
from repro.dra.prepared import prepare_cq
from repro.dra.relevance import is_relevant
from tests.dra.test_kernels_property import (
    QUERIES,
    ROWS,
    SMALL,
    apply_ops,
    build_db,
    update_ops,
)

OPS = ["=", "!=", "<", "<=", ">", ">="]


@st.composite
def schemas(draw):
    """2–5 columns, mixed INT/FLOAT/STR, named c0..c4."""
    n = draw(st.integers(min_value=2, max_value=5))
    types = [
        draw(
            st.sampled_from(
                [AttributeType.INT, AttributeType.FLOAT, AttributeType.STR]
            )
        )
        for __ in range(n)
    ]
    return Schema.of(*[(f"c{i}", t) for i, t in enumerate(types)])


# -0.0 equals 0.0, an int literal equals its float, and NaN (a fresh
# object each draw) equals nothing, itself included: the bound keys and
# the stab must agree with the compiled predicate on all three.
FLOATS = st.sampled_from([-1.0, -0.0, 0.0, 2.5, 5.0, 10.0]) | st.builds(
    float, st.just("nan")
)


def _value_strategy(column_type, literal=False):
    if column_type is AttributeType.INT:
        return st.integers(min_value=-5, max_value=15)
    if column_type is AttributeType.FLOAT:
        return FLOATS | st.sampled_from([-1, 0, 5, 10]) if literal else FLOATS
    return st.sampled_from(["a", "b", "c", "d", "e"])


@st.composite
def atoms(draw, schema):
    """One column-vs-literal comparison, literal on either side."""
    position = draw(st.integers(0, len(schema) - 1))
    attribute = schema.attributes[position]
    op = draw(st.sampled_from(OPS))
    value = draw(_value_strategy(attribute.type, literal=True))
    ref = ColumnRef(attribute.name)
    if draw(st.booleans()):
        return Comparison(op, ref, Literal(value))
    return Comparison(op, Literal(value), ref)


@st.composite
def local_predicates(draw, schema):
    """A conjunction of 0–3 conjuncts: atoms, ORs of atoms, NOTs."""
    n = draw(st.integers(min_value=0, max_value=3))
    conjuncts = []
    for __ in range(n):
        shape = draw(st.sampled_from(["atom", "atom", "atom", "or", "not"]))
        if shape == "atom":
            conjuncts.append(draw(atoms(schema)))
        elif shape == "or":
            conjuncts.append(Or(draw(atoms(schema)), draw(atoms(schema))))
        else:
            conjuncts.append(Not(draw(atoms(schema))))
    return conjunction(conjuncts)


@st.composite
def delta_batches(draw, schema):
    """A consolidated batch over one table: nulls included."""
    n = draw(st.integers(min_value=0, max_value=8))

    def row():
        return tuple(
            draw(
                st.one_of(
                    st.none(), _value_strategy(attribute.type)
                )
            )
            for attribute in schema.attributes
        )

    entries = []
    for tid in range(n):
        kind = draw(st.sampled_from(["insert", "delete", "modify"]))
        old = None if kind == "insert" else row()
        new = None if kind == "delete" else row()
        entries.append(DeltaEntry(tid, old, new, ts=tid + 1))
    return DeltaRelation(schema, entries)


def plan_selection(query, schema, deltas):
    """``{alias: signed_columns(...)}`` of the plan ``prepare_cq``
    compiles for ``query`` over one table ``t``: what an unseeded
    ``dra_execute`` would build its delta operands from."""
    db = Database()
    db.create_table("t", schema)
    prepared = prepare_cq(query, db, auto_index=False)
    out = {}
    for ref in query.relations:
        columns = signed_columns(
            deltas[ref.table],
            prepared.compiled_local[ref.alias],
            prepared.local_specs.get(ref.alias),
        )
        if columns[2]:
            out[ref.alias] = columns
    return out


def assert_routes_the_plans_selection(index, queries, schema, deltas):
    routed = index.match_batch(deltas)
    for sub_id, query in queries.items():
        assert routed.get(sub_id, {}) == plan_selection(query, schema, deltas)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_index_matches_oracle_single_table(data):
    schema = data.draw(schemas())
    n_subs = data.draw(st.integers(min_value=1, max_value=8))
    scopes = {"t": schema}

    index = PredicateIndex(Metrics())
    queries = {}
    for i in range(n_subs):
        predicate = data.draw(local_predicates(schema))
        query = SPJQuery([RelationRef("t")], predicate)
        queries[f"sub{i}"] = query
        index.add(f"sub{i}", query, scopes)

    delta = data.draw(delta_batches(schema))
    deltas = {"t": delta}

    expected = {
        sub_id
        for sub_id, query in queries.items()
        if is_relevant(query, scopes, deltas)
    }
    assert index.match_batch(deltas).keys() == expected
    for sub_id in queries:
        assert (sub_id in index.match_batch(deltas)) == (sub_id in expected)
    assert_routes_the_plans_selection(index, queries, schema, deltas)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_index_matches_oracle_self_join(data):
    """Two aliases over one table: a subscription is affected when any
    alias's local slice is touched — exactly the oracle's disjunction
    over aliases."""
    schema = data.draw(schemas())
    scopes_template = {"a": schema, "b": schema}

    index = PredicateIndex()
    queries = {}
    n_subs = data.draw(st.integers(min_value=1, max_value=5))
    join = Comparison("=", ColumnRef("c0", "a"), ColumnRef("c0", "b"))
    for i in range(n_subs):
        local_a = data.draw(local_predicates(schema))
        local_b = data.draw(local_predicates(schema))
        qualified = conjunction(
            [join, _qualify(local_a, "a"), _qualify(local_b, "b")]
        )
        query = SPJQuery(
            [RelationRef("t", "a"), RelationRef("t", "b")], qualified
        )
        queries[f"sub{i}"] = query
        index.add(f"sub{i}", query, scopes_template)

    delta = data.draw(delta_batches(schema))
    deltas = {"t": delta}
    expected = {
        sub_id
        for sub_id, query in queries.items()
        if is_relevant(query, scopes_template, deltas)
    }
    assert index.match_batch(deltas).keys() == expected
    # Each alias gets the sides *its* conjunction selects: a side that
    # matched alias a is still offered to alias b.
    assert_routes_the_plans_selection(index, queries, schema, deltas)


def _qualify_expr(expression, alias):
    if isinstance(expression, ColumnRef):
        return ColumnRef(expression.name, alias)
    return expression


def _qualify(predicate, alias):
    """Rewrite a single-relation predicate's refs to a fixed alias."""
    if isinstance(predicate, Comparison):
        return Comparison(
            predicate.op,
            _qualify_expr(predicate.left, alias),
            _qualify_expr(predicate.right, alias),
        )
    if isinstance(predicate, Or):
        return Or(*[_qualify(child, alias) for child in predicate.children])
    if isinstance(predicate, Not):
        return Not(_qualify(predicate.child, alias))
    if isinstance(predicate, TruePredicate):
        return predicate
    children = [_qualify(child, alias) for child in predicate.conjuncts()]
    return conjunction(children)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_index_stable_under_removal(data):
    """Removing a subscription removes exactly its matches — the index
    stays exact for the survivors."""
    schema = data.draw(schemas())
    scopes = {"t": schema}
    index = PredicateIndex()
    queries = {}
    for i in range(data.draw(st.integers(min_value=2, max_value=6))):
        query = SPJQuery(
            [RelationRef("t")], data.draw(local_predicates(schema))
        )
        queries[f"sub{i}"] = query
        index.add(f"sub{i}", query, scopes)

    removed = data.draw(st.sampled_from(sorted(queries)))
    assert index.remove(removed)
    del queries[removed]
    assert removed not in index

    delta = data.draw(delta_batches(schema))
    deltas = {"t": delta}
    expected = {
        sub_id
        for sub_id, query in queries.items()
        if is_relevant(query, scopes, deltas)
    }
    assert index.match_batch(deltas).keys() == expected


SCHEMA = Schema.of(("k", AttributeType.INT), ("v", AttributeType.INT))


def test_routed_columns_on_the_named_cases():
    """Self-join, NULLs, a modify whose old side passes and new side
    fails, an unsatisfiable alias and an alias with no local conjunct,
    spelled out."""
    entries = [
        DeltaEntry(0, None, (1, 5), ts=1),  # insert
        DeltaEntry(1, (1, 9), (1, 2), ts=1),  # v > 4: old passes, new fails
        DeltaEntry(2, (None, 7), None, ts=2),  # delete, NULL key
        DeltaEntry(3, (2, None), (1, None), ts=2),  # NULL in the filtered column
    ]
    deltas = {"t": DeltaRelation(SCHEMA, entries)}
    scopes = {"a": SCHEMA, "b": SCHEMA}
    queries = {
        # a: k = 1 AND v > 4; b: no local conjunct at all.
        "self": parse_query(
            "SELECT a.v AS av, b.v AS bv FROM t a, t b "
            "WHERE a.k = b.k AND a.k = 1 AND a.v > 4"
        ),
        # a can never match (empty interval); b: v > 4.
        "never": parse_query(
            "SELECT a.v AS av, b.v AS bv FROM t a, t b "
            "WHERE a.k = b.k AND a.v > 8 AND a.v < 3 AND b.v > 4"
        ),
        # Nothing in the batch satisfies either alias.
        "miss": parse_query(
            "SELECT a.v AS av, b.v AS bv FROM t a, t b "
            "WHERE a.k = b.k AND a.k = 7 AND b.k = 8"
        ),
    }
    index = PredicateIndex()
    for sub_id, query in queries.items():
        index.add(sub_id, query, scopes)
    routed = index.match_batch(deltas)
    assert routed.keys() == {"self", "never"}
    assert routed["self"] == {
        "a": ([0, 1], [(1, 5), (1, 9)], [+1, -1]),
        "b": (
            [0, 1, 1, 2, 3, 3],
            [(1, 5), (1, 9), (1, 2), (None, 7), (2, None), (1, None)],
            [+1, -1, +1, -1, -1, +1],
        ),
    }
    assert routed["never"] == {
        "b": ([0, 1, 2], [(1, 5), (1, 9), (None, 7)], [+1, -1, -1])
    }
    assert_routes_the_plans_selection(index, queries, SCHEMA, deltas)


class TestSeededExecution:
    @given(
        r_rows=ROWS,
        s_rows=ROWS,
        r_ops=update_ops(),
        s_ops=update_ops(),
        template=st.sampled_from(QUERIES),
        t=SMALL,
    )
    @settings(max_examples=120, deadline=None)
    def test_seeded_equals_unseeded_on_both_evaluators(
        self, r_rows, s_rows, r_ops, s_ops, template, t
    ):
        """``dra_execute(seeds=routed[sub])`` is ``dra_execute()``: same
        delta, same changed aliases, same terms — the routed entry is
        the operand filter's outcome, so nothing downstream can tell."""
        db, r, s = build_db(r_rows, s_rows)
        query = parse_query(template.format(t=t))
        index = PredicateIndex()
        index.add(
            "q", query, {ref.alias: db.table(ref.table).schema for ref in query.relations}
        )
        since = db.now()
        apply_ops(db, r, r_ops)
        apply_ops(db, s, s_ops)
        deltas = deltas_since([r, s], since)
        prepared = prepare_cq(query, db)
        # Unrouted means provably irrelevant: an empty seed says so.
        seeds = index.match_batch(deltas).get("q", {})
        for columnar in (False, True):
            plain = dra_execute(
                query, db, deltas=deltas, prepared=prepared, ts=99,
                columnar=columnar,
            )
            seeded = dra_execute(
                query, db, deltas=deltas, prepared=prepared, ts=99,
                columnar=columnar, seeds=seeds,
            )
            assert seeded.delta == plain.delta
            assert seeded.changed_aliases == plain.changed_aliases
            assert seeded.terms_evaluated == plain.terms_evaluated
            assert seeded.skipped == plain.skipped
