"""The in-place apply: a view's result is the integral of its deltas,
moved where it stands.

``DeltaRelation.apply_in_place`` (and the digest fold over it,
``repro.net.digest.apply_delta``) is what every tier's view step runs,
so it must be ``apply_to`` without the copy: the same state, the same
row validation, and on an entry that cannot apply the same error with
nothing written. Applying a composition in place is applying its parts
in turn, and a holder a step left behind is caught up by that step
undone and its own window's delta composed.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SchemaError
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.relational.types import AttributeType
from repro.delta.diff import diff
from repro.delta.differential import DeltaEntry, DeltaRelation
from repro.net.digest import apply_delta, relation_digest

SCHEMA = Schema.of(("v", AttributeType.INT), ("w", AttributeType.FLOAT))
#: A FLOAT column takes an int, which ``Relation.add`` stores as a float.
NUMBERS = st.one_of(st.integers(0, 2), st.integers(0, 4).map(lambda i: i / 2))
STATES = st.dictionaries(
    st.integers(0, 9), st.tuples(st.integers(0, 3), NUMBERS), max_size=8
)


def relation(state):
    return Relation.from_pairs(SCHEMA, state.items())


def moved(delta, state):
    """``state`` as a relation, moved in place by ``delta``."""
    out = relation(state)
    rows = out.rows_map()
    delta.apply_in_place(out)
    assert out.rows_map() is rows  # (the same relation, not a new one)
    return out


@given(STATES, STATES)
@settings(max_examples=300, deadline=None)
def test_in_place_equals_apply_to(a, b):
    """The same state, in the same row order."""
    x = diff(relation(a), relation(b), 1)
    out = moved(x, a)
    assert out == x.apply_to(relation(a)) == relation(b)
    assert list(out.rows_map().items()) == list(
        x.apply_to(relation(a)).rows_map().items()
    )


@given(STATES, STATES)
@settings(max_examples=200, deadline=None)
def test_the_digest_folds_over_the_moved_relation(a, b):
    x = diff(relation(a), relation(b), 1)
    held = relation(a)
    digest = apply_delta(x, held, relation_digest(held))
    assert held == relation(b)
    assert digest == relation_digest(relation(b))


@given(STATES, STATES, STATES)
@settings(max_examples=200, deadline=None)
def test_applying_a_composition_in_place_applies_its_parts(a, b, c):
    """apply(compose(x, y)) = apply(y) ∘ apply(x)."""
    x, y = diff(relation(a), relation(b), 1), diff(relation(b), relation(c), 2)
    stepped = moved(x, a)
    y.apply_in_place(stepped)
    assert moved(x.compose(y), a) == stepped == relation(c)


@given(STATES, STATES, STATES)
@settings(max_examples=200, deadline=None)
def test_a_step_undone_and_a_window_composed_catch_a_holder_up(a, b, c):
    """The view stepped ``a → b`` by ``x`` while a holder still stood
    at ``a``; the holder's window ``a → c`` is ``y``. Moving the view
    from ``b`` by ``compose(reversed(x), y)`` lands where ``y`` takes
    the holder."""
    x, y = diff(relation(a), relation(b), 1), diff(relation(a), relation(c), 2)
    assert moved(x.reversed().compose(y), b) == relation(c)


ENTRIES = st.lists(
    st.tuples(
        st.integers(0, 9),
        st.one_of(st.none(), st.tuples(st.integers(0, 3), NUMBERS)),
    ),
    max_size=8,
    unique_by=lambda pair: pair[0],
)


def unchecked(pairs, bad_at=None):
    """A delta of deletes (``None``) and upserts over tids, with a row
    the schema rejects at position ``bad_at``; entries are adopted as
    given (a delta's old sides are not what an apply checks)."""
    entries = {}
    for i, (tid, new) in enumerate(pairs):
        if i == bad_at:
            new = ("not an int", 0.0)
        entries[tid] = DeltaEntry(tid, None if new else (0, 0.0), new, 1)
    return DeltaRelation.from_consolidated(SCHEMA, entries)


def raised(apply, target):
    with pytest.raises((KeyError, SchemaError)) as error:
        apply(target)
    return type(error.value), str(error.value)


@given(STATES, ENTRIES, st.data())
@settings(max_examples=300, deadline=None)
def test_a_failed_apply_writes_nothing_and_raises_as_apply_to(state, pairs, data):
    """A delete of a tid the relation lacks, or a row its schema
    rejects, anywhere in the delta: ``apply_to`` raises on a copy;
    in place, the same error, and the relation is as it was."""
    bad_at = data.draw(st.one_of(st.none(), st.integers(0, max(len(pairs) - 1, 0))))
    delta = unchecked(pairs, bad_at if pairs else None)
    try:
        expected = delta.apply_to(relation(state))
    except (KeyError, SchemaError):
        expected = raised(delta.apply_to, relation(state))
        held = relation(state)
        before = dict(held.rows_map())
        assert raised(delta.apply_in_place, held) == expected
        assert held.rows_map() == before
        digest = relation_digest(held)
        assert raised(lambda r: apply_delta(delta, r, digest), held) == expected
        assert held.rows_map() == before
        return
    out = moved(delta, state)
    assert out == expected
    # Every applied row validated: an int in the FLOAT column is stored
    # as the float ``Relation.add`` makes of it.
    assert all(type(values[1]) is float for values in out.rows_map().values())


def test_a_delete_of_an_absent_tid_is_a_key_error_with_nothing_written():
    held = relation({1: (1, 1.0), 2: (2, 2.0)})
    delta = DeltaRelation(
        SCHEMA,
        [
            DeltaEntry(1, (1, 1.0), (5, 5.0), 1),  # applies
            DeltaEntry(3, (3, 3.0), None, 1),  # a tid not held
        ],
    )
    with pytest.raises(KeyError) as error:
        delta.apply_in_place(held)
    assert error.value.args == (3,)
    assert held == relation({1: (1, 1.0), 2: (2, 2.0)})
