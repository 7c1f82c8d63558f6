"""Algebraic laws of the running digest (ROADMAP 7(e)).

``relation_digest`` is an XOR fold plus a count — a group homomorphism
over a result's rows — so ``apply_delta`` can maintain it from the
delta alone. The protocol's per-frame check rests on that maintenance
being *exact*, so Hypothesis drives it over random insert / delete /
modify streams on a small tid universe (plain and nested join tids, so
one tid is hit repeatedly): deltas whose old sides lie about what is
held, overwrite-inserts of live tids, delete-then-re-insert, deletes
of absent tids, composed deltas and empty deltas.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.delta.differential import DeltaEntry, DeltaRelation
from repro.net.digest import apply_delta, relation_digest
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.relational.types import AttributeType

SCHEMA = Schema.of(
    ("sym", AttributeType.STR),
    ("price", AttributeType.INT),
    # Ints are coerced to floats on store: the digest must describe the
    # row as held, not as shipped.
    ("weight", AttributeType.FLOAT),
)
TIDS = [0, 1, 2, (0, 1), (1, (2, 0)), ((0, 1), 2)]

tids = st.sampled_from(TIDS)
values = st.tuples(
    st.sampled_from("ab"),
    st.integers(-2, 2),
    st.one_of(st.integers(0, 2), st.sampled_from([0.5, 1.0, 2.5])),
)
sides = st.tuples(st.none() | values, st.none() | values).filter(any)


@st.composite
def arbitrary_deltas(draw):
    """Entries whose old sides need not match anything held."""
    chosen = draw(st.lists(tids, max_size=4, unique=True))
    entries = []
    for ts, tid in enumerate(chosen):
        old, new = draw(sides)
        entries.append(DeltaEntry(tid, old, new, ts))
    return DeltaRelation(SCHEMA, entries)


relations = st.dictionaries(tids, values, max_size=len(TIDS)).map(
    lambda rows: Relation.from_pairs(SCHEMA, rows.items())
)


def honest_delta(draw, held):
    """A delta whose old sides are exactly what ``held`` holds."""
    entries = []
    for ts, tid in enumerate(draw(st.lists(tids, max_size=4, unique=True))):
        old = held.get_or_none(tid)
        new = draw(values if old is None else st.none() | values)
        entries.append(DeltaEntry(tid, old, new, ts))
    return DeltaRelation(SCHEMA, entries)


@given(start=relations, steps=st.lists(arbitrary_deltas(), max_size=8))
def test_running_digest_is_the_full_digest_after_every_step(start, steps):
    held, running = start, relation_digest(start)
    for delta in steps:
        before = held.copy()
        try:
            expected = delta.apply_to(held)
        except KeyError:
            # A delete of a tid the copy does not hold raises as
            # apply_to does: the client's stale-delta path depends on it.
            with pytest.raises(KeyError):
                apply_delta(delta, held, running)
            continue
        out, digest = apply_delta(delta, held, running)
        assert out == expected
        assert held == before and out is not held  # fresh copy
        assert digest == relation_digest(out)
        held, running = out, digest


@given(data=st.data(), start=relations)
def test_reversed_delta_returns_to_the_starting_digest(data, start):
    d0 = relation_digest(start)
    first = honest_delta(data.draw, start)
    mid, d1 = apply_delta(first, start, d0)
    second = honest_delta(data.draw, mid)
    end, d2 = apply_delta(second, mid, d1)

    back, digest = apply_delta(second.reversed(), end, d2)
    assert (back, digest) == (mid, d1)
    back, digest = apply_delta(first.reversed(), back, digest)
    assert (back, digest) == (start, d0)


@given(data=st.data(), start=relations)
def test_composed_delta_lands_on_the_same_digest(data, start):
    d0 = relation_digest(start)
    first = honest_delta(data.draw, start)
    mid, d1 = apply_delta(first, start, d0)
    second = honest_delta(data.draw, mid)
    end, d2 = apply_delta(second, mid, d1)

    out, digest = apply_delta(first.compose(second), start, d0)
    assert (out, digest) == (end, d2)


def test_empty_delta_copies_and_keeps_the_digest():
    held = Relation.from_pairs(SCHEMA, [(0, ("a", 1, 1.0))])
    digest = relation_digest(held)
    out, after = apply_delta(DeltaRelation.empty(SCHEMA), held, digest)
    assert out == held and out is not held and after == digest
