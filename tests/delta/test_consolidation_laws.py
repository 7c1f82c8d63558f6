"""Consolidation and compose as an algebra over differential relations.

``DeltaRelation.from_records`` folds a log window into net effects in one
pass; ``compose`` folds two consecutive deltas. These properties pin the
two to each other and to ``apply_to``: consolidating a history is the
left fold of ``compose`` over its records, ``compose`` is associative,
a delta composed with its reverse is empty, and applying a composition
is applying its parts in turn. A history whose chain is broken raises
exactly as the three-dictionary consolidation below (the reference) did.
"""

from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DeltaConsolidationError
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.relational.types import AttributeType
from repro.delta.diff import diff
from repro.delta.differential import DeltaEntry, DeltaRelation
from repro.storage.update_log import UpdateKind, UpdateRecord

SCHEMA = Schema.of(("v", AttributeType.INT))
KINDS = [UpdateKind.INSERT, UpdateKind.DELETE, UpdateKind.MODIFY]
VALUES = st.one_of(st.none(), st.integers(0, 2).map(lambda v: (v,)))


def reference_from_records(records):
    """Consolidation as three dictionaries and a final pass: the entries
    in first-sighting order, or the error of the first broken link."""
    first_old, last_new, last_ts = {}, {}, {}
    for record in records:
        tid = record.tid
        if tid not in first_old:
            first_old[tid] = record.old
            current = record.old
        else:
            current = last_new[tid]
        if record.kind is UpdateKind.INSERT:
            if current is not None:
                raise DeltaConsolidationError(
                    f"insert of live tid {tid} at ts={record.ts}"
                )
        else:
            if current is None:
                raise DeltaConsolidationError(
                    f"{record.kind.value} of dead tid {tid} at ts={record.ts}"
                )
            if record.old != current:
                raise DeltaConsolidationError(
                    f"old value mismatch for tid {tid} at ts={record.ts}: "
                    f"log says {record.old}, chain says {current}"
                )
        last_new[tid] = record.new
        last_ts[tid] = record.ts
    return [
        DeltaEntry(tid, old, last_new[tid], last_ts[tid])
        for tid, old in first_old.items()
        if old != last_new[tid]
    ]


@st.composite
def histories(draw, max_records=14):
    """A valid log window over tids 0..5: the state at its start, and
    records in commit order. Values come from three, so modifies back
    to a tid's original value (net no-ops) are common."""
    live = draw(st.dictionaries(st.integers(0, 5), st.integers(0, 2), max_size=5))
    start = dict(live)
    records = []
    ts = 1
    for __ in range(draw(st.integers(0, max_records))):
        tid = draw(st.integers(0, 5))
        ts += draw(st.integers(0, 1))
        if tid not in live:
            value = draw(st.integers(0, 2))
            records.append(UpdateRecord(UpdateKind.INSERT, tid, None, (value,), ts, 1))
            live[tid] = value
        elif draw(st.booleans()):
            records.append(UpdateRecord(UpdateKind.DELETE, tid, (live.pop(tid),), None, ts, 1))
        else:
            value = draw(st.integers(0, 2))
            records.append(
                UpdateRecord(UpdateKind.MODIFY, tid, (live[tid],), (value,), ts, 1)
            )
            live[tid] = value
    return start, records


def one_entry(record):
    """A single record's delta (a modify to the same value included)."""
    return DeltaRelation(
        SCHEMA, [DeltaEntry(record.tid, record.old, record.new, record.ts)]
    )


def net(delta):
    """A delta's net effect, its timestamps aside."""
    return {(e.tid, e.old, e.new) for e in delta}


def relation(state):
    return Relation.from_pairs(SCHEMA, [(tid, (v,)) for tid, v in state.items()])


@given(histories())
@settings(max_examples=300, deadline=None)
def test_consolidation_is_the_fold_of_compose(history):
    __, records = history
    folded = reduce(
        DeltaRelation.compose, map(one_entry, records), DeltaRelation(SCHEMA)
    )
    # compose cancels a pair that nets out; a lone modify to the same
    # value has no pair, so the fold's net effect drops it here.
    net = DeltaRelation(SCHEMA, [e for e in folded if e.old != e.new])
    assert DeltaRelation.from_records(SCHEMA, records) == net


@given(histories())
@settings(max_examples=300, deadline=None)
def test_consolidation_applies_the_history(history):
    start, records = history
    end = dict(start)
    for record in records:
        if record.new is None:
            del end[record.tid]
        else:
            end[record.tid] = record.new[0]
    delta = DeltaRelation.from_records(SCHEMA, records)
    assert delta.apply_to(relation(start)) == relation(end)
    assert all(entry.old != entry.new for entry in delta)


RECORDS = st.lists(
    st.builds(
        UpdateRecord,
        st.sampled_from(KINDS),
        st.integers(0, 3),
        VALUES,
        VALUES,
        st.integers(1, 4),
        st.just(1),
    ),
    max_size=8,
)


@given(RECORDS)
@settings(max_examples=400, deadline=None)
def test_any_history_consolidates_or_raises_as_the_reference(records):
    """Arbitrary records, mostly broken chains: the same entries in the
    same order, or the same error at the same record."""
    try:
        expected = reference_from_records(records)
    except DeltaConsolidationError as error:
        with pytest.raises(DeltaConsolidationError) as raised:
            DeltaRelation.from_records(SCHEMA, records)
        assert str(raised.value) == str(error)
        return
    assert list(DeltaRelation.from_records(SCHEMA, records)) == expected


@given(histories())
@settings(max_examples=200, deadline=None)
def test_a_valid_history_matches_the_reference_in_order(history):
    __, records = history
    expected = reference_from_records(records)
    assert list(DeltaRelation.from_records(SCHEMA, records)) == expected


STATES = st.dictionaries(st.integers(0, 7), st.integers(0, 2), max_size=6)


@given(STATES, STATES, STATES, STATES)
@settings(max_examples=200, deadline=None)
def test_compose_is_associative(a, b, c, d):
    """On net effects: an entry's ``ts`` is its latest change only under
    a left fold, since a pair that cancels leaves no entry to carry one
    (delete then re-insert then delete: ``(x∘y)∘z`` keeps ``z``'s ts,
    ``x∘(y∘z)`` keeps ``x``'s)."""
    ra, rb, rc, rd = map(relation, (a, b, c, d))
    x, y, z = diff(ra, rb, 1), diff(rb, rc, 2), diff(rc, rd, 3)
    assert net(x.compose(y).compose(z)) == net(x.compose(y.compose(z)))


@given(STATES, STATES, STATES)
@settings(max_examples=200, deadline=None)
def test_applying_a_composition_applies_its_parts(a, b, c):
    ra, rb, rc = map(relation, (a, b, c))
    x, y = diff(ra, rb, 1), diff(rb, rc, 2)
    assert x.compose(y).apply_to(ra) == y.apply_to(x.apply_to(ra))


@given(STATES, STATES)
@settings(max_examples=200, deadline=None)
def test_a_delta_composed_with_its_reverse_is_empty(a, b):
    x = diff(relation(a), relation(b), 1)
    assert x.compose(x.reversed()).is_empty()


@given(histories(), histories())
@settings(max_examples=200, deadline=None)
def test_windows_of_one_history_compose_to_the_whole(first, second):
    """Consolidating a history in two windows and composing them is
    consolidating it whole, when the second window continues the first
    (net effects: a tid the second window only modifies to the same
    value keeps its first-window ts in the composition)."""
    start, records = first
    state = dict(start)
    for record in records:
        if record.new is None:
            del state[record.tid]
        else:
            state[record.tid] = record.new[0]
    __, tail = second
    # Re-anchor the second history's records on the first's end state.
    live = dict(state)
    later = []
    for record in tail:
        tid = record.tid
        if tid in live:
            old = (live[tid],)
            if record.new is None:
                del live[tid]
                later.append(UpdateRecord(UpdateKind.DELETE, tid, old, None, 99, 1))
            else:
                live[tid] = record.new[0]
                later.append(UpdateRecord(UpdateKind.MODIFY, tid, old, record.new, 99, 1))
        elif record.new is not None:
            live[tid] = record.new[0]
            later.append(UpdateRecord(UpdateKind.INSERT, tid, None, record.new, 99, 1))
    whole = DeltaRelation.from_records(SCHEMA, records + later)
    halves = DeltaRelation.from_records(SCHEMA, records).compose(
        DeltaRelation.from_records(SCHEMA, later)
    )
    assert net(whole) == net(halves)
