"""The Propagate operator: complete re-evaluation as a specification.

``Propagate(Q(R...); [R_i, ΔR_i]...)`` (paper Section 4.2) describes
how a query result changes when operand relations change, defined by
*complete re-evaluation before and after* followed by :func:`Diff`.
The paper introduces it precisely to prove DRA functionally equivalent
to recompute-from-scratch; here it is both the correctness oracle for
the test suite and the baseline the benchmarks compare DRA against.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Union

from repro.metrics import Metrics
from repro.relational.aggregates import AggregateQuery, evaluate_aggregate
from repro.relational.algebra import SPJQuery
from repro.relational.evaluate import Resolver, evaluate_spj
from repro.relational.relation import Relation
from repro.storage.database import Database
from repro.storage.timestamps import Timestamp
from repro.delta.capture import deltas_since
from repro.delta.differential import DeltaRelation
from repro.delta.diff import diff
from repro.delta.views import OldStateView

Query = Union[SPJQuery, AggregateQuery]


def _evaluate(query: Query, resolver: Resolver, metrics: Optional[Metrics]) -> Relation:
    if isinstance(query, AggregateQuery):
        return evaluate_aggregate(query, resolver, metrics)
    return evaluate_spj(query, resolver, metrics)


def old_resolver(
    new_resolver: Resolver, deltas: Mapping[str, DeltaRelation]
) -> Resolver:
    """A resolver serving each table's *old* state (current ⊖ delta)."""

    cache: Dict[str, Relation] = {}

    def resolve(name: str) -> Relation:
        if name in cache:
            return cache[name]
        current = new_resolver(name)
        delta = deltas.get(name)
        if delta is None or delta.is_empty():
            relation = current
        else:
            relation = OldStateView(current, delta).materialize()
        cache[name] = relation
        return relation

    return resolve


def evaluate_as_of(
    query: Query,
    db: Database,
    ts: Timestamp,
    metrics: Optional[Metrics] = None,
) -> Relation:
    """Q over the database state at ``ts``: the current state with the
    window ``(ts, now]`` unapplied — the state a refresh whose window
    starts at ``ts`` starts from (Section 4.2), and what a CQ installed
    as of ``ts`` retains. No log is read when ``ts`` is now; a ``ts``
    that garbage collection has passed raises the log's ``ValueError``.
    """
    resolver = db.relation
    if ts != db.now():
        core = query.core if isinstance(query, AggregateQuery) else query
        tables = [db.table(name) for name in dict.fromkeys(core.table_names)]
        resolver = old_resolver(resolver, deltas_since(tables, ts))
    return _evaluate(query, resolver, metrics)


def propagate(
    query: Query,
    new_resolver: Resolver,
    deltas: Mapping[str, DeltaRelation],
    ts: Timestamp = 0,
    metrics: Optional[Metrics] = None,
) -> DeltaRelation:
    """Diff of complete re-evaluations before and after the updates.

    ``new_resolver`` serves current table contents; ``deltas`` maps
    table names to the consolidated changes since the previous
    execution. Returns the differential result ΔQ with entries stamped
    ``ts``.
    """
    before = _evaluate(query, old_resolver(new_resolver, deltas), metrics)
    after = _evaluate(query, new_resolver, metrics)
    return diff(before, after, ts)


def propagate_between(
    query: Query,
    before_resolver: Resolver,
    after_resolver: Resolver,
    ts: Timestamp = 0,
    metrics: Optional[Metrics] = None,
) -> DeltaRelation:
    """Propagate when both database states are directly available."""
    before = _evaluate(query, before_resolver, metrics)
    after = _evaluate(query, after_resolver, metrics)
    return diff(before, after, ts)
