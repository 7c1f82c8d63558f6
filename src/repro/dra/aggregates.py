"""Differential maintenance of aggregate continual queries.

The paper's epsilon examples are aggregates ("SELECT SUM(amount) FROM
CheckingAccounts", Sections 3.2 and 5.3): rather than rescanning the
base relation at every trigger check, the new aggregate is computed
from the old one plus the differential relation. This module maintains
any :class:`~repro.relational.aggregates.AggregateQuery` (global or
grouped) that way: DRA produces the SPJ core's result delta, and the
delta's old sides are removed from / new sides added to per-group
accumulators.

SUM/COUNT/AVG updates are O(|Δ|); MIN/MAX may rescan their distinct
value multiset when the extremum is deleted (the classic
non-distributive case — see the E5 benchmark).
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.errors import ReproError
from repro.metrics import Metrics
from repro.relational.aggregates import Accumulator, AggregateQuery
from repro.relational.evaluate import evaluate_spj, spj_output_schema
from repro.relational.relation import Relation, Values
from repro.storage.database import Database
from repro.storage.timestamps import Timestamp
from repro.delta.differential import DeltaEntry, DeltaRelation
from repro.dra.algorithm import dra_execute

GroupKey = Tuple[Any, ...]


class DifferentialAggregate:
    """Incrementally maintained state of one aggregate query."""

    def __init__(self, query: AggregateQuery, db: Database):
        self.query = query
        self.db = db
        scopes = {
            ref.alias: db.table(ref.table).schema
            for ref in query.core.relations
        }
        self.core_schema = spj_output_schema(query.core, scopes)
        self.schema = query.output_schema(self.core_schema)
        self._group_positions = [
            self.core_schema.position(ref.name) for ref in query.group_by
        ]
        self._arg_positions: List[Optional[int]] = [
            self.core_schema.position(spec.ref.name) if spec.ref is not None else None
            for spec in query.aggregates
        ]
        self._groups: Dict[GroupKey, List[Accumulator]] = {}
        self._row_counts: Dict[GroupKey, int] = {}
        self.result = Relation(self.schema)
        self._initialized = False
        if query.having is not None:
            from repro.relational.binding import SingleRowBinder

            self._having = query.having.compile(SingleRowBinder(self.schema))
        else:
            self._having = None

    # -- lifecycle ---------------------------------------------------------

    def initialize(self, metrics: Optional[Metrics] = None) -> Relation:
        """First (complete) evaluation; subsequent updates are differential."""
        core_rows = evaluate_spj(self.query.core, self.db.relation, metrics)
        self._groups.clear()
        self._row_counts.clear()
        for row in core_rows:
            self._add_row(row.values, self._key_of(row.values))
        self._initialized = True
        self.result = self._materialize()
        return self.result.copy()

    def update(
        self,
        deltas: Mapping[str, DeltaRelation],
        ts: Timestamp,
        metrics: Optional[Metrics] = None,
        prepared=None,
        columnar: bool = True,
    ) -> DeltaRelation:
        """Fold the base-table deltas in; returns the aggregate delta.

        ``prepared`` is an optional pre-compiled plan for the SPJ core
        (see :func:`repro.dra.prepared.prepare_cq`) — the manager hands
        its cached one through so the core's differential never
        replans. The core differential runs the kernels (DESIGN.md
        §11); ``columnar=False`` is the row-interpreter reference.
        """
        if not self._initialized:
            raise ReproError("call initialize() before update()")
        core_delta = dra_execute(
            self.query.core,
            self.db,
            deltas=deltas,
            ts=ts,
            metrics=metrics,
            prepared=prepared,
            columnar=columnar,
        ).delta

        # One pass: a group's visible row is snapshotted at its first
        # touch, before the side that touches it folds in, so it is the
        # row as of the previous refresh whatever the batch does next.
        touched: Dict[GroupKey, Optional[Values]] = {}
        remove, add = self._remove_row, self._add_row
        for entry in core_delta:
            for values, fold in ((entry.old, remove), (entry.new, add)):
                if values is not None:
                    key = self._key_of(values)
                    if key not in touched:
                        touched[key] = self._visible_row(key)
                    fold(values, key)

        entries = []
        for key, old_values in touched.items():
            new_values = self._visible_row(key)
            if old_values == new_values:
                continue
            entries.append(DeltaEntry(key, old_values, new_values, ts))
            if new_values is None:
                self.result.remove(key)
            else:
                self.result.add(key, new_values)
        return DeltaRelation(self.schema, entries)

    def current(self) -> Relation:
        """The maintained aggregate result (copy)."""
        return self.result.copy()

    # -- internals -----------------------------------------------------------

    def _key_of(self, core_values: Values) -> GroupKey:
        return tuple(map(core_values.__getitem__, self._group_positions))

    def _visible_row(self, key: GroupKey) -> Optional[Values]:
        """The group's output row after the HAVING filter (None if the
        group is absent or filtered out)."""
        row = self._group_row(key)
        if row is None:
            return None
        if self._having is not None and not self._having(row):
            return None
        return row

    def _group_row(self, key: GroupKey) -> Optional[Values]:
        """The current aggregate output row for ``key`` (None if absent).

        A grouped query has no row for an empty group; a global query
        always has its single row (with empty-input aggregate values).
        """
        accs = self._groups.get(key)
        if accs is None or (self._row_counts.get(key, 0) == 0 and self.query.group_by):
            if self.query.group_by:
                return None
            accs = accs or [s.make_accumulator() for s in self.query.aggregates]
        return key + tuple(acc.result() for acc in accs)

    def _add_row(self, core_values: Values, key: GroupKey) -> None:
        accs = self._groups.get(key)
        if accs is None:
            accs = [spec.make_accumulator() for spec in self.query.aggregates]
            self._groups[key] = accs
            self._row_counts[key] = 0
        for acc, pos in zip(accs, self._arg_positions):
            acc.add(core_values[pos] if pos is not None else None)
        self._row_counts[key] += 1

    def _remove_row(self, core_values: Values, key: GroupKey) -> None:
        accs = self._groups.get(key)
        if accs is None or self._row_counts.get(key, 0) <= 0:
            raise ReproError(
                f"aggregate state underflow for group {key!r}: removal of a "
                "row that was never added (delta/initialization mismatch)"
            )
        for acc, pos in zip(accs, self._arg_positions):
            acc.remove(core_values[pos] if pos is not None else None)
        self._row_counts[key] -= 1
        if self._row_counts[key] == 0 and self.query.group_by:
            del self._groups[key]
            del self._row_counts[key]

    def _materialize(self) -> Relation:
        out = Relation(self.schema)
        if not self.query.group_by:
            row = self._visible_row(())
            if row is not None:
                out.add((), row)
            return out
        for key in self._groups:
            row = self._visible_row(key)
            if row is not None:
                out.add(key, row)
        return out
