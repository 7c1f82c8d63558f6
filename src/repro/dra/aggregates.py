"""Differential maintenance of aggregate continual queries.

The paper's epsilon examples are aggregates ("SELECT SUM(amount) FROM
CheckingAccounts", Sections 3.2 and 5.3): rather than rescanning the
base relation at every trigger check, the new aggregate is computed
from the old one plus the differential relation. This module maintains
any :class:`~repro.relational.aggregates.AggregateQuery` (global or
grouped) that way: DRA evaluates the SPJ core, narrowed to the group-by
and argument columns, to its signed sum — every row leaving the core's
result at weight −1, every row entering it at +1 — and each touched
group folds its rows in with one batch ``fold(values, weights)`` per
accumulator. SUM and COUNT are linear in the signed sum, so the core's
row delta is never assembled. A modify that travelled the core's one
term as a pair row (DESIGN.md §11) arrives as its old and new core
rows; it folds as old at −1 and new at +1 without passing through the
signed sum.

SUM/COUNT/AVG updates are O(|Δ|); MIN/MAX may rescan their distinct
value multiset when the extremum is deleted (the classic
non-distributive case — see the E5 benchmark).
"""

from __future__ import annotations

import operator
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.metrics import Metrics
from repro.relational.aggregates import Accumulator, AggregateQuery
from repro.relational.evaluate import spj_output_schema
from repro.relational.relation import Relation, Values
from repro.storage.database import Database
from repro.storage.timestamps import Timestamp
from repro.delta.differential import DeltaEntry, DeltaRelation
from repro.dra.algorithm import dra_execute, dra_initial
from repro.dra.assembly import WeightInvariantError

GroupKey = Tuple[Any, ...]

_UNIT = frozenset((1, -1))
_WRONG_PLAN = (
    "the prepared plan is not for this aggregate's core; "
    "prepare DifferentialAggregate.core"
)
_TID = operator.itemgetter(0)
_VALUES = operator.itemgetter(1)


class DifferentialAggregate:
    """Incrementally maintained state of one aggregate query."""

    def __init__(self, query: AggregateQuery, db: Database):
        self.query = query
        self.db = db
        #: The SPJ core this state evaluates: the query's core narrowed
        #: to its group-by and argument columns (group key leading).
        self.core = query.narrowed_core()
        scopes = {
            ref.alias: db.table(ref.table).schema for ref in self.core.relations
        }
        self.schema = query.output_schema(spj_output_schema(self.core, scopes))
        self._key_of = operator.itemgetter(slice(0, len(query.group_by)))
        self._arg_positions = query.argument_positions()
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

    def initialize(
        self,
        metrics: Optional[Metrics] = None,
        prepared=None,
        ts: Optional[Timestamp] = None,
    ) -> Relation:
        """First (complete) evaluation, as of ``ts`` (default now): the
        core's rows from the kernel install step
        (:func:`~repro.dra.algorithm.dra_initial`), folded in at weight
        +1. Subsequent updates are differential. ``prepared`` is a plan
        for :attr:`core` the caller already compiled, as for
        :meth:`update`."""
        if prepared is not None and prepared.query != self.core:
            raise ReproError(_WRONG_PLAN)
        core_rows = dra_initial(self.core, self.db, ts, prepared, metrics)
        self._groups.clear()
        self._row_counts.clear()
        rows = list(core_rows.rows_map().values())
        self._fold(rows, [1] * len(rows))
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

        ``prepared`` is an optional pre-compiled plan for :attr:`core`
        (see :func:`repro.dra.prepared.prepare_cq`) — the manager hands
        its cached one through so the core's differential never
        replans. The core differential runs the kernels (DESIGN.md
        §11); ``columnar=False`` is the row-interpreter reference.
        """
        if not self._initialized:
            raise ReproError("call initialize() before update()")
        if prepared is not None and prepared.query != self.core:
            raise ReproError(_WRONG_PLAN)
        result = dra_execute(
            self.core,
            self.db,
            deltas=deltas,
            ts=ts,
            metrics=metrics,
            prepared=prepared,
            columnar=columnar,
        )
        weights, modifies = result.weights, result.modifies
        if not weights and not modifies[0]:
            return DeltaRelation(self.schema)
        # The signed sum of a correct expansion is a delta: ±1 weights,
        # at most one row per result tid on either side.
        signs = list(weights.values())
        if not _UNIT.issuperset(signs):
            (ctid, __), weight = next(
                item for item in weights.items() if item[1] not in _UNIT
            )
            raise WeightInvariantError(
                f"weight {weight} for result tid {ctid!r}; expected ±1"
            )
        keys = list(weights)
        tids = list(map(_TID, keys))
        if len(set(zip(tids, signs))) != len(keys):
            raise WeightInvariantError(
                "two rows on one side for a result tid of the aggregate's core"
            )
        rows = list(map(_VALUES, keys))
        pair_tids, olds, news = modifies
        if pair_tids:
            # A pair row's modify folds as its old row at −1 and its new
            # row at +1; its result tid is its own.
            distinct = set(pair_tids)
            if len(distinct) != len(pair_tids) or not distinct.isdisjoint(tids):
                raise WeightInvariantError(
                    "a pair row's result tid meets another row of the "
                    "aggregate's core"
                )
            rows += olds
            rows += news
            signs += [-1] * len(olds)
            signs += [1] * len(news)
        touched = self._fold(rows, signs)

        # Each touched group's visible row before and after the fold,
        # in first-touch order.
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

    def _fold(
        self, rows: Sequence[Values], weights: Sequence[int]
    ) -> Dict[GroupKey, Optional[Values]]:
        """Fold signed core rows into their groups' accumulators; returns
        each touched group's visible row as it was before the fold."""
        by_group: Dict[GroupKey, Tuple[List[Values], List[int]]] = {}
        get = by_group.get
        for key, values, weight in zip(map(self._key_of, rows), rows, weights):
            group = get(key)
            if group is None:
                by_group[key] = ([values], [weight])
            else:
                group[0].append(values)
                group[1].append(weight)
        before: Dict[GroupKey, Optional[Values]] = {}
        grouped = bool(self.query.group_by)
        for key, (values, signs) in by_group.items():
            before[key] = self._visible_row(key)
            count = self._row_counts.get(key, 0)
            change = sum(signs)
            if (len(signs) - change) // 2 > count:
                raise ReproError(
                    f"aggregate state underflow for group {key!r}: removal of a "
                    "row that was never added (delta/initialization mismatch)"
                )
            accs = self._groups.get(key)
            if accs is None:
                accs = self._groups[key] = [
                    spec.make_accumulator() for spec in self.query.aggregates
                ]
            columns: Dict[Optional[int], List[Any]] = {}
            for acc, pos in zip(accs, self._arg_positions):
                column = columns.get(pos)
                if column is None:
                    column = columns[pos] = (
                        list(map(operator.itemgetter(pos), values))
                        if pos is not None
                        else [None] * len(values)
                    )
                acc.fold(column, signs)
            count += change
            if count == 0 and grouped:
                del self._groups[key]
                self._row_counts.pop(key, None)
            else:
                self._row_counts[key] = count
        return before

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
