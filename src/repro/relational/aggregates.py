"""Aggregate functions and aggregate queries.

The paper's epsilon-trigger examples are aggregate continual queries
("SELECT SUM(amount) FROM CheckingAccounts", Section 5.3). This module
defines the aggregate accumulators — each supports both ``add`` and
``remove`` so :mod:`repro.dra.aggregates` can maintain results
differentially under general updates — plus complete evaluation as the
reference semantics.

SQL null semantics: aggregates ignore ``None`` inputs; ``COUNT(*)``
counts rows regardless.
"""

from __future__ import annotations

import operator
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ExpressionError, QueryError
from repro.metrics import Metrics
from repro.relational.algebra import OutputColumn, SPJQuery
from repro.relational.evaluate import Resolver, evaluate_spj
from repro.relational.expressions import ColumnRef
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema
from repro.relational.types import AttributeType


class Accumulator:
    """Incrementally maintained aggregate state."""

    def add(self, value: Any) -> None:
        raise NotImplementedError

    def remove(self, value: Any) -> None:
        raise NotImplementedError

    def fold(self, values: Sequence[Any], weights: Sequence[int]) -> None:
        """Add each value of weight +1 and remove each of weight −1:
        one call per group and batch of a signed sum."""
        add, remove = self.add, self.remove
        for value, weight in zip(values, weights):
            (add if weight > 0 else remove)(value)

    def result(self) -> Any:
        raise NotImplementedError

    def is_empty(self) -> bool:
        raise NotImplementedError


class SumAccumulator(Accumulator):
    """SUM: fully incremental in both directions."""

    def __init__(self) -> None:
        self.total = 0
        self.count = 0

    def add(self, value: Any) -> None:
        if value is None:
            return
        self.total += value
        self.count += 1

    def remove(self, value: Any) -> None:
        if value is None:
            return
        self.total -= value
        self.count -= 1

    def fold(self, values: Sequence[Any], weights: Sequence[int]) -> None:
        if None in values:
            pairs = [(v, w) for v, w in zip(values, weights) if v is not None]
            values = [v for v, __ in pairs]
            weights = [w for __, w in pairs]
        self.total += sum(map(operator.mul, values, weights))
        self.count += sum(weights)

    def result(self) -> Any:
        return self.total if self.count else None

    def is_empty(self) -> bool:
        return self.count == 0


class CountAccumulator(Accumulator):
    """COUNT(expr) or COUNT(*) (``star=True`` counts nulls too)."""

    def __init__(self, star: bool = False) -> None:
        self.star = star
        self.value = 0
        self.rows = 0

    def add(self, value: Any) -> None:
        self.rows += 1
        if self.star or value is not None:
            self.value += 1

    def remove(self, value: Any) -> None:
        self.rows -= 1
        if self.star or value is not None:
            self.value -= 1

    def fold(self, values: Sequence[Any], weights: Sequence[int]) -> None:
        rows = sum(weights)
        self.rows += rows
        if self.star or None not in values:
            self.value += rows
        else:
            self.value += sum(
                w for v, w in zip(values, weights) if v is not None
            )

    def result(self) -> int:
        return self.value

    def is_empty(self) -> bool:
        return self.rows == 0


class AvgAccumulator(SumAccumulator):
    """AVG = SUM / COUNT over non-null inputs."""

    def result(self) -> Any:
        if not self.count:
            return None
        return self.total / self.count


class _ExtremumAccumulator(Accumulator):
    """Shared machinery for MIN/MAX.

    Deletion of a non-extremal value is O(1); deletion of the current
    extremum triggers a rescan of the distinct-value multiset. This is
    the classic non-distributive-aggregate trade-off; the differential
    layer surfaces it in the E5 benchmark.
    """

    def __init__(self, pick: Callable[[Any], Any]) -> None:
        self._counts: Dict[Any, int] = {}
        self._pick = pick
        self._cached: Any = None
        self._dirty = False

    def add(self, value: Any) -> None:
        if value is None:
            return
        self._counts[value] = self._counts.get(value, 0) + 1
        if not self._dirty:
            if self._cached is None:
                self._cached = value
            else:
                self._cached = self._pick((self._cached, value))

    def remove(self, value: Any) -> None:
        if value is None:
            return
        count = self._counts.get(value, 0)
        if count <= 1:
            self._counts.pop(value, None)
            if value == self._cached:
                self._dirty = True
        else:
            self._counts[value] = count - 1

    def result(self) -> Any:
        if self._dirty:
            self._cached = self._pick(self._counts) if self._counts else None
            self._dirty = False
        return self._cached

    def is_empty(self) -> bool:
        return not self._counts


class MinAccumulator(_ExtremumAccumulator):
    def __init__(self) -> None:
        super().__init__(min)


class MaxAccumulator(_ExtremumAccumulator):
    def __init__(self) -> None:
        super().__init__(max)


_FACTORIES: Dict[str, Callable[[], Accumulator]] = {
    "SUM": SumAccumulator,
    "COUNT": CountAccumulator,
    "AVG": AvgAccumulator,
    "MIN": MinAccumulator,
    "MAX": MaxAccumulator,
}


class AggregateSpec:
    """One aggregate output column: FUNC(ref) AS name.

    ``ref`` is None for COUNT(*).
    """

    __slots__ = ("func", "ref", "name")

    def __init__(self, func: str, ref: Optional[ColumnRef], name: Optional[str] = None):
        func = func.upper()
        if func not in _FACTORIES:
            raise ExpressionError(f"unknown aggregate function {func!r}")
        if ref is None and func != "COUNT":
            raise ExpressionError(f"{func} requires a column argument")
        self.func = func
        self.ref = ref
        self.name = name or (
            f"{func.lower()}_{ref.name}" if ref is not None else "count"
        )

    def make_accumulator(self) -> Accumulator:
        if self.func == "COUNT" and self.ref is None:
            return CountAccumulator(star=True)
        return _FACTORIES[self.func]()

    def result_type(self, input_type: Optional[AttributeType]) -> AttributeType:
        if self.func == "COUNT":
            return AttributeType.INT
        if self.func == "AVG":
            return AttributeType.FLOAT
        if input_type is None:
            raise ExpressionError(f"{self.func} needs a typed input column")
        return input_type

    def __repr__(self) -> str:
        arg = "*" if self.ref is None else self.ref.to_sql()
        return f"AggregateSpec({self.func}({arg}) AS {self.name})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, AggregateSpec)
            and (self.func, self.ref, self.name)
            == (other.func, other.ref, other.name)
        )

    def __hash__(self) -> int:
        return hash((self.func, self.ref, self.name))


class AggregateQuery:
    """Aggregates (optionally grouped) over an SPJ core.

    ``core`` is the user's SPJ core (the parser's is SELECT *). Group
    keys and aggregate arguments are column refs into its relations;
    :meth:`narrowed_core` is the core projected to exactly those
    columns, which is what evaluation runs.
    """

    __slots__ = ("core", "aggregates", "group_by", "having", "_sql")

    def __init__(
        self,
        core: SPJQuery,
        aggregates: Sequence[AggregateSpec],
        group_by: Sequence[ColumnRef] = (),
        having=None,
    ):
        if not aggregates:
            raise QueryError("an aggregate query needs at least one aggregate")
        self.core = core
        self.aggregates = tuple(aggregates)
        self.group_by = tuple(group_by)
        #: Optional predicate over the *output* schema (group columns
        #: and aggregate aliases), e.g. HAVING total > 100.
        self.having = having
        self._sql: Optional[str] = None

    def to_sql(self) -> str:
        """The canonical text, rendered on the first call (as
        :meth:`SPJQuery.to_sql`)."""
        if self._sql is not None:
            return self._sql
        cols = [ref.to_sql() for ref in self.group_by]
        for spec in self.aggregates:
            arg = "*" if spec.ref is None else spec.ref.to_sql()
            cols.append(f"{spec.func}({arg}) AS {spec.name}")
        sql = self.core.to_sql()
        __, __, tail = sql.partition(" FROM ")
        out = f"SELECT {', '.join(cols)} FROM {tail}"
        if self.group_by:
            out += f" GROUP BY {', '.join(r.to_sql() for r in self.group_by)}"
        if self.having is not None:
            out += f" HAVING {self.having.to_sql()}"
        self._sql = out
        return out

    def __repr__(self) -> str:
        return f"AggregateQuery({self.to_sql()})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, AggregateQuery)
            and self.core == other.core
            and self.aggregates == other.aggregates
            and self.group_by == other.group_by
            and self.having == other.having
        )

    def __hash__(self) -> int:
        return hash((self.core, self.aggregates, self.group_by, self.having))

    def narrowed_core(self) -> SPJQuery:
        """The core projected to the distinct columns the aggregate
        reads: the group-by columns first — a row's group key is its
        first ``len(group_by)`` values — then the arguments.

        A column is named by its bare name where that is unique among
        them, else ``alias_name`` (SELECT *'s rule), so ``orders.cid``
        and ``customers.cid`` can both be read.
        """
        return SPJQuery(
            self.core.relations,
            self.core.predicate,
            [OutputColumn(ref, name) for ref, name in self._core_names().items()],
        )

    def argument_positions(self) -> Tuple[Optional[int], ...]:
        """Where :meth:`narrowed_core`'s rows hold each aggregate's
        argument (None for COUNT(*))."""
        at = {ref: i for i, ref in enumerate(self._core_names())}
        return tuple(
            at[spec.ref] if spec.ref is not None else None
            for spec in self.aggregates
        )

    def output_schema(self, core_schema: Schema) -> Schema:
        """The result schema, given the schema of :meth:`narrowed_core`."""
        names = self._core_names()
        attrs: List[Attribute] = []
        for ref in self.group_by:
            attr = core_schema.attribute(names[ref])
            attrs.append(Attribute(ref.name, attr.type))
        for spec in self.aggregates:
            input_type = (
                core_schema.type_of(names[spec.ref])
                if spec.ref is not None
                else None
            )
            attrs.append(Attribute(spec.name, spec.result_type(input_type)))
        return Schema(attrs)

    def _core_names(self) -> Dict[ColumnRef, str]:
        """Each column the aggregate reads -> its narrowed-core name."""
        refs = dict.fromkeys(
            self.group_by
            + tuple(spec.ref for spec in self.aggregates if spec.ref is not None)
        )
        bare = Counter(ref.name for ref in refs)
        return {
            ref: f"{ref.qualifier}_{ref.name}"
            if bare[ref.name] > 1 and ref.qualifier
            else ref.name
            for ref in refs
        }


def evaluate_aggregate(
    query: AggregateQuery,
    resolver: Resolver,
    metrics: Optional[Metrics] = None,
) -> Relation:
    """Complete evaluation of an aggregate query (reference semantics).

    Global aggregates return exactly one row with tid ``()`` — even over
    an empty input (SUM/AVG/MIN/MAX are then null, counts zero). Grouped
    aggregates return one row per group, keyed by the group-value tuple.
    """
    rows = evaluate_spj(query.narrowed_core(), resolver, metrics)
    out_schema = query.output_schema(rows.schema)
    width = len(query.group_by)
    arg_positions = query.argument_positions()

    groups: Dict[Tuple[Any, ...], List[Accumulator]] = {}
    for row in rows:
        key = row.values[:width]
        accs = groups.get(key)
        if accs is None:
            accs = [spec.make_accumulator() for spec in query.aggregates]
            groups[key] = accs
        for acc, pos in zip(accs, arg_positions):
            acc.add(row.values[pos] if pos is not None else None)

    having = None
    if query.having is not None:
        from repro.relational.binding import SingleRowBinder

        having = query.having.compile(SingleRowBinder(out_schema))

    result = Relation(out_schema)
    if not query.group_by:
        accs = groups.get(
            (), [spec.make_accumulator() for spec in query.aggregates]
        )
        values = () + tuple(acc.result() for acc in accs)
        if having is None or having(values):
            result.add((), values)
        return result
    for key, accs in groups.items():
        values = key + tuple(acc.result() for acc in accs)
        if having is None or having(values):
            result.add(key, values)
    return result
