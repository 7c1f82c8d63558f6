"""Relations: tid-keyed collections of typed rows.

Every row in this engine carries a *tuple identifier* (tid). Base
tables assign integer tids; derived relations (joins) carry composite
tids — tuples of their operands' tids — and projections keep the tid of
the row they were derived from. Tids are what make differential
relations (paper Section 4.1) unambiguous: "no tid can appear in
multiple rows".
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, Iterable, Iterator, Tuple

from repro.errors import SchemaError
from repro.relational.schema import Schema

# A tid is an int for base rows or a nested tuple of tids for join rows.
Tid = Hashable
Values = Tuple[Any, ...]


class Row:
    """A (tid, values) pair. Values align positionally with the schema."""

    __slots__ = ("tid", "values")

    def __init__(self, tid: Tid, values: Values):
        self.tid = tid
        self.values = values

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Row)
            and self.tid == other.tid
            and self.values == other.values
        )

    def __hash__(self) -> int:
        return hash((self.tid, self.values))

    def __repr__(self) -> str:
        return f"Row(tid={self.tid!r}, {self.values!r})"


class Relation:
    """A mutable, tid-keyed relation instance.

    The relational-algebra convenience methods (:meth:`select`,
    :meth:`project`, ...) implement *complete* evaluation semantics;
    they are the executable specification that the differential
    machinery in :mod:`repro.dra` is tested against.
    """

    __slots__ = ("schema", "_rows", "handed_out")

    def __init__(self, schema: Schema, rows: Iterable[Row] = ()):
        self.schema = schema
        self._rows: Dict[Tid, Values] = {}
        #: Held by code outside the tier (True), or by a member that
        #: left its view (a weak reference to it): while so held, a
        #: view's step copies it instead of moving it in place.
        self.handed_out = False
        for row in rows:
            self.add(row.tid, row.values)

    @classmethod
    def from_pairs(cls, schema: Schema, pairs: Iterable[Tuple[Tid, Values]]) -> "Relation":
        """A relation of ``(tid, values)`` pairs, each validated as
        :meth:`add` validates it (a later pair for a tid overwrites)."""
        rel = cls(schema)
        validate = schema.validate_row
        rel._rows = {tid: validate(values) for tid, values in pairs}
        return rel

    # -- basic container protocol -------------------------------------

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        for tid, values in self._rows.items():
            yield Row(tid, values)

    def __contains__(self, tid: Tid) -> bool:
        return tid in self._rows

    def __eq__(self, other: object) -> bool:
        """Content equality: same schema types and the same tid->values map."""
        if not isinstance(other, Relation):
            return NotImplemented
        return (
            self.schema.union_compatible(other.schema)
            and self._rows == other._rows
        )

    def __repr__(self) -> str:
        return f"Relation({self.schema!r}, {len(self)} rows)"

    def get(self, tid: Tid) -> Values:
        return self._rows[tid]

    def get_or_none(self, tid: Tid):
        return self._rows.get(tid)

    def rows_map(self) -> Dict[Tid, Values]:
        """The internal tid→values mapping, for batch readers (the
        columnar kernels' bulk probes). Callers must treat it as
        read-only; mutations go through :meth:`add`/:meth:`remove`."""
        return self._rows

    def tids(self) -> Iterator[Tid]:
        return iter(self._rows.keys())

    def values_set(self) -> set:
        """The set of value tuples, ignoring tids (for value semantics)."""
        return set(self._rows.values())

    def add(self, tid: Tid, values: Values) -> None:
        """Insert or overwrite the row identified by ``tid``."""
        self._rows[tid] = self.schema.validate_row(values)

    def remove(self, tid: Tid) -> None:
        del self._rows[tid]

    def discard(self, tid: Tid) -> None:
        self._rows.pop(tid, None)

    def copy(self) -> "Relation":
        out = Relation(self.schema)
        out._rows = dict(self._rows)
        return out

    # -- complete relational-algebra operations -----------------------

    def select(self, predicate: Callable[[Values], bool]) -> "Relation":
        """σ: rows whose values satisfy ``predicate`` (a compiled fn)."""
        out = Relation(self.schema)
        out._rows = {
            tid: values for tid, values in self._rows.items() if predicate(values)
        }
        return out

    def project(self, names: Iterable[str]) -> "Relation":
        """π: keep only ``names``; tids are preserved as provenance.

        Because tids survive projection, duplicate value-tuples remain
        distinct rows; use :meth:`distinct_values` for pure set
        semantics on values.
        """
        names = tuple(names)
        positions = [self.schema.position(n) for n in names]
        out = Relation(self.schema.project(names))
        out._rows = {
            tid: tuple(values[p] for p in positions)
            for tid, values in self._rows.items()
        }
        return out

    def distinct_values(self) -> "Relation":
        """Collapse rows with equal values to one row keyed by values."""
        out = Relation(self.schema)
        seen = {}
        for tid, values in self._rows.items():
            if values not in seen:
                seen[values] = tid
        out._rows = {tid: values for values, tid in seen.items()}
        return out

    def join(
        self,
        other: "Relation",
        condition: Callable[[Values, Values], bool],
    ) -> "Relation":
        """⋈: nested-loop theta join; result tids are (left, right) pairs."""
        out = Relation(self.schema.concat(other.schema))
        rows: Dict[Tid, Values] = {}
        for ltid, lvalues in self._rows.items():
            for rtid, rvalues in other._rows.items():
                if condition(lvalues, rvalues):
                    rows[(ltid, rtid)] = lvalues + rvalues
        out._rows = rows
        return out

    def equijoin(
        self,
        other: "Relation",
        left_positions: Tuple[int, ...],
        right_positions: Tuple[int, ...],
    ) -> "Relation":
        """⋈: hash equi-join on positional key columns."""
        index: Dict[Values, list] = {}
        for rtid, rvalues in other._rows.items():
            key = tuple(rvalues[p] for p in right_positions)
            index.setdefault(key, []).append((rtid, rvalues))
        out = Relation(self.schema.concat(other.schema))
        rows: Dict[Tid, Values] = {}
        for ltid, lvalues in self._rows.items():
            key = tuple(lvalues[p] for p in left_positions)
            for rtid, rvalues in index.get(key, ()):
                rows[(ltid, rtid)] = lvalues + rvalues
        out._rows = rows
        return out

    def union(self, other: "Relation") -> "Relation":
        """∪ keyed by tid; on tid collision the other relation wins."""
        self._require_compatible(other)
        out = Relation(self.schema)
        out._rows = dict(self._rows)
        out._rows.update(other._rows)
        return out

    def difference(self, other: "Relation") -> "Relation":
        """− keyed by tid: rows of self whose tid is absent from other."""
        self._require_compatible(other)
        out = Relation(self.schema)
        out._rows = {
            tid: values
            for tid, values in self._rows.items()
            if tid not in other._rows
        }
        return out

    def intersect(self, other: "Relation") -> "Relation":
        """∩ keyed by tid."""
        self._require_compatible(other)
        out = Relation(self.schema)
        out._rows = {
            tid: values
            for tid, values in self._rows.items()
            if tid in other._rows
        }
        return out

    def _require_compatible(self, other: "Relation") -> None:
        if not self.schema.union_compatible(other.schema):
            raise SchemaError(
                f"schemas not union-compatible: {self.schema!r} vs {other.schema!r}"
            )

    # -- presentation --------------------------------------------------

    def sorted_rows(self) -> list:
        """Rows sorted by tid repr, for deterministic display/tests."""
        return sorted(self, key=lambda row: repr(row.tid))

    def top(self, n: int, by: str, descending: bool = True) -> list:
        """The ``n`` rows with the largest (or smallest) ``by`` values.

        A presentation helper (ORDER BY ... LIMIT n at delivery time):
        relations themselves stay unordered sets, as in the paper's
        model. Null values sort last in either direction.
        """
        position = self.schema.position(by)
        ordered = sorted(
            (row for row in self if row.values[position] is not None),
            key=lambda row: row.values[position],
            reverse=descending,
        )
        nulls = [row for row in self if row.values[position] is None]
        return (ordered + nulls)[: max(0, n)]

    def to_table_string(self, limit: int = 20) -> str:
        """Render as an aligned text table (for examples and docs)."""
        names = self.schema.names
        shown = [list(map(_cell, row.values)) for row in self.sorted_rows()[:limit]]
        widths = [
            max([len(n)] + [len(r[i]) for r in shown]) for i, n in enumerate(names)
        ]
        header = " | ".join(n.ljust(w) for n, w in zip(names, widths))
        rule = "-+-".join("-" * w for w in widths)
        body = [
            " | ".join(cell.ljust(w) for cell, w in zip(row, widths))
            for row in shown
        ]
        lines = [header, rule] + body
        if len(self) > limit:
            lines.append(f"... ({len(self) - limit} more rows)")
        return "\n".join(lines)


def _cell(value: Any) -> str:
    return "-" if value is None else str(value)
