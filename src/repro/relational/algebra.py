"""Relational-algebra query trees and the SPJ normal form.

The paper's DRA (Algorithm 1) is defined over queries in SPJ normal
form ``π_X(σ_F(R_1 ⋈ R_2 ⋈ ... ⋈ R_n))``. General algebra trees built
from :class:`Scan`, :class:`Select`, :class:`Project` and :class:`Join`
are normalized into :class:`SPJQuery` by :func:`normalize`;
:class:`Union` and :class:`Difference` are supported by the complete
evaluator but are outside the SPJ fragment DRA re-evaluates.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.errors import QueryError, UnsupportedQueryError
from repro.relational.expressions import ColumnRef
from repro.relational.predicates import Predicate, TruePredicate, conjunction


class AlgebraNode:
    """Base class for algebra tree nodes."""

    def to_sql(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.to_sql()})"


class Scan(AlgebraNode):
    """A base-table scan, optionally aliased."""

    __slots__ = ("table", "alias")

    def __init__(self, table: str, alias: Optional[str] = None):
        self.table = table
        self.alias = alias or table

    def to_sql(self) -> str:
        if self.alias != self.table:
            return f"{self.table} AS {self.alias}"
        return self.table


class Select(AlgebraNode):
    """σ: filter the child by a predicate."""

    __slots__ = ("child", "predicate")

    def __init__(self, child: AlgebraNode, predicate: Predicate):
        self.child = child
        self.predicate = predicate

    def to_sql(self) -> str:
        return f"σ[{self.predicate.to_sql()}]({self.child.to_sql()})"


class Project(AlgebraNode):
    """π: keep only the named columns.

    ``columns`` is a sequence of (ref, output_name) pairs; output_name
    may be None to reuse the referenced attribute name.
    """

    __slots__ = ("child", "columns")

    def __init__(
        self,
        child: AlgebraNode,
        columns: Sequence[Tuple[ColumnRef, Optional[str]]],
    ):
        self.child = child
        self.columns = tuple(
            (ref, out_name) for ref, out_name in columns
        )

    def to_sql(self) -> str:
        cols = ", ".join(
            f"{ref.to_sql()} AS {out}" if out and out != ref.name else ref.to_sql()
            for ref, out in self.columns
        )
        return f"π[{cols}]({self.child.to_sql()})"


class Join(AlgebraNode):
    """⋈: theta join of two subtrees."""

    __slots__ = ("left", "right", "condition")

    def __init__(
        self,
        left: AlgebraNode,
        right: AlgebraNode,
        condition: Predicate = TruePredicate(),
    ):
        self.left = left
        self.right = right
        self.condition = condition

    def to_sql(self) -> str:
        return (
            f"({self.left.to_sql()} ⋈[{self.condition.to_sql()}] "
            f"{self.right.to_sql()})"
        )


class Union(AlgebraNode):
    """∪ of two union-compatible subtrees (tid-keyed)."""

    __slots__ = ("left", "right")

    def __init__(self, left: AlgebraNode, right: AlgebraNode):
        self.left = left
        self.right = right

    def to_sql(self) -> str:
        return f"({self.left.to_sql()} ∪ {self.right.to_sql()})"


class Difference(AlgebraNode):
    """− of two union-compatible subtrees (tid-keyed)."""

    __slots__ = ("left", "right")

    def __init__(self, left: AlgebraNode, right: AlgebraNode):
        self.left = left
        self.right = right

    def to_sql(self) -> str:
        return f"({self.left.to_sql()} − {self.right.to_sql()})"


class RelationRef:
    """An operand relation of an SPJ query: a table name plus alias."""

    __slots__ = ("alias", "table")

    def __init__(self, table: str, alias: Optional[str] = None):
        self.table = table
        self.alias = alias or table

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RelationRef)
            and self.table == other.table
            and self.alias == other.alias
        )

    def __hash__(self) -> int:
        return hash((self.table, self.alias))

    def __repr__(self) -> str:
        if self.alias != self.table:
            return f"RelationRef({self.table!r} AS {self.alias!r})"
        return f"RelationRef({self.table!r})"


class OutputColumn:
    """One projected output column: a source ref and an output name."""

    __slots__ = ("ref", "name")

    def __init__(self, ref: ColumnRef, name: Optional[str] = None):
        self.ref = ref
        self.name = name or ref.name

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, OutputColumn)
            and self.ref == other.ref
            and self.name == other.name
        )

    def __hash__(self) -> int:
        return hash((self.ref, self.name))

    def __repr__(self) -> str:
        return f"OutputColumn({self.ref.to_sql()} AS {self.name})"


class SPJQuery:
    """A query in SPJ normal form: π_X(σ_F(R_1 ⋈ ... ⋈ R_n)).

    * ``relations`` — the operand relations, in join order. The order
      also fixes the layout of composite result tids.
    * ``predicate`` — the full selection/join condition F (a
      conjunction; join conditions live here too, as the paper's
      normal form prescribes).
    * ``projection`` — output columns, or None for SELECT *.
    """

    __slots__ = ("relations", "predicate", "projection", "_sql")

    def __init__(
        self,
        relations: Sequence[RelationRef],
        predicate: Predicate = TruePredicate(),
        projection: Optional[Sequence[OutputColumn]] = None,
    ):
        relations = tuple(relations)
        if not relations:
            raise QueryError("an SPJ query needs at least one relation")
        aliases = [r.alias for r in relations]
        if len(set(aliases)) != len(aliases):
            raise QueryError(f"duplicate relation aliases in {aliases}")
        self.relations = relations
        self.predicate = predicate
        self.projection = tuple(projection) if projection is not None else None
        self._sql: Optional[str] = None

    @property
    def aliases(self) -> Tuple[str, ...]:
        return tuple(r.alias for r in self.relations)

    @property
    def table_names(self) -> Tuple[str, ...]:
        return tuple(r.table for r in self.relations)

    def alias_for_table(self, table: str) -> List[str]:
        return [r.alias for r in self.relations if r.table == table]

    def to_sql(self) -> str:
        """The canonical text, rendered on the first call: a query is
        never mutated, and :func:`~repro.relational.sql.parse_query`
        hands one object per text to every registration."""
        if self._sql is not None:
            return self._sql
        if self.projection is None:
            cols = "*"
        else:
            cols = ", ".join(
                f"{c.ref.to_sql()} AS {c.name}"
                if c.name != c.ref.name
                else c.ref.to_sql()
                for c in self.projection
            )
        tables = ", ".join(
            f"{r.table} AS {r.alias}" if r.alias != r.table else r.table
            for r in self.relations
        )
        sql = f"SELECT {cols} FROM {tables}"
        if not isinstance(self.predicate, TruePredicate):
            sql += f" WHERE {self.predicate.to_sql()}"
        self._sql = sql
        return sql

    def __repr__(self) -> str:
        return f"SPJQuery({self.to_sql()})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SPJQuery)
            and self.relations == other.relations
            and self.predicate == other.predicate
            and self.projection == other.projection
        )

    def __hash__(self) -> int:
        return hash((self.relations, self.predicate, self.projection))


def normalize(node: AlgebraNode) -> SPJQuery:
    """Convert an SPJ-shaped algebra tree into :class:`SPJQuery`.

    Accepts any tree of Scan/Select/Join nodes with at most one Project
    on top. Union/Difference (and Projects below Selects/Joins) are
    outside the normal form and raise :class:`UnsupportedQueryError`.
    """
    projection: Optional[List[OutputColumn]] = None
    if isinstance(node, Project):
        projection = [OutputColumn(ref, out) for ref, out in node.columns]
        node = node.child

    relations: List[RelationRef] = []
    conjuncts: List[Predicate] = []
    _collect(node, relations, conjuncts)
    return SPJQuery(relations, conjunction(conjuncts), projection)


def _collect(
    node: AlgebraNode,
    relations: List[RelationRef],
    conjuncts: List[Predicate],
) -> None:
    if isinstance(node, Scan):
        relations.append(RelationRef(node.table, node.alias))
    elif isinstance(node, Select):
        conjuncts.extend(node.predicate.conjuncts())
        _collect(node.child, relations, conjuncts)
    elif isinstance(node, Join):
        _collect(node.left, relations, conjuncts)
        _collect(node.right, relations, conjuncts)
        conjuncts.extend(node.condition.conjuncts())
    elif isinstance(node, Project):
        raise UnsupportedQueryError(
            "Project below Select/Join is outside SPJ normal form"
        )
    elif isinstance(node, (Union, Difference)):
        raise UnsupportedQueryError(
            f"{type(node).__name__} is outside the SPJ fragment handled by DRA"
        )
    else:
        raise QueryError(f"unknown algebra node {node!r}")
