"""Complete (from-scratch) query evaluation.

This module is the *reference semantics* of the engine: it evaluates a
query against full base relations. The differential machinery in
:mod:`repro.dra` is validated against it — the paper's claim that DRA
is "functionally equivalent to the complete re-evaluation solution"
becomes an executable property test.

The SPJ evaluator performs local-predicate pushdown and hash equi-joins
driven by the :mod:`repro.relational.planning` decomposition, with a
greedy smallest-relation-first join order.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import QueryError, SchemaError
from repro.metrics import Metrics
from repro.relational.algebra import (
    AlgebraNode,
    Difference,
    Join,
    Project,
    Scan,
    Select,
    SPJQuery,
    Union,
)
from repro.relational.binding import EnvBinder, SingleRowBinder
from repro.relational.expressions import ColumnRef
from repro.relational.planning import PredicatePlan, plan_predicate
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema

# Resolves a table name to its current contents.
Resolver = Callable[[str], Relation]


def scopes_for(query: SPJQuery, resolver: Resolver) -> Dict[str, Schema]:
    """Map each alias of the query to its relation's schema."""
    return {ref.alias: resolver(ref.table).schema for ref in query.relations}


def expand_star(query: SPJQuery, scopes: Dict[str, Schema]):
    """The effective projection list: explicit columns or SELECT *.

    For SELECT * the output is every attribute of every relation in
    relation order; names that collide across relations are prefixed
    with their alias (``alias_name``).
    """
    from repro.relational.algebra import OutputColumn

    if query.projection is not None:
        return list(query.projection)
    counts: Dict[str, int] = {}
    for alias in query.aliases:
        for attr in scopes[alias]:
            counts[attr.name] = counts.get(attr.name, 0) + 1
    out = []
    for alias in query.aliases:
        for attr in scopes[alias]:
            name = attr.name if counts[attr.name] == 1 else f"{alias}_{attr.name}"
            out.append(OutputColumn(ColumnRef(attr.name, alias), name))
    return out


def spj_output_schema(query: SPJQuery, scopes: Dict[str, Schema]) -> Schema:
    """The result schema of an SPJ query (after projection)."""
    binder = EnvBinder(scopes)
    attrs = []
    seen: Set[str] = set()
    for column in expand_star(query, scopes):
        if column.name in seen:
            raise SchemaError(
                f"duplicate output column {column.name!r}; use AS to rename"
            )
        seen.add(column.name)
        alias, pos = binder.resolve(column.ref)
        attrs.append(Attribute(column.name, scopes[alias].attributes[pos].type))
    return Schema(attrs)


def compile_projection(
    query: SPJQuery, scopes: Dict[str, Schema]
) -> Callable[[Dict[str, tuple]], tuple]:
    """Compile the projection into env({alias: values}) -> output tuple."""
    binder = EnvBinder(scopes)
    accessors = [
        column.ref.compile(binder) for column in expand_star(query, scopes)
    ]

    def project(env: Dict[str, tuple]) -> tuple:
        return tuple(fn(env) for fn in accessors)

    return project


def composite_tid(tids: Dict[str, object], aliases: Sequence[str]):
    """Result tid: the base tid itself for one relation, else a tuple in
    relation order — the layout DRA must reproduce exactly."""
    if len(aliases) == 1:
        return tids[aliases[0]]
    return tuple(tids[alias] for alias in aliases)


def evaluate_spj(
    query: SPJQuery,
    resolver: Resolver,
    metrics: Optional[Metrics] = None,
) -> Relation:
    """Evaluate an SPJ query over full base relations."""
    scopes = scopes_for(query, resolver)
    plan = plan_predicate(query.predicate, scopes, metrics)

    # Constant conjuncts gate the whole query.
    out_schema = spj_output_schema(query, scopes)
    for pred, aliases in plan.residual:
        if not aliases:
            if not pred.compile(EnvBinder({}))({}):
                return Relation(out_schema)

    # Scan + local filter each operand.
    filtered: Dict[str, Relation] = {}
    for ref in query.relations:
        rel = resolver(ref.table)
        if metrics:
            metrics.count(Metrics.ROWS_SCANNED, len(rel))
        local = plan.local_predicate(ref.alias)
        compiled = local.compile(SingleRowBinder(rel.schema, ref.alias))
        filtered[ref.alias] = rel.select(compiled)

    partials = _join_all(query.aliases, filtered, plan, metrics)

    project = compile_projection(query, scopes)
    result = Relation(out_schema)
    aliases = query.aliases
    for tids, vals in partials:
        result.add(composite_tid(tids, aliases), project(vals))
    if metrics:
        metrics.count(Metrics.ROWS_EMITTED, len(result))
    return result


def _join_all(
    aliases: Sequence[str],
    filtered: Dict[str, Relation],
    plan: PredicatePlan,
    metrics: Optional[Metrics],
) -> List[Tuple[Dict[str, object], Dict[str, tuple]]]:
    """Greedy hash-join of all operands; returns (tids, values) partials."""
    remaining = list(aliases)
    remaining.sort(key=lambda a: len(filtered[a]))
    first = remaining.pop(0)

    partials: List[Tuple[Dict[str, object], Dict[str, tuple]]] = [
        ({first: row.tid}, {first: row.values}) for row in filtered[first]
    ]
    bound: Set[str] = {first}
    applied: Set[int] = set()
    binder = EnvBinder(plan.scopes)

    partials = _apply_residuals(partials, plan, bound, applied, binder)

    while remaining:
        # Prefer an alias connected to the bound set by a join edge.
        next_alias = None
        for candidate in remaining:
            if plan.edges_between(bound, candidate):
                next_alias = candidate
                break
        if next_alias is None:
            next_alias = remaining[0]  # cartesian fallback
        remaining.remove(next_alias)

        edges = plan.edges_between(bound, next_alias)
        rel = filtered[next_alias]
        new_partials: List[Tuple[Dict[str, object], Dict[str, tuple]]] = []

        if edges:
            probe_positions = tuple(e.position_for(next_alias) for e in edges)
            # A key holding a NULL matches nothing (NULL = NULL is not
            # true), so it is not indexed.
            index: Dict[tuple, list] = {}
            for row in rel:
                key = tuple(row.values[p] for p in probe_positions)
                if None not in key:
                    index.setdefault(key, []).append(row)
            for tids, vals in partials:
                key = tuple(
                    vals[e.other(next_alias)][e.position_for(e.other(next_alias))]
                    for e in edges
                )
                if metrics:
                    metrics.count(Metrics.INDEX_PROBES)
                for row in index.get(key, ()):
                    new_tids = dict(tids)
                    new_tids[next_alias] = row.tid
                    new_vals = dict(vals)
                    new_vals[next_alias] = row.values
                    new_partials.append((new_tids, new_vals))
        else:
            rows = list(rel)
            for tids, vals in partials:
                for row in rows:
                    new_tids = dict(tids)
                    new_tids[next_alias] = row.tid
                    new_vals = dict(vals)
                    new_vals[next_alias] = row.values
                    new_partials.append((new_tids, new_vals))

        bound.add(next_alias)
        partials = _apply_residuals(new_partials, plan, bound, applied, binder)

    return partials


def _apply_residuals(
    partials: List[Tuple[Dict[str, object], Dict[str, tuple]]],
    plan: PredicatePlan,
    bound: Set[str],
    applied: Set[int],
    binder: EnvBinder,
) -> List[Tuple[Dict[str, object], Dict[str, tuple]]]:
    ready = plan.residual_ready(bound, applied)
    for index, pred in ready:
        if not list(pred.column_refs()):  # constant; handled by caller
            applied.add(index)
            continue
        compiled = pred.compile(binder)
        partials = [
            (tids, vals) for tids, vals in partials if compiled(vals)
        ]
        applied.add(index)
    return partials


def evaluate_algebra(
    node: AlgebraNode,
    resolver: Resolver,
    metrics: Optional[Metrics] = None,
) -> Relation:
    """Recursively evaluate a general algebra tree.

    Used for Union/Difference queries and in tests; SPJ-shaped trees
    are better served by :func:`evaluate_spj` via
    :func:`repro.relational.algebra.normalize`.
    """
    if isinstance(node, Scan):
        rel = resolver(node.table)
        if metrics:
            metrics.count(Metrics.ROWS_SCANNED, len(rel))
        return rel
    if isinstance(node, Select):
        child = evaluate_algebra(node.child, resolver, metrics)
        compiled = node.predicate.compile(SingleRowBinder(child.schema))
        return child.select(compiled)
    if isinstance(node, Project):
        child = evaluate_algebra(node.child, resolver, metrics)
        names = []
        out_names = []
        for ref, out in node.columns:
            names.append(ref.name)
            out_names.append(out or ref.name)
        projected = child.project(names)
        renamed_schema = Schema(
            Attribute(out_name, attr.type)
            for out_name, attr in zip(out_names, projected.schema)
        )
        result = Relation(renamed_schema)
        for row in projected:
            result.add(row.tid, row.values)
        return result
    if isinstance(node, Join):
        left = evaluate_algebra(node.left, resolver, metrics)
        right = evaluate_algebra(node.right, resolver, metrics)
        joint_schema = left.schema.concat(right.schema)
        compiled = node.condition.compile(SingleRowBinder(joint_schema))
        return left.join(
            right, lambda lv, rv: compiled(lv + rv)
        )
    if isinstance(node, Union):
        left = evaluate_algebra(node.left, resolver, metrics)
        right = evaluate_algebra(node.right, resolver, metrics)
        return left.union(right)
    if isinstance(node, Difference):
        left = evaluate_algebra(node.left, resolver, metrics)
        right = evaluate_algebra(node.right, resolver, metrics)
        return left.difference(right)
    raise QueryError(f"unknown algebra node {node!r}")
