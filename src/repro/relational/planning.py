"""Shared predicate analysis for the evaluator and for DRA.

Both complete evaluation and differential term evaluation need the same
decomposition of an SPJ predicate F:

* *local* conjuncts that touch a single relation (pushed down to
  scans/delta seeds — the "Select before Join" heuristic the paper
  recommends in Section 5.2);
* *equi-join edges* of the form ``a.x = b.y`` (drive hash joins and
  index probes);
* *residual* conjuncts spanning several relations that are not simple
  column equalities (applied once all their relations are bound).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.metrics import Metrics
from repro.relational.binding import EnvBinder
from repro.relational.predicates import (
    Comparison,
    Predicate,
    conjunction,
)
from repro.relational.schema import Schema


def _check_edge_types(conjunct, scopes, la, lp, ra, rp) -> None:
    """Join keys must be type-compatible or the join can never match."""
    from repro.errors import ExpressionError

    left = scopes[la].attributes[lp].type
    right = scopes[ra].attributes[rp].type
    if left == right:
        return
    if left.is_numeric() and right.is_numeric():
        return
    raise ExpressionError(
        f"join condition {conjunct.to_sql()} compares "
        f"{left.value} with {right.value}"
    )


class JoinEdge:
    """An equi-join conjunct ``left_alias.left_pos = right_alias.right_pos``."""

    __slots__ = ("left_alias", "left_pos", "right_alias", "right_pos", "conjunct")

    def __init__(
        self,
        left_alias: str,
        left_pos: int,
        right_alias: str,
        right_pos: int,
        conjunct: Predicate,
    ):
        self.left_alias = left_alias
        self.left_pos = left_pos
        self.right_alias = right_alias
        self.right_pos = right_pos
        self.conjunct = conjunct

    def other(self, alias: str) -> str:
        return self.right_alias if alias == self.left_alias else self.left_alias

    def position_for(self, alias: str) -> int:
        return self.left_pos if alias == self.left_alias else self.right_pos

    def touches(self, alias: str) -> bool:
        return alias in (self.left_alias, self.right_alias)

    def __repr__(self) -> str:
        return (
            f"JoinEdge({self.left_alias}[{self.left_pos}] = "
            f"{self.right_alias}[{self.right_pos}])"
        )


class PredicatePlan:
    """The decomposition of an SPJ predicate against a set of scopes."""

    __slots__ = ("scopes", "local", "edges", "residual")

    def __init__(
        self,
        scopes: Mapping[str, Schema],
        local: Dict[str, List[Predicate]],
        edges: List[JoinEdge],
        residual: List[Tuple[Predicate, Set[str]]],
    ):
        self.scopes = dict(scopes)
        self.local = local
        self.edges = edges
        self.residual = residual

    def local_predicate(self, alias: str) -> Predicate:
        """The conjunction of single-relation conjuncts for ``alias``."""
        return conjunction(self.local.get(alias, []))

    def edges_between(self, bound: Set[str], alias: str) -> List[JoinEdge]:
        """Join edges connecting already-bound aliases to ``alias``."""
        return [
            e
            for e in self.edges
            if e.touches(alias) and e.other(alias) in bound
        ]

    def residual_ready(
        self, bound: Set[str], already_applied: Set[int]
    ) -> List[Tuple[int, Predicate]]:
        """Residual conjuncts whose aliases are all bound and not yet applied."""
        out = []
        for i, (pred, aliases) in enumerate(self.residual):
            if i not in already_applied and aliases <= bound:
                out.append((i, pred))
        return out


# Total plan_predicate invocations since import. Prepared-plan smoke
# checks read this to prove planning work amortizes to zero per
# refresh; it is a plain counter, exact only under single-threaded use.
plan_calls = 0


def plan_predicate(
    predicate: Predicate,
    scopes: Mapping[str, Schema],
    metrics: Optional[Metrics] = None,
) -> PredicatePlan:
    """Decompose ``predicate`` into local / join-edge / residual parts."""
    global plan_calls
    plan_calls += 1
    if metrics:
        metrics.count(Metrics.PREDICATE_PLANS)
    binder = EnvBinder(scopes)
    local: Dict[str, List[Predicate]] = {alias: [] for alias in scopes}
    edges: List[JoinEdge] = []
    residual: List[Tuple[Predicate, Set[str]]] = []

    for conjunct in predicate.conjuncts():
        resolved = [binder.resolve(ref) for ref in conjunct.column_refs()]
        aliases = {alias for alias, __ in resolved}
        if len(aliases) == 0:
            # Constant conjunct (for instance TRUE < 1 via literals):
            # treat as residual over no relations; it gates everything.
            residual.append((conjunct, set()))
        elif len(aliases) == 1:
            local[next(iter(aliases))].append(conjunct)
        elif (
            len(aliases) == 2
            and isinstance(conjunct, Comparison)
            and conjunct.is_equijoin_pair()
        ):
            (la, lp), (ra, rp) = resolved
            _check_edge_types(conjunct, scopes, la, lp, ra, rp)
            edges.append(JoinEdge(la, lp, ra, rp, conjunct))
        else:
            residual.append((conjunct, aliases))
    return PredicatePlan(scopes, local, edges, residual)
