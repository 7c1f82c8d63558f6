"""Compile-once preparation of continual queries.

A continual query is registered once and re-evaluated on every trigger
firing — thousands of times over its lifetime (paper Section 3.1). The
interpreted :func:`~repro.dra.algorithm.dra_execute` re-derived the
predicate plan, the compiled local/residual predicates, the output
schema, and the projection on *every* firing; for small deltas that
planning overhead dominates the actual differential work. This module
moves all of it to registration time:

* :class:`PreparedCQ` — everything about one SPJ query that does not
  depend on which operands changed: scopes, output schema, the
  :class:`~repro.relational.planning.PredicatePlan`, per-alias compiled
  local predicates, the constant-conjunct gate, and memo tables for
  truth-table rows and per-term attachment plans;
* :class:`TermPlan` — the fully resolved evaluation recipe of one
  truth-table term given its substituted set and seed operand: the
  attachment order, each step's join-key positions and key sources as
  flat ``(slot, position)`` pairs, residual predicates compiled against
  slot-indexed environments, and the slot-based projection. Partial
  results become append-only tuple builds — no per-row dict copies;
* :func:`prepare_cq` — the entry point; optionally auto-creates
  missing single-column hash indexes on join columns so base operands
  probe instead of degrading to transient scans;
* :class:`PlanCache` — a keyed cache of prepared plans with staleness
  validation (table schema identity + index-set version), used by
  :class:`~repro.core.manager.CQManager` and
  :class:`~repro.net.server.CQServer` (both keyed by query SQL).

The attachment order within a term depends only on (substituted set,
seed alias) — the seed itself is the only runtime decision, refined by
delta cardinalities at each firing — so term plans are memoized and
every compile amortizes to zero across refreshes.
"""

from __future__ import annotations

from threading import Lock
from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.errors import NoSuchTableError
from repro.metrics import Metrics
from repro.relational.algebra import SPJQuery
from repro.relational.binding import EnvBinder, SingleRowBinder
from repro.relational.evaluate import expand_star, spj_output_schema
from repro.relational.expressions import Binder, ColumnRef, Compiled
from repro.relational.planning import PredicatePlan, plan_predicate
from repro.relational.predicates import (
    CompiledPredicate,
    TruePredicate,
    comparison_specs,
)
from repro.relational.schema import Schema
from repro.storage.database import Database
from repro.dra.truth_table import TruthTable


class SlotBinder(Binder):
    """Binds column refs against slot-indexed environments.

    A prepared term carries its partial rows as flat tuples in
    attachment order; the environment of a compiled predicate or
    projection is that tuple, and an accessor is two tuple indexes —
    ``env[slot][position]`` — with both resolved at prepare time.
    """

    def __init__(self, env_binder: EnvBinder, slots: Dict[str, int]):
        self._env = env_binder
        self._slots = dict(slots)

    def accessor(self, ref: ColumnRef) -> Compiled:
        alias, position = self._env.resolve(ref)
        slot = self._slots[alias]
        return lambda env: env[slot][position]

    def type_of(self, ref: ColumnRef):
        return self._env.type_of(ref)


class AttachStep:
    """One operand attachment in a term plan.

    ``key_positions`` are the join-key positions inside the attached
    relation (empty = cross product); ``key_sources`` are the matching
    ``(slot, position)`` pairs into the partial tuple built so far;
    ``residuals`` are the slot-compiled residual conjuncts that become
    fully bound once this operand is attached. ``residual_preds`` keeps
    the matching predicate ASTs (parallel to ``residuals``) so the
    columnar kernel compiler (:mod:`repro.dra.kernels`) can specialize
    whole-column selectors instead of calling the row closures.
    """

    __slots__ = (
        "alias",
        "is_delta",
        "key_positions",
        "key_sources",
        "residuals",
        "residual_preds",
    )

    def __init__(
        self,
        alias: str,
        is_delta: bool,
        key_positions: Tuple[int, ...],
        key_sources: Tuple[Tuple[int, int], ...],
        residuals: Tuple[CompiledPredicate, ...],
        residual_preds: Tuple = (),
    ):
        self.alias = alias
        self.is_delta = is_delta
        self.key_positions = key_positions
        self.key_sources = key_sources
        self.residuals = residuals
        self.residual_preds = residual_preds

    def __repr__(self) -> str:
        kind = "Δ" if self.is_delta else "R"
        return f"AttachStep({kind}{self.alias}, keys={self.key_positions})"


class TermPlan:
    """The resolved evaluation recipe of one truth-table term.

    Beyond the row-path closures, the plan retains what the columnar
    compiler needs to specialize whole-batch kernels: the predicate
    ASTs of every residual stage, the final alias→slot layout plus the
    env binder (so a :class:`~repro.relational.expressions.ColumnRef`
    resolves to ``(slot, position)``), and — when every output column
    is a plain column reference, which SQL-parsed SPJ select lists
    guarantee — the projection as pure ``(slot, position)`` gathers.
    """

    __slots__ = (
        "seed",
        "seed_residuals",
        "seed_residual_preds",
        "steps",
        "project",
        "project_refs",
        "tid_perm",
        "slots",
        "_env_binder",
    )

    def __init__(
        self,
        seed: str,
        seed_residuals: Tuple[CompiledPredicate, ...],
        steps: Tuple[AttachStep, ...],
        project: Callable[[Tuple], Tuple],
        tid_perm: Optional[Tuple[int, ...]],
        seed_residual_preds: Tuple = (),
        project_refs: Optional[Tuple[Tuple[int, int], ...]] = None,
        slots: Optional[Dict[str, int]] = None,
        env_binder: Optional[EnvBinder] = None,
    ):
        self.seed = seed
        self.seed_residuals = seed_residuals
        self.seed_residual_preds = seed_residual_preds
        self.steps = steps
        self.project = project
        #: ``(slot, position)`` per output column when the projection is
        #: pure column refs, else ``None`` (columnar falls back to the
        #: row projection closure over zipped envs).
        self.project_refs = project_refs
        #: Slot permutation mapping query-alias order to slots, or
        #: ``None`` for single-relation queries (ctid = the base tid).
        self.tid_perm = tid_perm
        self.slots = slots or {seed: 0}
        self._env_binder = env_binder

    def resolve(self, ref: ColumnRef) -> Tuple[int, int]:
        """Resolve a column ref to ``(slot, position)`` in this plan's
        final slot layout (slots only grow during attachment, so the
        final layout is valid for every residual stage)."""
        alias, position = self._env_binder.resolve(ref)
        return self.slots[alias], position

    def __repr__(self) -> str:
        return f"TermPlan(seed={self.seed!r}, steps={list(self.steps)})"


def _pick_next(
    remaining: List[str],
    substituted: FrozenSet[str],
    bound: Set[str],
    plan: PredicatePlan,
) -> str:
    """Default attachment order: connected deltas, connected bases,
    then unconnected deltas (small cross products) before unconnected
    bases — identical to the interpreted evaluator's choice."""

    def priority(alias: str) -> int:
        connected = bool(plan.edges_between(bound, alias))
        is_delta = alias in substituted
        if connected and is_delta:
            return 0
        if connected:
            return 1
        if is_delta:
            return 2
        return 3

    return min(remaining, key=lambda a: (priority(a), remaining.index(a)))


class PreparedCQ:
    """A continual query compiled once, at registration time.

    Execution-invariant state only: nothing here depends on which
    tables changed or on delta contents. The per-term attachment plans
    and truth tables are memoized lazily (keyed by changed/substituted
    sets), so even the first few refreshes after registration finish
    populating every cache and later refreshes compile nothing at all.
    """

    __slots__ = (
        "query",
        "scopes",
        "out_schema",
        "plan",
        "never_matches",
        "compiled_local",
        "local_specs",
        "table_for_alias",
        "_schemas",
        "_index_versions",
        "_env_binder",
        "_term_plans",
        "_term_kernels",
        "_truth_tables",
    )

    def __init__(
        self,
        query: SPJQuery,
        scopes: Dict[str, Schema],
        out_schema: Schema,
        plan: PredicatePlan,
        never_matches: bool,
        compiled_local: Dict[str, Optional[CompiledPredicate]],
        table_for_alias: Dict[str, str],
        schemas: Dict[str, Schema],
        index_versions: Dict[str, int],
        local_specs: Optional[Dict[str, Optional[Tuple]]] = None,
    ):
        self.query = query
        self.scopes = scopes
        self.out_schema = out_schema
        self.plan = plan
        #: True when a constant conjunct is false: the result (and so
        #: every delta) is empty at every execution.
        self.never_matches = never_matches
        self.compiled_local = compiled_local
        #: Per-alias flat ``((position, op, constant), ...)`` specs for
        #: local predicates that are simple comparison conjunctions —
        #: what the batch probe filters inline instead of calling the
        #: compiled closure per row. ``None`` where not specializable.
        self.local_specs = local_specs or {}
        self.table_for_alias = table_for_alias
        self._schemas = schemas
        self._index_versions = index_versions
        self._env_binder = EnvBinder(scopes)
        self._term_plans: Dict[Tuple[FrozenSet[str], str], TermPlan] = {}
        self._term_kernels: Dict[Tuple[FrozenSet[str], str], object] = {}
        self._truth_tables: Dict[Tuple[str, ...], TruthTable] = {}

    # -- staleness ---------------------------------------------------------

    def is_valid(self, db: Database) -> bool:
        """True while the plan's schema/index assumptions still hold.

        A dropped table, a replaced schema object, or any index added
        to an operand table since preparation invalidates the plan (a
        new index can change probe strategies, so the safe reaction is
        to re-prepare).
        """
        for name, schema in self._schemas.items():
            try:
                table = db.table(name)
            except NoSuchTableError:
                return False
            if table.schema is not schema:
                return False
            if table.indexes.version != self._index_versions[name]:
                return False
        return True

    # -- truth table -------------------------------------------------------

    def truth_table(self, changed: Tuple[str, ...]) -> TruthTable:
        table = self._truth_tables.get(changed)
        if table is None:
            table = TruthTable(self.query.aliases, changed)
            self._truth_tables[changed] = table
        return table

    def truth_rows(self, changed: Tuple[str, ...]) -> Tuple[FrozenSet[str], ...]:
        return self.truth_table(changed).rows_tuple()

    # -- term plans --------------------------------------------------------

    def term_plan(self, substituted: FrozenSet[str], seed: str) -> TermPlan:
        """The attachment plan for one term, memoized by (substituted
        set, seed alias) — the only inputs the order depends on."""
        key = (substituted, seed)
        cached = self._term_plans.get(key)
        if cached is None:
            cached = self._build_term_plan(substituted, seed)
            self._term_plans[key] = cached
        return cached

    def term_kernel(self, substituted: FrozenSet[str], seed: str):
        """The columnar kernel pipeline for one term, memoized with the
        same key as :meth:`term_plan` (compiled lazily from it)."""
        key = (substituted, seed)
        cached = self._term_kernels.get(key)
        if cached is None:
            from repro.dra.kernels import compile_term_kernel

            cached = compile_term_kernel(self.term_plan(substituted, seed))
            self._term_kernels[key] = cached
        return cached

    def _build_term_plan(
        self, substituted: FrozenSet[str], seed: str
    ) -> TermPlan:
        plan = self.plan
        aliases = self.query.aliases
        slots: Dict[str, int] = {seed: 0}
        bound: Set[str] = {seed}
        applied: Set[int] = set()
        seed_residuals, seed_preds = self._ready_residuals(
            bound, applied, slots
        )

        steps: List[AttachStep] = []
        remaining = [a for a in aliases if a != seed]
        while remaining:
            alias = _pick_next(remaining, substituted, bound, plan)
            remaining.remove(alias)
            edges = plan.edges_between(bound, alias)
            key_positions = tuple(e.position_for(alias) for e in edges)
            key_sources = tuple(
                (slots[e.other(alias)], e.position_for(e.other(alias)))
                for e in edges
            )
            slots[alias] = len(slots)
            bound.add(alias)
            residuals, residual_preds = self._ready_residuals(
                bound, applied, slots
            )
            steps.append(
                AttachStep(
                    alias,
                    alias in substituted,
                    key_positions,
                    key_sources,
                    residuals,
                    residual_preds,
                )
            )

        project, project_refs = self._compile_projection(slots)
        tid_perm = (
            None
            if len(aliases) == 1
            else tuple(slots[alias] for alias in aliases)
        )
        return TermPlan(
            seed,
            seed_residuals,
            tuple(steps),
            project,
            tid_perm,
            seed_residual_preds=seed_preds,
            project_refs=project_refs,
            slots=slots,
            env_binder=self._env_binder,
        )

    def _ready_residuals(
        self, bound: Set[str], applied: Set[int], slots: Dict[str, int]
    ) -> Tuple[Tuple[CompiledPredicate, ...], Tuple]:
        """Residual conjuncts that became fully bound, compiled against
        the slot layout at this point of the attachment order, plus the
        matching predicate ASTs for the columnar compiler."""
        out = []
        preds = []
        binder = None
        for index, pred in self.plan.residual_ready(bound, applied):
            applied.add(index)
            if not self.plan.residual[index][1]:
                continue  # constant conjunct, gated by never_matches
            if binder is None:
                binder = SlotBinder(self._env_binder, slots)
            out.append(pred.compile(binder))
            preds.append(pred)
        return tuple(out), tuple(preds)

    def _compile_projection(
        self, slots: Dict[str, int]
    ) -> Tuple[Callable[[Tuple], Tuple], Optional[Tuple[Tuple[int, int], ...]]]:
        binder = SlotBinder(self._env_binder, slots)
        columns = expand_star(self.query, self.scopes)
        accessors = [column.ref.compile(binder) for column in columns]

        def project(env: Tuple) -> Tuple:
            return tuple(fn(env) for fn in accessors)

        refs: Optional[List[Tuple[int, int]]] = []
        for column in columns:
            if refs is None or not isinstance(column.ref, ColumnRef):
                refs = None
                break
            alias, position = self._env_binder.resolve(column.ref)
            refs.append((slots[alias], position))

        return project, (tuple(refs) if refs is not None else None)

    def __repr__(self) -> str:
        return (
            f"PreparedCQ({self.query.to_sql()!r}, "
            f"{len(self._term_plans)} term plans)"
        )


def prepare_cq(
    query: SPJQuery,
    db: Database,
    metrics: Optional[Metrics] = None,
    auto_index: bool = True,
) -> PreparedCQ:
    """Compile ``query`` against ``db``'s current catalog.

    With ``auto_index`` (the registration-time default), missing
    single-column hash indexes on join columns are created before the
    plan captures index versions, so base operands probe in O(1)
    instead of silently degrading to per-execution transient scans.
    One-shot callers (baselines, ``python -m repro``) prepare with
    ``auto_index=False`` and mutate nothing.
    """
    scopes = {ref.alias: db.table(ref.table).schema for ref in query.relations}
    out_schema = spj_output_schema(query, scopes)
    plan = plan_predicate(query.predicate, scopes, metrics)

    never_matches = False
    empty_binder = EnvBinder({})
    for pred, aliases in plan.residual:
        if not aliases and not pred.compile(empty_binder)({}):
            never_matches = True
            break

    compiled_local: Dict[str, Optional[CompiledPredicate]] = {}
    local_specs: Dict[str, Optional[Tuple]] = {}
    table_for_alias: Dict[str, str] = {}
    for ref in query.relations:
        table_for_alias[ref.alias] = ref.table
        local = plan.local_predicate(ref.alias)
        if isinstance(local, TruePredicate):
            compiled_local[ref.alias] = None
            local_specs[ref.alias] = None
        else:
            compiled_local[ref.alias] = local.compile(
                SingleRowBinder(scopes[ref.alias], ref.alias)
            )
            local_specs[ref.alias] = comparison_specs(
                local, scopes[ref.alias], ref.alias
            )

    if auto_index:
        for edge in plan.edges:
            for alias, position in (
                (edge.left_alias, edge.left_pos),
                (edge.right_alias, edge.right_pos),
            ):
                table = db.table(table_for_alias[alias])
                if table.indexes.best_for((position,)) is None:
                    table.create_index([table.schema.attributes[position].name])

    table_names = set(table_for_alias.values())
    schemas = {name: db.table(name).schema for name in table_names}
    index_versions = {
        name: db.table(name).indexes.version for name in table_names
    }
    if metrics:
        metrics.count(Metrics.PLANS_PREPARED)
    return PreparedCQ(
        query,
        scopes,
        out_schema,
        plan,
        never_matches,
        compiled_local,
        table_for_alias,
        schemas,
        index_versions,
        local_specs=local_specs,
    )


class PlanCache:
    """A keyed cache of prepared plans with staleness validation.

    The manager and the server key entries by query SQL, so identical
    CQs or subscriptions share one plan (dropped with the last of
    them). Every lookup revalidates against the live catalog —
    schema identity and index-set versions — and silently re-prepares
    on staleness, charging ``plan_cache_invalidations``.
    """

    def __init__(
        self,
        db: Database,
        metrics: Optional[Metrics] = None,
        auto_index: bool = True,
    ):
        self.db = db
        self.metrics = metrics
        self.auto_index = auto_index
        self._lock = Lock()
        self._plans: Dict[str, PreparedCQ] = {}

    def get(self, key: str, query: SPJQuery) -> PreparedCQ:
        """The cached plan for ``key``, re-prepared when stale."""
        with self._lock:
            prepared = self._plans.get(key)
            if prepared is not None:
                if prepared.is_valid(self.db):
                    if self.metrics:
                        self.metrics.count(Metrics.PLAN_CACHE_HITS)
                    return prepared
                del self._plans[key]
                if self.metrics:
                    self.metrics.count(Metrics.PLAN_CACHE_INVALIDATIONS)
            prepared = prepare_cq(
                query, self.db, metrics=self.metrics, auto_index=self.auto_index
            )
            self._plans[key] = prepared
            return prepared

    def invalidate(self, key: str) -> bool:
        """Drop one entry; True when something was cached under ``key``."""
        with self._lock:
            found = self._plans.pop(key, None) is not None
        if found and self.metrics:
            self.metrics.count(Metrics.PLAN_CACHE_INVALIDATIONS)
        return found

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._plans

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def __repr__(self) -> str:
        return f"PlanCache({len(self)} plans)"
