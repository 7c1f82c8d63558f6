"""The Differential Re-evaluation Algorithm (paper Algorithm 1).

Given (i) the SPJ definition of a continual query, (ii) access to the
base relations, (iii) the differential relations of the changed
operands, (iv) the timestamp of the last execution, and (v) the
previous result, :func:`dra_execute` produces the current execution's
result differentially:

1. build the truth table over the changed operand relations;
2. for each non-zero row, evaluate the SPJ term with ΔR_i substituted
   at the 1-positions (seeded at deltas, probing base relations);
3. union (signed-sum) the term results;
4. assemble the user-facing result (differential / complete /
   deletions) via :class:`repro.dra.assembly.DRAResult`.

Inputs (iii)/(iv) interact exactly as the paper describes: the deltas
handed to the algorithm are consolidated from each table's update log
*restricted to timestamps after the last execution* — the "proper
timestamp predicate" the CQ manager appends.

Planning and compilation happen once, not per refresh: pass a
``prepared`` plan (see :func:`repro.dra.prepared.prepare_cq`) to skip
scope/plan/predicate/projection derivation entirely — the manager and
server cache one per CQ. Without it, the query is prepared on the fly
(the one-shot path for baselines and demos), which leaves results
identical and only costs the compile.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from repro.errors import QueryError
from repro.metrics import Metrics
from repro.relational.algebra import SPJQuery
from repro.relational.relation import Relation
from repro.storage.database import Database
from repro.storage.timestamps import Timestamp
from repro.delta.capture import deltas_since
from repro.delta.differential import DeltaRelation
from repro.dra.assembly import DRAResult, TermTrace, accumulate, to_delta
from repro.dra.kernels import KernelStats
from repro.dra.operands import (
    BaseOperand,
    DeltaOperand,
    SignedColumns,
    signed_columns,
)
from repro.dra.prepared import PreparedCQ, prepare_cq
from repro.dra.terms import evaluate_term


def dra_execute(
    query: SPJQuery,
    db: Database,
    deltas: Optional[Mapping[str, DeltaRelation]] = None,
    since: Optional[Timestamp] = None,
    previous: Optional[Relation] = None,
    ts: Optional[Timestamp] = None,
    metrics: Optional[Metrics] = None,
    explain: bool = False,
    prepared: Optional[PreparedCQ] = None,
    tracer=None,
    columnar: bool = False,
    seeds: Optional[Mapping[str, SignedColumns]] = None,
) -> DRAResult:
    """Differentially re-evaluate ``query`` against ``db``.

    Either pass consolidated per-table ``deltas`` directly (keys are
    table names) or a ``since`` timestamp from which they are read out
    of the tables' update logs. ``previous`` is the retained result of
    the last execution — optional; without it only differential
    delivery is available. ``ts`` stamps the produced delta entries
    (defaults to the database's current time). ``prepared`` must have
    been compiled from an equivalent query over the same catalog (the
    caller — typically a plan cache — is responsible for staleness);
    omitted, the query is prepared here, once, for this execution.
    ``tracer`` (a :class:`repro.obs.trace.Tracer`) wraps each evaluated
    truth-table term in a ``dra.term`` span. With ``columnar=True``,
    terms execute as compiled struct-of-arrays kernel pipelines
    (:mod:`repro.dra.kernels`) instead of the per-row interpreter —
    identical results, batch-at-a-time work. ``seeds`` is the routed
    entry of a predicate-index pass over exactly these ``deltas``
    (:meth:`~repro.dra.predindex.PredicateIndex.match_batch`): per
    alias, the signed sides that already passed its local predicate —
    the operands adopt them instead of filtering the batch again, and
    an alias without a seed is locally irrelevant. None (nothing
    routed: no index, or it does not vouch for this query) filters
    here.
    """
    if prepared is None:
        prepared = prepare_cq(query, db, metrics=metrics, auto_index=False)
    if deltas is None:
        if since is None:
            raise QueryError("dra_execute needs either deltas or since=")
        deltas = deltas_since(
            [db.table(name) for name in set(query.table_names)], since
        )
    if ts is None:
        ts = db.now()

    out_schema = prepared.out_schema

    # Constant conjuncts gate the whole query: if any is false the
    # result is empty at every execution, so the delta is empty too.
    if prepared.never_matches:
        return DRAResult(
            DeltaRelation(out_schema), out_schema, previous, ts, (), 0
        )

    # Build operands once; they are shared by all truth-table terms.
    compiled_local = prepared.compiled_local
    delta_operands: Dict[str, DeltaOperand] = {}
    base_operands: Dict[str, BaseOperand] = {}
    changed = []
    local_specs = prepared.local_specs
    for ref in query.relations:
        table = db.table(ref.table)
        table_delta = deltas.get(ref.table)
        local = compiled_local[ref.alias]
        spec = local_specs.get(ref.alias)
        if table_delta is not None and not table_delta.is_empty():
            if seeds is None:
                columns = signed_columns(table_delta, local, spec)
                read = len(table_delta)
            else:
                columns = seeds.get(ref.alias, ((), (), ()))
                read = len(columns[2])
            if metrics and read:
                metrics.count(Metrics.DELTA_ROWS_READ, read)
            # Local filtering may leave nothing: every change to this
            # relation is irrelevant to the query (Section 5.2), and
            # σ_local(R_old) == σ_local(R_new), so the alias can be
            # treated as unchanged.
            if columns[2]:
                delta_operands[ref.alias] = DeltaOperand(ref.alias, columns)
                changed.append(ref.alias)
        base_operands[ref.alias] = BaseOperand(
            ref.alias, table, table_delta, local, metrics, filter_spec=spec
        )

    if not changed:
        # Irrelevant-update fast path: nothing to re-evaluate.
        if metrics:
            metrics.count(Metrics.EXECUTIONS_SKIPPED)
        return DRAResult(
            DeltaRelation(out_schema), out_schema, previous, ts, (), 0, skipped=True
        )

    changed_key = tuple(changed)
    traces: Optional[list] = [] if explain else None

    # Guard the per-term span plumbing so the hot loop stays unchanged
    # when tracing is off (the overwhelmingly common case).
    trace_terms = tracer is not None and tracer.enabled

    def run_terms():
        for row in prepared.truth_rows(changed_key):
            seed = min(row, key=lambda a: len(delta_operands[a]))
            if trace_terms:
                with tracer.span(
                    "dra.term", row=",".join(row), seed=seed
                ) as span:
                    entries = evaluate_term(
                        prepared.term_plan(row, seed),
                        delta_operands,
                        base_operands,
                        metrics,
                    )
                    span.set(
                        seed_rows=len(delta_operands[seed]),
                        entries=len(entries),
                    )
            else:
                entries = evaluate_term(
                    prepared.term_plan(row, seed),
                    delta_operands,
                    base_operands,
                    metrics,
                )
            if traces is not None:
                traces.append(
                    TermTrace(
                        row, seed, len(delta_operands[seed]), len(entries)
                    )
                )
            yield entries

    def run_terms_columnar():
        """Step 2+3 in one pass: each term's kernel pipeline sums its
        weighted candidates straight into the shared weights dict.
        Kernel counters accumulate locally and flush once."""
        weights: Dict = {}
        stats = KernelStats()
        for row in prepared.truth_rows(changed_key):
            seed = min(row, key=lambda a: len(delta_operands[a]))
            kernel = prepared.term_kernel(row, seed)
            if metrics:
                metrics.count(Metrics.TERMS_EVALUATED)
            if trace_terms:
                with tracer.span(
                    "dra.term", row=",".join(row), seed=seed
                ) as span:
                    produced = kernel.execute(
                        delta_operands, base_operands, weights, stats, tracer
                    )
                    span.set(
                        seed_rows=len(delta_operands[seed]),
                        entries=produced,
                    )
            else:
                produced = kernel.execute(
                    delta_operands, base_operands, weights, stats
                )
            if traces is not None:
                traces.append(
                    TermTrace(row, seed, len(delta_operands[seed]), produced)
                )
        if metrics and stats.calls:
            metrics.count(Metrics.KERNEL_CALLS, stats.calls)
            metrics.count(Metrics.KERNEL_ROWS, stats.rows)
        return weights

    weights = run_terms_columnar() if columnar else accumulate(run_terms())
    delta = to_delta(weights, out_schema, ts)
    if metrics:
        metrics.count(Metrics.EXECUTIONS)
    return DRAResult(
        delta,
        out_schema,
        previous,
        ts,
        changed_key,
        prepared.truth_table(changed_key).term_count,
        traces=traces,
    )
