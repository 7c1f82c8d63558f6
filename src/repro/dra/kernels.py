"""Columnar Z-set kernels: batch evaluation of truth-table terms.

The row evaluator (:mod:`repro.dra.terms`) interprets one partial at a
time: every attach is two tuple appends per output row, every residual
a per-row closure call, every projection a per-row generator. That is
the textbook interpreted-IVM shape DBToaster and DBSP showed you can
beat by an order of magnitude — not with different algebra but by
compiling the maintenance program into per-update *kernels* that sweep
whole batches.

This module is that compilation step for the DRA. A term's data lives
in a :class:`ColumnBatch` — struct-of-arrays: one tid column and one
values column per attachment slot plus a signed-weight vector — and a
:class:`TermKernel` (compiled once per ``(substituted set, seed)`` from
the existing :class:`~repro.dra.prepared.TermPlan`, memoized on the
prepared CQ) executes a flat list of kernel calls:

* **seed** — the delta operand's signed rows, exposed zero-copy as the
  batch's first slot (:meth:`repro.dra.operands.DeltaOperand.columns`);
* **filter** — batched residual application. Comparison conjuncts over
  column refs and literals specialize to single- or two-column index
  selectors (``[i for i, row in enumerate(col) if ...]``); anything
  else falls back to the row-compiled predicate over zipped slot
  columns. A stage that keeps everything returns the batch unchanged;
* **attach** — hash-join probe, one probe per *distinct* non-NULL key
  of the batch. Where a base operand answers every key with one row
  (a foreign key into a primary key; an unchanged operand builds that
  answer at C level), rows pick their match by ``map(found.get,
  keys)`` and the rows without one drop out by ``compress``. Otherwise
  the batch is grouped by key and output columns are built by
  index-gather: one ``gather`` list of source row indexes drives
  ``[col[i] for i in gather]`` per existing column, and the attached
  slot's columns are appended fresh;
* **accumulate** — fused projection + signed sum straight into the
  execution-wide weights dict: projection columns are gathered by
  ``(slot, position)`` and zipped into output tuples, composite result
  tids by zipping permuted tid columns.

A paired seed (:func:`repro.dra.operands.paired_columns`, the one term
of an execution) carries a modify as one row: its new values in the
seed slot, its old values in the batch's ``olds`` column, which every
gather moves along. The row attaches and passes its residuals once —
every column they read is the same on both sides — and accumulate
projects both vectors and emits its result tid, old values and new
values into the execution's modify columns instead of ±1 weights.

Any stage that empties the batch short-circuits the term. Kernel-level
observability is accumulated locally (one
``kernel_calls``/``kernel_rows``/``kernel_pairs`` flush per execution,
never per row; a pair row counts once in ``kernel_rows``) and each
kernel call gets a ``dra.kernel`` span when tracing is on.

Columnar output is bit-identical to the row evaluator by construction
(same operand indexes, same NULL semantics, same weights algebra);
``tests/dra/test_kernels_property.py`` holds that equivalence under
randomized schemas, updates, and plans.
"""

from __future__ import annotations

import itertools
import operator
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.relational.expressions import ColumnRef, Literal
from repro.relational.predicates import Comparison, _SWAPPED as _SWAP
from repro.relational.relation import Tid, Values

_OPS: Dict[str, Callable[[Any, Any], bool]] = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

# Kernel kinds, used for span/debug labels.
SEED = "seed"
FILTER = "filter"
ATTACH_DELTA = "attach_delta"
ATTACH_BASE = "attach_base"
ACCUMULATE = "accumulate"


class ColumnBatch:
    """Struct-of-arrays partials of one term evaluation.

    ``tids[slot]`` / ``vals[slot]`` are parallel per-slot columns (one
    tid, one values tuple per row), ``weights`` the signed-weight
    vector. ``olds`` is None, or the seed slot's old-values column of
    a paired seed (:func:`repro.dra.operands.paired_columns`): a pair
    row's old values, None on a row that is one signed side. Every
    kernel that gathers or drops rows moves it with the other columns.
    Columns are append-only and shared freely between batches:
    kernels build new outer lists but never mutate a column in place,
    which is what lets the seed kernel expose the delta operand's
    cached columns zero-copy.
    """

    __slots__ = ("tids", "vals", "weights", "olds")

    def __init__(
        self,
        tids: List[List[Tid]],
        vals: List[List[Values]],
        weights: List[int],
        olds: Optional[List[Optional[Values]]] = None,
    ):
        self.tids = tids
        self.vals = vals
        self.weights = weights
        self.olds = olds

    def __len__(self) -> int:
        return len(self.weights)

    def __repr__(self) -> str:
        return (
            f"ColumnBatch({len(self.tids)} slots, {len(self.weights)} rows)"
        )


class KernelStats:
    """Local accumulator for kernel observability — one metrics flush
    per execution instead of one count per kernel call (let alone per
    row)."""

    __slots__ = ("calls", "rows", "pairs")

    def __init__(self):
        self.calls = 0
        self.rows = 0
        #: Seed rows that travelled as pairs (each also counts once in
        #: ``rows`` per kernel that swept it).
        self.pairs = 0

    def add(self, calls: int, rows: int) -> None:
        self.calls += calls
        self.rows += rows


# A kernel: (batch, delta_operands, base_operands) -> batch. The seed
# kernel ignores its (None) input batch.
Kernel = Callable[
    [Optional[ColumnBatch], Dict[str, Any], Dict[str, Any]], ColumnBatch
]


def _make_seed(alias: str) -> Kernel:
    def kernel(batch, delta_operands, base_operands):
        operand = delta_operands[alias]
        tids, vals, weights = operand.columns()
        return ColumnBatch([tids], [vals], weights, operand.olds)

    return kernel


def _classify(expr, plan):
    """``("col", slot, position)`` / ``("lit", value)`` / None."""
    if isinstance(expr, ColumnRef):
        return ("col",) + plan.resolve(expr)
    if isinstance(expr, Literal):
        return ("lit", expr.value)
    return None


def _make_selector(pred, row_compiled, plan) -> Callable[[ColumnBatch], List[int]]:
    """A whole-batch selector returning the kept row indexes.

    Comparisons over column refs/literals specialize to direct column
    sweeps with SQL NULL semantics (NULL compares false); everything
    else runs the row-compiled predicate over zipped slot columns —
    the zipped tuple-of-rows *is* the slot-indexed env the closure was
    compiled against.
    """
    if isinstance(pred, Comparison) and pred.op in _OPS:
        op = _OPS[pred.op]
        left = _classify(pred.left, plan)
        right = _classify(pred.right, plan)
        if left and right:
            if left[0] == "col" and right[0] == "lit":
                __, s, p = left
                const = right[1]

                def select(batch, _s=s, _p=p, _c=const, _op=op):
                    if _c is None:
                        return []
                    return [
                        i
                        for i, row in enumerate(batch.vals[_s])
                        if (v := row[_p]) is not None and _op(v, _c)
                    ]

                return select
            if left[0] == "lit" and right[0] == "col":
                const = left[1]
                __, s, p = right

                def select(batch, _s=s, _p=p, _c=const, _op=op):
                    if _c is None:
                        return []
                    return [
                        i
                        for i, row in enumerate(batch.vals[_s])
                        if (v := row[_p]) is not None and _op(_c, v)
                    ]

                return select
            if left[0] == "col" and right[0] == "col":
                __, s1, p1 = left
                __, s2, p2 = right

                if s1 == s2:

                    def select(batch, _s=s1, _p1=p1, _p2=p2, _op=op):
                        return [
                            i
                            for i, row in enumerate(batch.vals[_s])
                            if (a := row[_p1]) is not None
                            and (b := row[_p2]) is not None
                            and _op(a, b)
                        ]

                else:

                    def select(batch, _s1=s1, _p1=p1, _s2=s2, _p2=p2, _op=op):
                        return [
                            i
                            for i, (ra, rb) in enumerate(
                                zip(batch.vals[_s1], batch.vals[_s2])
                            )
                            if (a := ra[_p1]) is not None
                            and (b := rb[_p2]) is not None
                            and _op(a, b)
                        ]

                return select

    def select(batch, _pred=row_compiled):
        return [i for i, env in enumerate(zip(*batch.vals)) if _pred(env)]

    return select


def _make_filter(pred, row_compiled, plan) -> Kernel:
    selector = _make_selector(pred, row_compiled, plan)

    def kernel(batch, delta_operands, base_operands):
        keep = selector(batch)
        if len(keep) == len(batch.weights):
            return batch
        weights = batch.weights
        olds = batch.olds
        # (Nested comprehensions on one line share one cProfile key.)
        return ColumnBatch(
            list([c[i] for i in keep] for c in batch.tids),
            list([c[i] for i in keep] for c in batch.vals),
            [weights[i] for i in keep],
            None if olds is None else [olds[i] for i in keep],
        )

    return kernel


def _make_keys(
    sources: Tuple[Tuple[int, int], ...]
) -> Callable[[ColumnBatch], List[Tuple]]:
    """The join key of every row of a batch, as tuples, built at C level
    (``map(itemgetter)`` per key column, zipped). Keys stay tuples
    because probe sources are keyed by tuples. A key holding a NULL
    stays in the list but matches nothing: no bucket or probe answer is
    keyed by one, since NULL equals nothing, itself included."""
    if len(sources) == 1:
        ((s, p),) = sources
        get = operator.itemgetter(p)
        return lambda batch: list(zip(map(get, batch.vals[s])))
    getters = tuple((s, operator.itemgetter(p)) for s, p in sources)
    return lambda batch: list(
        zip(*[map(get, batch.vals[s]) for s, get in getters])
    )


def _group_rows(keys: List[Tuple]) -> Dict[Tuple, List[int]]:
    """``{join key: [row indexes]}`` of a batch's keys, in one pass."""
    groups: Dict[Tuple, List[int]] = {}
    get = groups.get
    for i, key in enumerate(keys):
        lst = get(key)
        if lst is None:
            groups[key] = [i]
        else:
            lst.append(i)
    return groups


def _extend(
    batch: ColumnBatch,
    gather: List[int],
    new_tids: List[Tid],
    new_vals: List[Values],
    out_weights: List[int],
) -> ColumnBatch:
    """Index-gather the existing columns through ``gather`` and append
    the freshly attached slot."""
    # (Nested comprehensions on one line share one cProfile key.)
    tids = list([c[i] for i in gather] for c in batch.tids)
    vals = list([c[i] for i in gather] for c in batch.vals)
    tids.append(new_tids)
    vals.append(new_vals)
    olds = batch.olds
    return ColumnBatch(
        tids,
        vals,
        out_weights,
        None if olds is None else [olds[i] for i in gather],
    )


def _make_attach_delta(step) -> Kernel:
    alias = step.alias
    positions = step.key_positions
    if positions:
        keys_of = _make_keys(step.key_sources)

        def kernel(batch, delta_operands, base_operands):
            buckets = delta_operands[alias].index_on(positions)
            bucket_get = buckets.get
            src_w = batch.weights
            gather: List[int] = []
            new_tids: List[Tid] = []
            new_vals: List[Values] = []
            out_w: List[int] = []
            ge, te, ve, we = (
                gather.extend,
                new_tids.extend,
                new_vals.extend,
                out_w.extend,
            )
            # Group-by-key: the per-output-row work is list extension
            # and repetition at C speed, one Python iteration per
            # (distinct key, bucket row) pair instead of per output row.
            for key, idxs in _group_rows(keys_of(batch)).items():
                bucket = bucket_get(key)
                if not bucket:
                    continue
                n = len(idxs)
                w_g = [src_w[i] for i in idxs]
                for tid, values, w in bucket:
                    ge(idxs)
                    te([tid] * n)
                    ve([values] * n)
                    we([w0 * w for w0 in w_g] if w != 1 else w_g)
            return _extend(batch, gather, new_tids, new_vals, out_w)

    else:

        def kernel(batch, delta_operands, base_operands):
            rows = delta_operands[alias].rows
            gather: List[int] = []
            new_tids: List[Tid] = []
            new_vals: List[Values] = []
            out_w: List[int] = []
            if rows:
                n = len(rows)
                row_tids = [t for t, __, __ in rows]
                row_vals = [v for __, v, __ in rows]
                row_ws = [w for __, __, w in rows]
                for i, w0 in enumerate(batch.weights):
                    gather.extend([i] * n)
                    new_tids.extend(row_tids)
                    new_vals.extend(row_vals)
                    out_w.extend(
                        row_ws if w0 == 1 else [w0 * w for w in row_ws]
                    )
            return _extend(batch, gather, new_tids, new_vals, out_w)

    return kernel


def _make_attach_scan(step) -> Kernel:
    """Cartesian attach of a base operand with no join key."""
    alias = step.alias

    def kernel(batch, delta_operands, base_operands):
        rows = base_operands[alias].scan()
        gather: List[int] = []
        new_tids: List[Tid] = []
        new_vals: List[Values] = []
        out_w: List[int] = []
        if rows:
            n = len(rows)
            row_tids = [t for t, __ in rows]
            row_vals = [v for __, v in rows]
            for i, w0 in enumerate(batch.weights):
                gather.extend([i] * n)
                new_tids.extend(row_tids)
                new_vals.extend(row_vals)
                out_w.extend([w0] * n)
        return _extend(batch, gather, new_tids, new_vals, out_w)

    return kernel


def _fuse_step_residual(step, plan):
    """The step's residual as ``(batch_slot, batch_pos, match_pos, op)``
    when it is one cross-slot comparison, oriented so it reads
    ``op(batch_value, match_value)`` and evaluated per (batch row, probe
    match) pair during attachment; else None, and the compiler keeps
    the plain attach followed by filter stages.

    (A comparison with a literal reads one alias, so the planner always
    makes it a local predicate, never a residual.)
    """
    if len(step.residual_preds) != 1:
        return None
    (pred,) = step.residual_preds
    if not (isinstance(pred, Comparison) and pred.op in _OPS):
        return None
    left = _classify(pred.left, plan)
    right = _classify(pred.right, plan)
    if not (left and right and left[0] == right[0] == "col"):
        return None
    new_slot = plan.slots[step.alias]
    op_name = pred.op
    if left[1] == new_slot:
        left, right, op_name = right, left, _SWAP[op_name]
    if left[1] == new_slot or right[1] != new_slot:
        return None
    return (left[1], left[2], right[2], _OPS[op_name])


_TID = operator.itemgetter(0)
_VALUES = operator.itemgetter(1)


def _attach_by_map(batch, keys, found, pair) -> ColumnBatch:
    """Attach where every probed key has exactly one match: each row
    picks its match by ``map(found.get, keys)`` and ``compress`` drops
    the rows without one, all at C level; only the pair condition runs
    per row in Python."""
    hits = list(map(found.get, keys))
    if pair is not None:
        b_slot, b_pos, m_pos, pair_op = pair
        mask = [
            h is not None
            and (x := r[b_pos]) is not None
            and (y := h[1][m_pos]) is not None
            and pair_op(x, y)
            for r, h in zip(batch.vals[b_slot], hits)
        ]
        keep_all = all(mask)
    else:
        keep_all = None not in hits
        mask = None if keep_all else list(map(operator.truth, hits))
    olds = batch.olds
    if keep_all:
        tids = list(batch.tids)
        vals = list(batch.vals)
        weights = batch.weights
    else:
        hits = list(itertools.compress(hits, mask))
        tids = [list(itertools.compress(c, mask)) for c in batch.tids]
        vals = [list(itertools.compress(c, mask)) for c in batch.vals]
        weights = list(itertools.compress(batch.weights, mask))
        if olds is not None:
            olds = list(itertools.compress(olds, mask))
    tids.append(list(map(_TID, hits)))
    vals.append(list(map(_VALUES, hits)))
    return ColumnBatch(tids, vals, weights, olds)


def _attach_by_group(batch, keys, matches_for, pair) -> ColumnBatch:
    """Attach where some key fans out: the batch is grouped by key and
    output columns are gathered per group, the pair condition iterating
    whichever side of each group is smaller."""
    src_w = batch.weights
    gather: List[int] = []
    new_tids: List[Tid] = []
    new_vals: List[Values] = []
    out_w: List[int] = []
    ge, te, ve, we = (
        gather.extend,
        new_tids.extend,
        new_vals.extend,
        out_w.extend,
    )
    get = matches_for.get
    if pair is not None:
        b_slot, b_pos, m_pos, pair_op = pair
        bcol = batch.vals[b_slot]
    for key, idxs in _group_rows(keys).items():
        matches = get(key)
        if not matches:
            continue
        if pair is None:
            n = len(idxs)
            w_g = [src_w[i] for i in idxs]
            for tid, values in matches:
                ge(idxs)
                te([tid] * n)
                ve([values] * n)
                we(w_g)
        elif len(matches) <= len(idxs):
            for tid, values in matches:
                y = values[m_pos]
                if y is None:
                    continue
                sel = [
                    i
                    for i in idxs
                    if (x := bcol[i][b_pos]) is not None and pair_op(x, y)
                ]
                if sel:
                    n = len(sel)
                    ge(sel)
                    te([tid] * n)
                    ve([values] * n)
                    we([src_w[i] for i in sel])
        else:
            for i in idxs:
                x = bcol[i][b_pos]
                if x is None:
                    continue
                sel = [
                    tv
                    for tv in matches
                    if (y := tv[1][m_pos]) is not None and pair_op(x, y)
                ]
                if sel:
                    n = len(sel)
                    ge([i] * n)
                    te([tv[0] for tv in sel])
                    ve([tv[1] for tv in sel])
                    we([src_w[i]] * n)
    return _extend(batch, gather, new_tids, new_vals, out_w)


def _make_attach_base(step, pair=None) -> Kernel:
    """Hash-join attach of a base operand, with the step's fusable
    residual (see :func:`_fuse_step_residual`) folded into match
    selection: a rejected (row, match) pair is never extended into the
    output columns.

    One probe per distinct non-NULL key of the whole batch, answered in
    the operand's old state. When the operand answers every key with
    one row — a join from a foreign key into an unchanged primary key
    (:meth:`repro.dra.operands.BaseOperand.probe_batch`) — the attach
    works per row (:func:`_attach_by_map`); otherwise per key group
    (:func:`_attach_by_group`).
    """
    alias = step.alias
    positions = step.key_positions
    if not positions:
        return _make_attach_scan(step)
    keys_of = _make_keys(step.key_sources)
    single = len(positions) == 1

    def kernel(batch, delta_operands, base_operands):
        keys = keys_of(batch)
        distinct = set(keys)
        if single:
            distinct.discard((None,))
        else:
            distinct = [k for k in distinct if None not in k]
        answer, unique = base_operands[alias].probe_batch(positions, distinct)
        if not answer:
            return _extend(batch, [], [], [], [])
        if unique:
            return _attach_by_map(batch, keys, answer, pair)
        return _attach_by_group(batch, keys, answer, pair)

    return kernel


def _make_accumulate(plan):
    """Fused project + signed-sum into the execution-wide weights dict.

    Returns ``(batch, weights, modifies) -> None``. A batch without pair
    rows only sums. A pair row projects both value vectors — its old
    one reads the seed slot from the old column — and appends its
    result tid, old values and new values to the three ``modifies``
    columns unless the two projections are equal; it never touches
    ``weights``.
    """
    refs = plan.project_refs
    perm = plan.tid_perm
    row_project = plan.project

    def project(vals, n):
        if refs is not None:
            if refs:
                # (Nested comprehensions on one line share one cProfile key.)
                cols = [map(operator.itemgetter(p), vals[s]) for s, p in refs]
                return zip(*cols)
            return iter([()] * n)
        return (row_project(env) for env in zip(*vals))

    def result_tids(tids):
        if perm is None:
            return iter(tids[0])
        return zip(*(tids[i] for i in perm))

    def signed_sum(tid_iter, vals_iter, batch_weights, weights):
        get = weights.get
        pop = weights.pop
        # The inner zip materializes each (result tid, values) key
        # tuple at C level; no per-row unpack-and-repack in bytecode.
        for key, w in zip(zip(tid_iter, vals_iter), batch_weights):
            total = get(key, 0) + w
            if total:
                weights[key] = total
            else:
                pop(key, None)

    def accumulate_pairs(batch: ColumnBatch, weights: Dict, modifies) -> None:
        olds = batch.olds
        tids = list(result_tids(batch.tids))
        after = list(project(batch.vals, len(olds)))
        is_pair = list(map(operator.is_not, olds, itertools.repeat(None)))
        if not all(is_pair):
            single = list(map(operator.not_, is_pair))
            signed_sum(
                itertools.compress(tids, single),
                itertools.compress(after, single),
                itertools.compress(batch.weights, single),
                weights,
            )
            tids = list(itertools.compress(tids, is_pair))
            after = list(itertools.compress(after, is_pair))
            old_vals = [list(itertools.compress(c, is_pair)) for c in batch.vals]
            old_vals[0] = list(itertools.compress(olds, is_pair))
        else:
            old_vals = list(batch.vals)
            old_vals[0] = olds
        before = list(project(old_vals, len(tids)))
        changed = list(map(operator.ne, before, after))
        out_tids, out_olds, out_news = modifies
        out_tids.extend(itertools.compress(tids, changed))
        out_olds.extend(itertools.compress(before, changed))
        out_news.extend(itertools.compress(after, changed))

    def accumulate(batch: ColumnBatch, weights: Dict, modifies) -> None:
        if batch.olds is not None:
            accumulate_pairs(batch, weights, modifies)
            return
        # The signed sum inline: most executions are small, and this is
        # the one call they pay here.
        n = len(batch.weights)
        if refs is not None:
            if refs:
                # (Nested comprehensions on one line share one cProfile key.)
                cols = [map(operator.itemgetter(p), batch.vals[s]) for s, p in refs]
                vals_iter = zip(*cols)
            else:
                vals_iter = iter([()] * n)
        else:
            vals_iter = (row_project(env) for env in zip(*batch.vals))
        if perm is None:
            tid_iter = iter(batch.tids[0])
        else:
            tid_iter = zip(*(batch.tids[i] for i in perm))
        get = weights.get
        pop = weights.pop
        for key, w in zip(zip(tid_iter, vals_iter), batch.weights):
            total = get(key, 0) + w
            if total:
                weights[key] = total
            else:
                pop(key, None)

    return accumulate


class TermKernel:
    """The compiled kernel pipeline of one truth-table term."""

    __slots__ = ("plan", "ops", "_accumulate")

    def __init__(self, plan, ops, accumulate_fn):
        self.plan = plan
        #: ``(kind, alias, kernel)`` triples, in execution order.
        self.ops = ops
        self._accumulate = accumulate_fn

    def execute(
        self,
        delta_operands: Dict[str, Any],
        base_operands: Dict[str, Any],
        weights: Dict,
        stats: Optional[KernelStats] = None,
        tracer=None,
        modifies: Optional[Tuple[List, List, List]] = None,
    ) -> int:
        """Run the pipeline, accumulating into ``weights``; returns the
        number of candidate rows produced (pre-accumulation), exactly
        the row evaluator's ``len(entries)`` — a pair row counts once.
        A paired seed needs ``modifies``, the ``(result tids, old
        values, new values)`` columns its pair rows are appended to."""
        trace = tracer is not None and tracer.enabled
        calls = 0
        rows = 0
        batch: Optional[ColumnBatch] = None
        for kind, alias, fn in self.ops:
            rows_in = len(batch.weights) if batch is not None else 0
            if trace:
                with tracer.span(
                    "dra.kernel", kernel=kind, alias=alias
                ) as span:
                    batch = fn(batch, delta_operands, base_operands)
                    span.set(rows_in=rows_in, rows_out=len(batch.weights))
            else:
                batch = fn(batch, delta_operands, base_operands)
            calls += 1
            # Rows swept by this call: the input batch (the seed sweeps
            # what it materializes).
            rows += rows_in if kind != SEED else len(batch.weights)
            if not batch.weights:
                if stats is not None:
                    stats.add(calls, rows)
                return 0
        produced = len(batch.weights)
        calls += 1
        rows += produced
        if trace:
            with tracer.span(
                "dra.kernel", kernel=ACCUMULATE, alias=self.plan.seed
            ) as span:
                self._accumulate(batch, weights, modifies)
                span.set(rows_in=produced, rows_out=produced)
        else:
            self._accumulate(batch, weights, modifies)
        if stats is not None:
            stats.add(calls, rows)
        return produced

    def __repr__(self) -> str:
        kinds = "→".join(kind for kind, __, __ in self.ops)
        return f"TermKernel({kinds}→{ACCUMULATE})"


def compile_term_kernel(plan) -> TermKernel:
    """Specialize the kernel pipeline of one term from its prepared
    :class:`~repro.dra.prepared.TermPlan`."""
    ops: List[Tuple[str, str, Kernel]] = [(SEED, plan.seed, _make_seed(plan.seed))]
    for compiled, pred in zip(plan.seed_residuals, plan.seed_residual_preds):
        ops.append((FILTER, plan.seed, _make_filter(pred, compiled, plan)))
    for step in plan.steps:
        fused = None
        if step.is_delta:
            ops.append((ATTACH_DELTA, step.alias, _make_attach_delta(step)))
        else:
            if len(step.residuals) == 1 and step.key_positions:
                fused = _fuse_step_residual(step, plan)
            # When the step's residual fuses into the attach, no filter
            # stage follows it.
            ops.append((ATTACH_BASE, step.alias, _make_attach_base(step, fused)))
        if fused is None:
            for compiled, pred in zip(step.residuals, step.residual_preds):
                ops.append(
                    (FILTER, step.alias, _make_filter(pred, compiled, plan))
                )
    return TermKernel(plan, tuple(ops), _make_accumulate(plan))
