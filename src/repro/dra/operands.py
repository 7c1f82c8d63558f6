"""Term operands: signed delta seeds and probe-able base relations.

A term of the truth-table expansion joins two kinds of operands:

* :class:`DeltaOperand` — the differential relation of a changed table,
  viewed as a signed set: each entry contributes its old side with
  weight −1 and its new side with weight +1 (after local-predicate
  filtering, the paper's "Select before Join" refinement). Where the
  execution has one term, a modify whose two sides both pass the
  filter and agree on every column the term reads before projection
  stays one *pair* row instead (:func:`paired_columns`): the paper's
  differential relations keep a modification as its own kind (§4.1),
  and both sides would attach and filter identically;
* :class:`BaseOperand` — a table at its *old* state (Algorithm 1 input
  (ii): base contents as of the last execution), which is only ever
  probed through hash indexes or, lacking a suitable index, scanned
  once into a transient hash table.
"""

from __future__ import annotations

import itertools
import operator
from typing import Dict, List, Optional, Tuple

from repro.metrics import Metrics
from repro.relational.predicates import CompiledPredicate
from repro.relational.relation import Tid, Values
from repro.storage.table import Table
from repro.delta.differential import DeltaRelation
from repro.delta.views import OldStateIndex, OldStateView

# One signed row of a delta operand.
SignedRow = Tuple[Tid, Values, int]  # (tid, values, weight ±1)
# The same rows struct-of-arrays: parallel (tids, values, weights).
SignedColumns = Tuple[List[Tid], List[Values], List[int]]
# Parallel to a paired operand's rows: a pair row's old values, None for
# a row that is one signed side.
OldColumn = List[Optional[Values]]

# A flat local-predicate spec: ((position, op, constant), ...) —
# see repro.relational.predicates.comparison_specs. Specs let the
# batch filters below run as plain comprehensions instead of calling
# a compiled predicate closure once per row.
FilterSpec = Tuple[Tuple[int, object, object], ...]

_FIRST = operator.itemgetter(0)


def _spec_filter(rows, spec: FilterSpec):
    """Filter ``(tid, values)`` pairs by a comparison spec, inline.

    Arity 1 and 2 (the overwhelmingly common local predicates) get
    dedicated comprehensions; longer conjunctions fall back to a loop
    that is still free of per-row closure calls.
    """
    if len(spec) == 1:
        ((p, op, c),) = spec
        return [(t, v) for t, v in rows if (x := v[p]) is not None and op(x, c)]
    if len(spec) == 2:
        (p1, o1, c1), (p2, o2, c2) = spec
        return [
            (t, v)
            for t, v in rows
            if (x := v[p1]) is not None
            and o1(x, c1)
            and (y := v[p2]) is not None
            and o2(y, c2)
        ]
    out = []
    append = out.append
    for t, v in rows:
        for p, op, c in spec:
            x = v[p]
            if x is None or not op(x, c):
                break
        else:
            append((t, v))
    return out


def signed_columns(
    delta: DeltaRelation,
    local_predicate: Optional[CompiledPredicate],
    filter_spec: Optional[FilterSpec] = None,
) -> SignedColumns:
    """The locally filtered signed sides of ``delta`` as parallel
    ``(tids, values, weights)`` columns, built in one pass.

    Old side weighs −1, new side +1, in entry order — the Z-set reading
    of the consolidated delta (§4.1) with the local predicate fused
    in. This is the operand seed for callers with
    nothing routed; a predicate-index pass
    (:meth:`repro.dra.predindex.PredicateIndex.match_batch`) yields the
    same columns per routed ``(subscription, alias)`` without a second
    look at the batch.
    """
    tids: List[Tid] = []
    vals: List[Values] = []
    weights: List[int] = []
    ta, va, wa = tids.append, vals.append, weights.append
    if local_predicate is None:
        for entry in delta:
            old = entry.old
            if old is not None:
                ta(entry.tid); va(old); wa(-1)
            new = entry.new
            if new is not None:
                ta(entry.tid); va(new); wa(+1)
    elif filter_spec is not None and len(filter_spec) == 1:
        ((p, op, c),) = filter_spec
        for entry in delta:
            old = entry.old
            if old is not None and (x := old[p]) is not None and op(x, c):
                ta(entry.tid); va(old); wa(-1)
            new = entry.new
            if new is not None and (x := new[p]) is not None and op(x, c):
                ta(entry.tid); va(new); wa(+1)
    else:
        for entry in delta:
            old = entry.old
            if old is not None and local_predicate(old):
                ta(entry.tid); va(old); wa(-1)
            new = entry.new
            if new is not None and local_predicate(new):
                ta(entry.tid); va(new); wa(+1)
    return tids, vals, weights


def _ANY(values: Values) -> bool:
    return True


def paired_columns(
    delta: DeltaRelation,
    local_predicate: Optional[CompiledPredicate],
    filter_spec: Optional[FilterSpec],
    invariant: Tuple[int, ...],
) -> Tuple[SignedColumns, Optional[OldColumn]]:
    """:func:`signed_columns` for the only changed operand of an
    execution: a modify whose old and new sides both pass the local
    predicate and agree on every ``invariant`` position (the seed
    columns its term reads before projection,
    :attr:`repro.dra.prepared.TermPlan.pair_invariant`) becomes one
    *pair* row — its new values in the values column, weight 0, its old
    values in the parallel old column. Every other side is a signed row
    as :func:`signed_columns` makes it, with None in the old column;
    the signed rows come first, in entry order, then the pair rows.

    Returns the columns and the old column, or None in its place when no
    entry paired (the kernels then run exactly as on split columns).
    """
    tids: List[Tid] = []
    vals: List[Values] = []
    weights: List[int] = []
    ta, va, wa = tids.append, vals.append, weights.append
    pair_tids: List[Tid] = []
    pair_news: List[Values] = []
    pair_olds: List[Values] = []
    pt, pn, po = pair_tids.append, pair_news.append, pair_olds.append
    # Every modify whose two sides pass is a pair candidate; the
    # invariant columns are compared for all candidates at once below.
    if local_predicate is not None and filter_spec is not None and len(
        filter_spec
    ) == 1:
        ((p, op, c),) = filter_spec
        for entry in delta:
            old = entry.old
            new = entry.new
            if old is not None and (x := old[p]) is not None and op(x, c):
                if new is not None and (x := new[p]) is not None and op(x, c):
                    pt(entry.tid); pn(new); po(old)
                    continue
                ta(entry.tid); va(old); wa(-1)
            elif new is not None and (x := new[p]) is not None and op(x, c):
                ta(entry.tid); va(new); wa(+1)
    else:
        passes = local_predicate or _ANY
        for entry in delta:
            old = entry.old
            new = entry.new
            if old is not None and passes(old):
                if new is not None and passes(new):
                    pt(entry.tid); pn(new); po(old)
                    continue
                ta(entry.tid); va(old); wa(-1)
            elif new is not None and passes(new):
                ta(entry.tid); va(new); wa(+1)
    # Column by column at C level; per candidate only if one moved.
    if pair_tids and any(
        list(map(get, pair_olds)) != list(map(get, pair_news))
        for get in map(operator.itemgetter, invariant)
    ):
        same = operator.itemgetter(*invariant)
        kept = list(map(operator.eq, map(same, pair_olds), map(same, pair_news)))
        # A candidate that moved an invariant column splits.
        for tid, old, new, keep in zip(pair_tids, pair_olds, pair_news, kept):
            if not keep:
                ta(tid); va(old); wa(-1)
                ta(tid); va(new); wa(+1)
        pair_tids, pair_news, pair_olds = (
            list(itertools.compress(column, kept))
            for column in (pair_tids, pair_news, pair_olds)
        )
    if not pair_tids:
        return (tids, vals, weights), None
    olds: OldColumn = [None] * len(tids)
    olds += pair_olds
    tids += pair_tids
    vals += pair_news
    weights += [0] * len(pair_tids)
    return (tids, vals, weights), olds


class DeltaOperand:
    """The signed, locally filtered rows of one changed operand.

    Stored struct-of-arrays from the start — the parallel ``(tids,
    values, weights)`` columns of :func:`signed_columns` or of a routed
    predicate-index entry, adopted as they are — so the columnar seed
    kernel adopts them zero-copy in turn. The row evaluator's ``rows``
    view is derived lazily (one zip) only when a term actually
    evaluates through the row path.

    ``olds`` is the old column of :func:`paired_columns` (None: every
    row is one signed side). A paired operand seeds the one term of its
    execution on the kernels only; ``paired`` counts its pair rows.
    """

    __slots__ = (
        "alias",
        "olds",
        "paired",
        "_tids",
        "_vals",
        "_weights",
        "_rows",
        "_indexes",
    )

    def __init__(
        self,
        alias: str,
        columns: SignedColumns,
        olds: Optional[OldColumn] = None,
    ):
        self.alias = alias
        self._tids, self._vals, self._weights = columns
        self.olds = olds
        self.paired = 0 if olds is None else len(olds) - olds.count(None)
        self._rows: Optional[List[SignedRow]] = None
        self._indexes: Dict[Tuple[int, ...], Dict[Tuple, List[SignedRow]]] = {}

    def __len__(self) -> int:
        return len(self._weights)

    @property
    def rows(self) -> List[SignedRow]:
        """Row view ``[(tid, values, weight), ...]`` of the columns,
        zipped once on first use (the row evaluator's seed input)."""
        rows = self._rows
        if rows is None:
            rows = self._rows = list(zip(self._tids, self._vals, self._weights))
        return rows

    def columns(self) -> Tuple[List[Tid], List[Values], List[int]]:
        """The signed rows as struct-of-arrays ``(tids, values,
        weights)`` columns — the native representation, shared
        zero-copy with every term's seed batch (read-only by kernel
        contract)."""
        return self._tids, self._vals, self._weights

    def index_on(
        self, positions: Tuple[int, ...]
    ) -> Dict[Tuple, List[SignedRow]]:
        """Transient hash index of the signed rows on ``positions``,
        built once per operand per position tuple (several truth-table
        terms attach the same operand over the same join edges). A row
        whose key holds a NULL is left out: NULL equals nothing."""
        buckets = self._indexes.get(positions)
        if buckets is None:
            buckets = {}
            setdefault = buckets.setdefault
            for tid, values, weight in zip(self._tids, self._vals, self._weights):
                key = tuple(values[p] for p in positions)
                if None not in key:
                    setdefault(key, []).append((tid, values, weight))
            self._indexes[positions] = buckets
        return buckets


class BaseOperand:
    """One unsubstituted operand: the table at its old state.

    ``delta`` is the table's consolidated delta since the last
    execution (empty for unchanged tables); probes and scans answer in
    the *old* state by overlaying it on the live relation.
    """

    __slots__ = (
        "alias",
        "table",
        "delta",
        "local_predicate",
        "filter_spec",
        "_old_view",
        "_index_cache",
        "_scan_cache",
        "metrics",
    )

    def __init__(
        self,
        alias: str,
        table: Table,
        delta: Optional[DeltaRelation],
        local_predicate: Optional[CompiledPredicate],
        metrics: Optional[Metrics] = None,
        filter_spec: Optional[FilterSpec] = None,
    ):
        self.alias = alias
        self.table = table
        self.delta = delta
        self.local_predicate = local_predicate
        self.filter_spec = filter_spec
        self._old_view = OldStateView(
            table.current, delta if delta is not None else DeltaRelation(table.schema)
        )
        self._index_cache: Dict[Tuple[int, ...], object] = {}
        self._scan_cache: Dict[Tuple[int, ...], Dict[Tuple, List[Tuple[Tid, Values]]]] = {}
        self.metrics = metrics

    def probe(
        self, positions: Tuple[int, ...], key: Tuple
    ) -> List[Tuple[Tid, Values]]:
        """Old-state rows matching ``key`` on ``positions`` that satisfy
        the operand's local predicate (none for a key holding a NULL)."""
        if None in key:
            return []
        source = self._probe_source(positions)
        matches = source.get(key, []) if isinstance(source, dict) else source.lookup(
            key, self.metrics
        )
        if self.local_predicate is None:
            return list(matches)
        return [(tid, values) for tid, values in matches if self.local_predicate(values)]

    def probe_batch(self, positions: Tuple[int, ...], keys) -> Tuple[Dict, bool]:
        """Batched :meth:`probe` of the (distinct) ``keys``: ``(answer,
        unique)``, the answer holding only keys with a locally-passing
        old-state match.

        ``unique`` True: ``{key: (tid, values)}``, every key matching one
        row (a foreign key into a primary key). Otherwise ``{key:
        [(tid, values), ...]}`` grouped, so the attach kernels replicate
        fan-out rows by C-level list extension, never re-probing. An
        unchanged indexed operand whose buckets each hold one tid
        answers in one C-level pass (:meth:`_unique`); any other answer
        is built grouped and reads unique when each key kept one match.
        """
        source = self._probe_source(positions)
        maps = None if isinstance(source, dict) else source.fast_maps()
        if maps is not None:
            # Unchanged operand: its index answers in the old state.
            # Every key's bucket is fetched once, at C level.
            buckets_get, rows_get = maps
            keys = list(keys)
            found = list(map(buckets_get, keys))
            if self.metrics and keys:
                self.metrics.count(Metrics.INDEX_PROBES, len(keys))
            if None in found:
                hit = list(map(operator.truth, found))
                keys = list(itertools.compress(keys, hit))
                found = list(itertools.compress(found, hit))
            unique = self._unique(keys, found, rows_get)
            if unique is not None:
                return unique, True
            matched = {
                k: m
                for k, b in zip(keys, found)
                if (m := [(t, v) for t in b if (v := rows_get(t)) is not None])
            }
        elif isinstance(source, dict):
            get = source.get
            matched = {k: m for k in keys if (m := get(k))}
        else:
            matched = source.lookup_batch(keys, self.metrics)
        local = self.local_predicate
        if local is not None:
            spec = self.filter_spec
            matched = {
                k: fm
                for k, m in matched.items()
                if (
                    fm := _spec_filter(m, spec)
                    if spec is not None
                    else [(t, v) for t, v in m if local(v)]
                )
            }
        if len(matched) == sum(map(len, matched.values())):
            return dict(zip(matched, map(_FIRST, matched.values()))), True
        return matched, False

    def _unique(self, keys, buckets, rows_get) -> Optional[Dict]:
        """``{key: (tid, values)}`` built with no per-row Python call,
        when each of the (non-empty) ``buckets`` holds one tid and the
        local predicate is absent or one comparison over a column with
        no NULL; else None."""
        spec = self.filter_spec
        if sum(map(len, buckets)) != len(buckets) or (
            self.local_predicate is not None and (spec is None or len(spec) != 1)
        ):
            return None
        tids = list(map(next, map(iter, buckets)))
        vals = list(map(rows_get, tids))
        if None in vals:
            return None
        if self.local_predicate is not None:
            ((p, op, c),) = spec
            column = list(map(operator.itemgetter(p), vals))
            if None in column:
                return None
            keep = list(map(op, column, itertools.repeat(c)))
            keys = itertools.compress(keys, keep)
            tids = itertools.compress(tids, keep)
            vals = itertools.compress(vals, keep)
        return dict(zip(keys, zip(tids, vals)))

    def _probe_source(self, positions: Tuple[int, ...]):
        """An index-like object answering lookups on ``positions``.

        Prefers a maintained table index (wrapped for old-state
        answers); otherwise builds — once per operand per execution —
        a transient hash table by scanning the old state.
        """
        positions = tuple(positions)
        cached = self._index_cache.get(positions)
        if cached is not None:
            return cached
        index = self.table.index_for(positions)
        if index is not None and index.positions == positions:
            wrapped = OldStateIndex(
                index,
                self.delta if self.delta is not None else DeltaRelation(self.table.schema),
                self.table.current,
            )
            self._index_cache[positions] = wrapped
            return wrapped
        scan = self._scan_cache.get(positions)
        if scan is None:
            scan = {}
            rows = self._old_view.pairs()
            for tid, values in rows:
                key = tuple(values[p] for p in positions)
                scan.setdefault(key, []).append((tid, values))
            if self.metrics:
                # Hoisted: one flush per scan, not one count per row.
                self.metrics.count(Metrics.BASE_SCANS)
                if rows:
                    self.metrics.count(Metrics.ROWS_SCANNED, len(rows))
            self._scan_cache[positions] = scan
        return scan

    def scan(self) -> List[Tuple[Tid, Values]]:
        """Full old-state scan, locally filtered: a cartesian attach's
        operand, and the seed of E_0
        (:func:`repro.dra.algorithm.dra_initial`)."""
        rows = self._old_view.pairs()
        if self.metrics:
            self.metrics.count(Metrics.BASE_SCANS)
            if rows:
                self.metrics.count(Metrics.ROWS_SCANNED, len(rows))
        local = self.local_predicate
        if local is None:
            return rows
        if self.filter_spec is not None:
            return _spec_filter(rows, self.filter_spec)
        return [(tid, values) for tid, values in rows if local(values)]
