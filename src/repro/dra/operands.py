"""Term operands: signed delta seeds and probe-able base relations.

A term of the truth-table expansion joins two kinds of operands:

* :class:`DeltaOperand` — the differential relation of a changed table,
  viewed as a signed set: each entry contributes its old side with
  weight −1 and its new side with weight +1 (after local-predicate
  filtering, the paper's "Select before Join" refinement);
* :class:`BaseOperand` — a table at its *old* state (Algorithm 1 input
  (ii): base contents as of the last execution), which is only ever
  probed through hash indexes or, lacking a suitable index, scanned
  once into a transient hash table.
"""

from __future__ import annotations

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

# A flat local-predicate spec: ((position, op, constant), ...) —
# see repro.relational.predicates.comparison_specs. Specs let the
# batch filters below run as plain comprehensions instead of calling
# a compiled predicate closure once per row.
FilterSpec = Tuple[Tuple[int, object, object], ...]


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


class DeltaOperand:
    """The signed, locally filtered rows of one changed operand.

    Stored struct-of-arrays from the start — the parallel ``(tids,
    values, weights)`` columns of :func:`signed_columns` or of a routed
    predicate-index entry, adopted as they are — so the columnar seed
    kernel adopts them zero-copy in turn. The row evaluator's ``rows``
    view is derived lazily (one zip) only when a term actually
    evaluates through the row path.
    """

    __slots__ = ("alias", "_tids", "_vals", "_weights", "_rows", "_indexes")

    def __init__(self, alias: str, columns: SignedColumns):
        self.alias = alias
        self._tids, self._vals, self._weights = columns
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
        terms attach the same operand over the same join edges)."""
        buckets = self._indexes.get(positions)
        if buckets is None:
            buckets = {}
            setdefault = buckets.setdefault
            for tid, values, weight in zip(self._tids, self._vals, self._weights):
                key = tuple(values[p] for p in positions)
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
        the operand's local predicate."""
        source = self._probe_source(positions)
        matches = source.get(key, []) if isinstance(source, dict) else source.lookup(
            key, self.metrics
        )
        if self.local_predicate is None:
            return list(matches)
        return [(tid, values) for tid, values in matches if self.local_predicate(values)]

    def probe_batch(
        self, positions: Tuple[int, ...], keys
    ) -> Dict[Tuple, List[Tuple[Tid, Values]]]:
        """Batched :meth:`probe`: ``{key: matches}`` for the (distinct)
        ``keys`` with at least one locally-passing old-state match.

        The columnar attach kernels probe once per distinct join key of
        the whole batch; matches here come grouped so fan-out rows are
        replicated by C-level list extension, never re-probed.
        """
        source = self._probe_source(positions)
        local = self.local_predicate
        spec = self.filter_spec
        if isinstance(source, dict):
            get = source.get
            if local is None:
                return {k: m for k in keys if (m := get(k))}
            if spec is not None:
                return {
                    k: fm
                    for k in keys
                    if (m := get(k)) and (fm := _spec_filter(m, spec))
                }
            return {
                k: fm
                for k in keys
                if (m := get(k))
                and (fm := [(t, v) for t, v in m if local(v)])
            }
        if local is None:
            return source.lookup_batch(keys, self.metrics)
        if spec is not None and len(spec) == 1:
            # The hot case — single-comparison local predicate over an
            # indexed, unchanged operand: fuse bucket iteration, value
            # fetch, and predicate into one comprehension per key, with
            # zero per-row Python calls (bucket/row gets are C-level).
            maps = source.fast_maps()
            if maps is not None:
                buckets_get, rows_get = maps
                ((p, op, c),) = spec
                out: Dict[Tuple, List[Tuple[Tid, Values]]] = {}
                probes = 0
                for k in keys:
                    probes += 1
                    b = buckets_get(k)
                    if b and (
                        m := [
                            (t, v)
                            for t in b
                            if (v := rows_get(t)) is not None
                            and (x := v[p]) is not None
                            and op(x, c)
                        ]
                    ):
                        out[k] = m
                if self.metrics and probes:
                    self.metrics.count(Metrics.INDEX_PROBES, probes)
                return out
        matched = source.lookup_batch(keys, self.metrics)
        if spec is not None:
            return {
                k: fm
                for k, m in matched.items()
                if (fm := _spec_filter(m, spec))
            }
        return {
            k: fm
            for k, m in matched.items()
            if (fm := [(t, v) for t, v in m if local(v)])
        }

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
            scanned = 0
            for row in self._old_view:
                scanned += 1
                key = tuple(row.values[p] for p in positions)
                scan.setdefault(key, []).append((row.tid, row.values))
            if self.metrics:
                # Hoisted: one flush per scan, not one count per row.
                self.metrics.count(Metrics.BASE_SCANS)
                if scanned:
                    self.metrics.count(Metrics.ROWS_SCANNED, scanned)
            self._scan_cache[positions] = scan
        return scan

    def scan(self) -> List[Tuple[Tid, Values]]:
        """Full old-state scan (cartesian fallback), locally filtered."""
        out = []
        scanned = 0
        local = self.local_predicate
        spec = self.filter_spec
        if local is not None and spec is not None:
            rows = [(row.tid, row.values) for row in self._old_view]
            scanned = len(rows)
            out = _spec_filter(rows, spec)
        else:
            for row in self._old_view:
                scanned += 1
                if local is None or local(row.values):
                    out.append((row.tid, row.values))
        if self.metrics:
            self.metrics.count(Metrics.BASE_SCANS)
            if scanned:
                self.metrics.count(Metrics.ROWS_SCANNED, scanned)
        return out
