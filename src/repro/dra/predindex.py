"""Predicate-index fan-out: route one delta batch to affected CQs.

At production scale most registered continual queries are the *same*
query template with different constants (``WHERE symbol = 'X'`` for a
million values of X). Per-subscription refresh asks every subscription
to probe its own plan against the batch — O(subscribers) work per
cycle even when almost none of them are affected. The paper's
Section 5.2 relevance test gives the sound skip condition: an update
batch cannot change a CQ's result unless some delta entry's old or new
side satisfies the CQ's *alias-local* predicate ("select before join"
— the seed filter of every truth-table term). This module turns that
per-CQ test into a shared index over *all* subscriptions' local
predicates, so one pass over the consolidated batch yields exactly the
affected subscription set:

* equality atoms (``col = const``) become hash-bucket entries keyed by
  (column position, constant) — the Kara et al. free-access-pattern
  shape: compile the template once, index by the free constant;
* range atoms (``col < const`` etc.) on one column merge into a single
  interval per (subscription, alias) held in an :class:`IntervalIndex`
  (one bisect into precomputed covers: O(log n + k) per probe);
* everything else (disjunctions, negations, column-to-column locals)
  falls back to a scan bucket carrying the compiled local predicate —
  still one compiled closure per subscription, never a plan probe.

Each indexed atom keeps the *rest* of its alias-local conjunction as a
compiled residual, so a bucket hit is confirmed against the full local
predicate and the match set is exact — the Hypothesis suite in
``tests/dra/test_predindex_property.py`` holds it equal to the naive
:func:`repro.dra.relevance.relevant_entry_counts` oracle. The pass
does not stop at "affected": it keeps, per matched (subscription,
alias), the signed entry sides that passed, so the selection before
the join happens once, here, and DRA is seeded with its outcome.

Staleness mirrors :class:`~repro.dra.prepared.PlanCache`: signatures
record the schema object they compiled against; a batch carrying a
different schema triggers recompilation, and a subscription whose
predicate no longer compiles (a column dropped by a schema change) is
quarantined — reported via :meth:`PredicateIndex.stale`, never routed
wrongly.
"""

from __future__ import annotations

import bisect
import threading
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.metrics import Metrics
from repro.relational.algebra import SPJQuery
from repro.relational.binding import SingleRowBinder
from repro.relational.expressions import ColumnRef, Literal
from repro.relational.planning import plan_predicate
from repro.relational.predicates import (
    Comparison,
    CompiledPredicate,
    Predicate,
    conjunction,
)
from repro.relational.schema import Schema
from repro.relational.types import AttributeType
from repro.delta.differential import DeltaRelation
from repro.dra.operands import SignedColumns

# Mirror of an op when the literal sits on the left: ``5 < v`` is
# ``v > 5``.
_MIRROR = {"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

# Entry keys are (sub_id, alias): one subscription contributes one
# signature per alias (self-joins index the same table twice).
EntryKey = Tuple[str, str]

# What a routing pass returns: sub_id -> alias -> the (tids, values,
# weights) columns of the entry sides that alias's predicate selects.
Routed = Dict[str, Dict[str, SignedColumns]]


def _value_fits(column_type: AttributeType, value: Any) -> bool:
    """True when ``value`` orders/hashes consistently against column
    values — the guard that keeps index comparisons type-safe without
    compiling the atom."""
    if column_type is None:
        return False
    if column_type.is_numeric():
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if column_type is AttributeType.STR:
        return isinstance(value, str)
    if column_type is AttributeType.BOOL:
        return isinstance(value, bool)
    return False


def _atom_of(
    conjunct: Predicate, schema: Schema, alias: str
) -> Optional[Tuple[int, str, Any]]:
    """``(position, op, constant)`` when ``conjunct`` is an indexable
    column-vs-literal comparison, else None.

    ``!=`` atoms are not indexable (they match almost everything);
    null literals never match under None-is-False semantics, and NaN
    literals order against nothing; all fall through to the
    residual/scan path.
    """
    if not isinstance(conjunct, Comparison):
        return None
    left, right, op = conjunct.left, conjunct.right, conjunct.op
    if isinstance(left, ColumnRef) and isinstance(right, Literal):
        ref, value = left, right.value
    elif isinstance(right, ColumnRef) and isinstance(left, Literal):
        ref, value = right, left.value
        op = _MIRROR.get(op, op)
    else:
        return None
    if op not in _MIRROR or value is None or value != value:
        return None
    if ref.qualifier is not None and ref.qualifier != alias:
        return None
    if ref.name not in schema:
        return None
    position = schema.position(ref.name)
    if not _value_fits(schema.attributes[position].type, value):
        return None
    return position, op, value


def _merge_bounds(
    atoms: Sequence[Tuple[str, Any]],
) -> Optional[Tuple[Optional[Tuple[Any, int]], Optional[Tuple[Any, int]]]]:
    """Intersect one column's range atoms into ``(low_key, high_key)``.

    Bound keys encode inclusivity so plain tuple order is containment
    order: a lower bound is ``(value, 0)`` inclusive / ``(value, 1)``
    exclusive (larger key = tighter); an upper bound is ``(value, 1)``
    inclusive / ``(value, 0)`` exclusive (smaller key = tighter). None
    means unbounded. Returns None when the intersection is empty — the
    conjunction is unsatisfiable and the alias can never match.
    """
    low: Optional[Tuple[Any, int]] = None
    high: Optional[Tuple[Any, int]] = None
    for op, value in atoms:
        if op in (">", ">="):
            key = (value, 0 if op == ">=" else 1)
            if low is None or key > low:
                low = key
        else:
            key = (value, 1 if op == "<=" else 0)
            if high is None or key < high:
                high = key
    if low is not None and high is not None:
        if low[0] > high[0]:
            return None
        if low[0] == high[0] and (low[1] == 1 or high[1] == 0):
            return None
    return low, high


class _Signature:
    """One subscription's compiled local predicate for one alias."""

    __slots__ = ("kind", "position", "value", "low", "high", "residual", "compiled")

    def __init__(
        self,
        kind: str,
        position: Optional[int],
        value: Any,
        low: Optional[Tuple[Any, int]],
        high: Optional[Tuple[Any, int]],
        residual: Optional[CompiledPredicate],
        compiled: Optional[CompiledPredicate],
    ):
        #: "eq" | "interval" | "scan" | "never"
        self.kind = kind
        self.position = position
        self.value = value
        self.low = low
        self.high = high
        #: The rest of the local conjunction, compiled (None = nothing
        #: left to check beyond the indexed atom).
        self.residual = residual
        #: The full local conjunction, compiled (None = TruePredicate):
        #: what a scan-bucket entry confirms a side against.
        self.compiled = compiled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_Signature({self.kind}, pos={self.position})"


def compile_signature(
    alias: str, schema: Schema, conjuncts: Sequence[Predicate]
) -> _Signature:
    """Split one alias's local conjunct list into an indexed atom plus
    a compiled residual.

    Preference order: an equality atom (hash bucket) beats ranges (the
    bucket is the narrower filter); range atoms on the most-constrained
    column merge into one exact interval; anything else scans. Raises
    whatever predicate compilation raises when the conjuncts no longer
    fit ``schema`` — callers quarantine the subscription.
    """
    binder = SingleRowBinder(schema, alias)
    full = conjunction(list(conjuncts))
    compiled = None if not conjuncts else full.compile(binder)
    if not conjuncts:
        return _Signature("scan", None, None, None, None, None, None)

    eq_atom = None
    bounds: Dict[int, List[Tuple[str, Any]]] = {}
    bound_conjuncts: Dict[int, List[Predicate]] = {}
    for conjunct in conjuncts:
        atom = _atom_of(conjunct, schema, alias)
        if atom is None:
            continue
        position, op, value = atom
        if op == "=":
            if eq_atom is None:
                eq_atom = (position, value, conjunct)
        else:
            bounds.setdefault(position, []).append((op, value))
            bound_conjuncts.setdefault(position, []).append(conjunct)

    if eq_atom is not None:
        position, value, key_conjunct = eq_atom
        rest = [c for c in conjuncts if c is not key_conjunct]
        residual = conjunction(rest).compile(binder) if rest else None
        return _Signature("eq", position, value, None, None, residual, compiled)

    if bounds:
        position = max(bounds, key=lambda p: (len(bounds[p]), -p))
        merged = _merge_bounds(bounds[position])
        if merged is None:
            # The interval is empty: the local conjunction (which
            # includes these bounds) rejects every row of this alias.
            return _Signature("never", None, None, None, None, None, compiled)
        covered = set(map(id, bound_conjuncts[position]))
        rest = [c for c in conjuncts if id(c) not in covered]
        residual = conjunction(rest).compile(binder) if rest else None
        low, high = merged
        return _Signature(
            "interval", position, None, low, high, residual, compiled
        )

    return _Signature("scan", None, None, None, None, None, compiled)


class IntervalIndex:
    """Exact interval stabbing through precomputed covers.

    The distinct bound keys of all entries, sorted, cut the value line
    into elementary segments; each segment's *cover* is the tuple of
    entry keys whose interval admits every value falling in it. A
    lower bound ``(low, f)`` admits ``v`` iff ``(low, f) <= (v, 0)``,
    an upper bound iff ``(high, f) >= (v, 1)``; flags are only 0 or 1,
    so no bound key lies strictly between ``(v, 0)`` and ``(v, 1)``,
    and the one position ``bisect_right(bounds, (v, 0))`` decides both
    sides. An entry whose bounds sit at ranks ``r_low``/``r_high``
    covers segments ``r_low + 1 … r_high``; an open bound extends to
    that end. ``stab(v)`` is that bisect plus one list index, O(log n +
    k): it returns exactly the matches, so candidates inspected — the
    unit the probe counter charges — equals matches returned.

    A NaN value (any value not equal to itself) stabs nothing, as every
    comparison against it is false; a bisect would place it somewhere.

    ``add``/``remove`` only mark the covers stale; the first stab after
    any number of them rebuilds once: a sort of the distinct bounds
    plus one pass filling each entry's segments, O(n log n +
    Σ|cover|). Nested ranges make Σ|cover| quadratic in n, but a stab
    inside them returns those entries anyway.
    """

    __slots__ = ("_entries", "_dirty", "_bounds", "_covers")

    def __init__(self) -> None:
        # entry_key -> (low_key, high_key); None bound = unbounded.
        self._entries: Dict[
            EntryKey, Tuple[Optional[Tuple[Any, int]], Optional[Tuple[Any, int]]]
        ] = {}
        self._dirty = True
        self._bounds: List[Tuple[Any, int]] = []
        self._covers: List[Tuple[EntryKey, ...]] = [()]

    def add(
        self,
        key: EntryKey,
        low: Optional[Tuple[Any, int]],
        high: Optional[Tuple[Any, int]],
    ) -> None:
        self._entries[key] = (low, high)
        self._dirty = True

    def remove(self, key: EntryKey) -> None:
        if self._entries.pop(key, None) is not None:
            self._dirty = True

    def __len__(self) -> int:
        return len(self._entries)

    def _rebuild(self) -> None:
        bounds = sorted(
            {bound for pair in self._entries.values() for bound in pair if bound is not None}
        )
        rank = {bound: i for i, bound in enumerate(bounds)}
        covers: List[List[EntryKey]] = [[] for __ in range(len(bounds) + 1)]
        for key, (low, high) in self._entries.items():
            first = 0 if low is None else rank[low] + 1
            last = len(bounds) if high is None else rank[high]
            for segment in range(first, last + 1):
                covers[segment].append(key)
        self._bounds = bounds
        self._covers = [tuple(cover) for cover in covers]
        self._dirty = False

    def stab(self, value: Any) -> Tuple[Tuple[EntryKey, ...], int]:
        """``(matching entry keys, candidates inspected)`` for one
        probe value; the two agree in length."""
        if self._dirty:
            self._rebuild()
        if value != value:
            return (), 0
        cover = self._covers[bisect.bisect_right(self._bounds, (value, 0))]
        return cover, len(cover)


class _Entry:
    """One (subscription, alias) occupant of a table index."""

    __slots__ = ("sub_id", "alias", "signature")

    def __init__(self, sub_id: str, alias: str, signature: _Signature):
        self.sub_id = sub_id
        self.alias = alias
        self.signature = signature


class _TableIndex:
    """All signatures over one base table, bucketed by shape."""

    __slots__ = ("schema", "eq", "intervals", "scans", "members")

    def __init__(self, schema: Schema):
        self.schema = schema
        # position -> constant -> {entry_key: _Entry}
        self.eq: Dict[int, Dict[Any, Dict[EntryKey, _Entry]]] = {}
        # position -> (IntervalIndex, {entry_key: _Entry})
        self.intervals: Dict[int, Tuple[IntervalIndex, Dict[EntryKey, _Entry]]] = {}
        self.scans: Dict[EntryKey, _Entry] = {}
        # Every entry key installed here (for removal and rebuilds).
        self.members: Dict[EntryKey, _Entry] = {}

    def install(self, key: EntryKey, entry: _Entry) -> None:
        sig = entry.signature
        self.members[key] = entry
        if sig.kind == "eq":
            bucket = self.eq.setdefault(sig.position, {}).setdefault(
                sig.value, {}
            )
            bucket[key] = entry
        elif sig.kind == "interval":
            index, payloads = self.intervals.setdefault(
                sig.position, (IntervalIndex(), {})
            )
            index.add(key, sig.low, sig.high)
            payloads[key] = entry
        elif sig.kind == "scan":
            self.scans[key] = entry
        # "never": tracked in members only — the alias matches nothing.

    def uninstall(self, key: EntryKey) -> None:
        entry = self.members.pop(key, None)
        if entry is None:
            return
        sig = entry.signature
        if sig.kind == "eq":
            by_value = self.eq.get(sig.position)
            if by_value is not None:
                bucket = by_value.get(sig.value)
                if bucket is not None:
                    bucket.pop(key, None)
                    if not bucket:
                        del by_value[sig.value]
                if not by_value:
                    del self.eq[sig.position]
        elif sig.kind == "interval":
            pair = self.intervals.get(sig.position)
            if pair is not None:
                index, payloads = pair
                index.remove(key)
                payloads.pop(key, None)
                if not payloads:
                    del self.intervals[sig.position]
        elif sig.kind == "scan":
            self.scans.pop(key, None)

    def match(self, delta: DeltaRelation, matched: Routed) -> int:
        """Fold every entry side of ``delta`` — old weighing −1, new
        +1, in entry order — into the ``(tids, values, weights)``
        columns of each ``matched[sub_id][alias]`` whose full local
        conjunction it satisfies; returns candidates probed."""
        probes = 0
        hits: List[_Entry] = []
        hit = hits.append
        eq, intervals = self.eq.items(), self.intervals.items()
        scans = self.scans.values()
        for delta_entry in delta:
            for row, weight in ((delta_entry.old, -1), (delta_entry.new, +1)):
                if row is None:
                    continue
                for position, by_value in eq:
                    value = row[position]
                    if value is None:
                        continue
                    bucket = by_value.get(value)
                    if not bucket:
                        continue
                    probes += len(bucket)
                    for entry in bucket.values():
                        residual = entry.signature.residual
                        if residual is None or residual(row):
                            hit(entry)
                for position, (index, payloads) in intervals:
                    value = row[position]
                    if value is None:
                        continue
                    stabbed, inspected = index.stab(value)
                    probes += inspected
                    for key in stabbed:
                        entry = payloads[key]
                        residual = entry.signature.residual
                        if residual is None or residual(row):
                            hit(entry)
                probes += len(scans)
                for entry in scans:
                    compiled = entry.signature.compiled
                    if compiled is None or compiled(row):
                        hit(entry)
                # One (subscription, alias) sits in exactly one bucket,
                # so a side reaches its columns at most once.
                for entry in hits:
                    by_alias = matched.get(entry.sub_id)
                    if by_alias is None:
                        by_alias = matched[entry.sub_id] = {}
                    columns = by_alias.get(entry.alias)
                    if columns is None:
                        columns = by_alias[entry.alias] = ([], [], [])
                    columns[0].append(delta_entry.tid)
                    columns[1].append(row)
                    columns[2].append(weight)
                del hits[:]
        return probes


class _SubEntry:
    """Everything needed to (re)compile one subscription's signatures."""

    __slots__ = ("query", "table_for_alias", "local", "schemas")

    def __init__(
        self,
        query: SPJQuery,
        table_for_alias: Dict[str, str],
        local: Dict[str, List[Predicate]],
        schemas: Dict[str, Schema],
    ):
        self.query = query
        self.table_for_alias = table_for_alias
        #: Alias -> local conjunct list (the planner's decomposition).
        self.local = local
        #: Alias -> schema the signature compiled against.
        self.schemas = schemas


class PredicateIndex:
    """Routes consolidated delta batches to affected subscriptions.

    ``sub_id`` is whatever granularity the caller fans out at: the
    manager and the server both index ``sql_key`` groups, so probe
    counts scale with distinct templates, not subscribers.
    Thread-safe (one reentrant lock; matching may trigger recompiles).
    """

    def __init__(self, metrics: Optional[Metrics] = None):
        self.metrics = metrics
        self._lock = threading.RLock()
        self._subs: Dict[str, _SubEntry] = {}
        self._tables: Dict[str, _TableIndex] = {}
        #: Subscriptions whose predicates stopped compiling after a
        #: schema change; they match nothing until re-registered.
        self._stale: Set[str] = set()

    # -- registration ------------------------------------------------------

    def add(
        self, sub_id: str, query: SPJQuery, scopes: Mapping[str, Schema]
    ) -> None:
        """Index one subscription's alias-local predicates.

        ``scopes`` maps each query alias to its table's *live* schema.
        Re-adding an existing ``sub_id`` replaces its entries.
        """
        with self._lock:
            if sub_id in self._subs:
                self.remove(sub_id)
            plan = plan_predicate(query.predicate, scopes)
            table_for_alias = {
                ref.alias: ref.table for ref in query.relations
            }
            entry = _SubEntry(
                query,
                table_for_alias,
                {alias: list(plan.local.get(alias, [])) for alias in scopes},
                dict(scopes),
            )
            self._subs[sub_id] = entry
            for alias, table_name in table_for_alias.items():
                tindex = self._tables.get(table_name)
                if tindex is None:
                    tindex = self._tables[table_name] = _TableIndex(
                        scopes[alias]
                    )
                elif tindex.schema is not scopes[alias]:
                    self._rebuild_table(table_name, scopes[alias])
                    tindex = self._tables[table_name]
                signature = compile_signature(
                    alias, tindex.schema, entry.local[alias]
                )
                tindex.install((sub_id, alias), _Entry(sub_id, alias, signature))

    def remove(self, sub_id: str) -> bool:
        """Drop every index entry of one subscription."""
        with self._lock:
            entry = self._subs.pop(sub_id, None)
            self._stale.discard(sub_id)
            if entry is None:
                return False
            for alias, table_name in entry.table_for_alias.items():
                tindex = self._tables.get(table_name)
                if tindex is None:
                    continue
                tindex.uninstall((sub_id, alias))
                if not tindex.members:
                    del self._tables[table_name]
            return True

    def __len__(self) -> int:
        with self._lock:
            return len(self._subs)

    def __contains__(self, sub_id: str) -> bool:
        with self._lock:
            return sub_id in self._subs

    def tables(self) -> List[str]:
        """Base tables with at least one indexed subscription."""
        with self._lock:
            return list(self._tables)

    def stale(self) -> Set[str]:
        """Subscriptions quarantined by a schema change (their
        predicates no longer compile; they are never routed)."""
        with self._lock:
            return set(self._stale)

    # -- staleness ---------------------------------------------------------

    def _rebuild_table(self, table_name: str, schema: Schema) -> None:
        """Recompile every signature on ``table_name`` against a new
        schema object. Subscriptions whose predicates no longer compile
        (e.g. the column was dropped) are quarantined, mirroring
        PlanCache invalidation at re-prepare time."""
        old = self._tables.get(table_name)
        fresh = _TableIndex(schema)
        if old is not None:
            if self.metrics:
                self.metrics.count(Metrics.PREDINDEX_INVALIDATIONS)
            for (sub_id, alias) in list(old.members):
                entry = self._subs.get(sub_id)
                if entry is None or sub_id in self._stale:
                    continue
                try:
                    signature = compile_signature(
                        alias, schema, entry.local[alias]
                    )
                except Exception:
                    self._quarantine(sub_id, keep_table=table_name)
                    continue
                entry.schemas[alias] = schema
                fresh.install((sub_id, alias), _Entry(sub_id, alias, signature))
        self._tables[table_name] = fresh

    def _quarantine(self, sub_id: str, keep_table: str) -> None:
        """Pull a no-longer-compilable subscription out of every table
        index (``keep_table`` is mid-rebuild; its old index is being
        discarded wholesale)."""
        entry = self._subs.get(sub_id)
        if entry is None:
            return
        self._stale.add(sub_id)
        for alias, table_name in entry.table_for_alias.items():
            if table_name == keep_table:
                continue
            tindex = self._tables.get(table_name)
            if tindex is not None:
                tindex.uninstall((sub_id, alias))

    def _fresh_index(self, table_name: str, schema: Schema) -> Optional[_TableIndex]:
        tindex = self._tables.get(table_name)
        if tindex is None:
            return None
        if tindex.schema is not schema:
            self._rebuild_table(table_name, schema)
            tindex = self._tables[table_name]
        return tindex

    # -- matching ----------------------------------------------------------

    def match_batch(self, deltas: Mapping[str, DeltaRelation]) -> Routed:
        """Route ``deltas``: per subscription with at least one
        relevant entry side, per alias, the signed sides that satisfy
        that alias's full local conjunction, as ``(tids, values,
        weights)`` columns in entry order (old −1 before new +1).

        The keys are exactly the subscriptions the Section 5.2
        relevance test selects one by one; the columns are exactly
        what :func:`repro.dra.operands.signed_columns` filters out of
        the same batch with the plan's compiled local predicate (both
        compile :func:`plan_predicate`'s local conjuncts; the property
        suite holds them equal) — the select-before-join seed of every
        truth-table term, so ``dra_execute(seeds=routed[sub_id])``
        never looks at the batch again. An alias no side satisfies has
        no entry."""
        matched: Routed = {}
        probes = 0
        with self._lock:
            for table_name, delta in deltas.items():
                if delta.is_empty():
                    continue
                tindex = self._fresh_index(table_name, delta.schema)
                if tindex is None or not tindex.members:
                    continue
                probes += tindex.match(delta, matched)
        if self.metrics:
            if probes:
                self.metrics.count(Metrics.PREDINDEX_PROBES, probes)
            if matched:
                self.metrics.count(Metrics.PREDINDEX_MATCHES, len(matched))
        return matched

    # -- introspection -----------------------------------------------------

    def describe(self) -> Dict[str, int]:
        """Structure sizes (for status reports and the fan-out bench)."""
        with self._lock:
            eq_entries = sum(
                len(bucket)
                for tindex in self._tables.values()
                for by_value in tindex.eq.values()
                for bucket in by_value.values()
            )
            interval_entries = sum(
                len(payloads)
                for tindex in self._tables.values()
                for __, payloads in tindex.intervals.values()
            )
            scan_entries = sum(
                len(tindex.scans) for tindex in self._tables.values()
            )
            return {
                "subscriptions": len(self._subs),
                "tables": len(self._tables),
                "eq_entries": eq_entries,
                "interval_entries": interval_entries,
                "scan_entries": scan_entries,
                "stale": len(self._stale),
            }

    def __repr__(self) -> str:
        info = self.describe()
        return (
            f"PredicateIndex({info['subscriptions']} subs over "
            f"{info['tables']} tables: {info['eq_entries']} eq, "
            f"{info['interval_entries']} interval, "
            f"{info['scan_entries']} scan)"
        )
