"""Old-state overlays: the relation as of the last CQ execution.

DRA runs at execution E_{i+1}; the stored table already holds the *new*
state. Terms of the truth-table expansion that reference unchanged
operands need the *old* state R_i (the paper's Algorithm 1 input (ii)).
Rather than copying tables at every CQ execution, these views overlay
the consolidated delta on the live relation and answer old-state
lookups — including index probes — in O(1) plus delta-sized fixups.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.metrics import Metrics
from repro.relational.indexes import HashIndex
from repro.relational.relation import Relation, Row, Tid, Values
from repro.delta.differential import DeltaRelation


class OldStateView:
    """Read-only view of ``current ⊖ delta`` (the pre-update state)."""

    __slots__ = ("current", "delta")

    def __init__(self, current: Relation, delta: DeltaRelation):
        self.current = current
        self.delta = delta

    @property
    def schema(self):
        return self.current.schema

    def get_or_none(self, tid: Tid) -> Optional[Values]:
        entry = self.delta.get(tid)
        if entry is not None:
            return entry.old  # None when the tuple was inserted
        return self.current.get_or_none(tid)

    def __contains__(self, tid: Tid) -> bool:
        return self.get_or_none(tid) is not None

    def __iter__(self) -> Iterator[Row]:
        for tid, values in self.pairs():
            yield Row(tid, values)

    def pairs(self) -> List[Tuple[Tid, Values]]:
        """The old state's rows as ``(tid, values)`` pairs: the current
        rows the delta left alone, then the delta's old sides — built
        without a ``Row`` per row (the whole current state at C level
        when the delta is empty)."""
        rows = self.current.rows_map()
        delta = self.delta
        if delta.is_empty():
            return list(rows.items())
        out = [(tid, values) for tid, values in rows.items() if tid not in delta]
        out.extend((entry.tid, entry.old) for entry in delta if entry.old is not None)
        return out

    def __len__(self) -> int:
        n = len(self.current)
        for entry in self.delta:
            if entry.old is None:  # insert: absent in old state
                n -= 1
            elif entry.new is None:  # delete: present only in old state
                n += 1
        return n

    def materialize(self) -> Relation:
        """Copy the old state into a standalone relation."""
        return Relation.from_pairs(self.schema, self.pairs())


class OldStateIndex:
    """Old-state equality probes backed by a current-state hash index.

    A probe for key k in the old state is answered by:

    * the current index's bucket for k, minus tids the delta touched
      (their current values may differ from their old ones), plus
    * delta entries whose *old* side hashes to k.

    The delta-side map is built once per (index, delta) pair — O(|Δ|) —
    after which each probe is O(bucket).
    """

    __slots__ = ("index", "delta", "view", "_old_buckets")

    def __init__(self, index: HashIndex, delta: DeltaRelation, current: Relation):
        self.index = index
        self.delta = delta
        self.view = OldStateView(current, delta)
        self._old_buckets: Dict[Tuple[Any, ...], List[Tuple[Tid, Values]]] = {}
        for entry in delta:
            if entry.old is not None:
                key = index.key_of(entry.old)
                self._old_buckets.setdefault(key, []).append(
                    (entry.tid, entry.old)
                )

    def lookup(
        self, key: Tuple[Any, ...], metrics: Optional[Metrics] = None
    ) -> List[Tuple[Tid, Values]]:
        """(tid, old values) pairs whose old state matches ``key``."""
        out: List[Tuple[Tid, Values]] = []
        for tid in self.index.lookup(key, metrics):
            if tid in self.delta:
                continue  # delta side below provides the old value
            values = self.view.current.get_or_none(tid)
            if values is not None:
                out.append((tid, values))
        out.extend(self._old_buckets.get(key, ()))
        return out

    def fast_maps(self):
        """``(buckets.get, rows.get)`` bound methods when the delta is
        empty — old-state probes then reduce to current-state bucket
        reads — else ``None``. Batch callers fetch every key's bucket
        with one ``map`` and, when each holds one tid, its row with
        another (:meth:`repro.dra.operands.BaseOperand.probe_batch`)."""
        if self.delta.is_empty():
            return self.index.buckets_map().get, self.view.current.rows_map().get
        return None

    def lookup_batch(
        self,
        keys: Iterable[Tuple[Any, ...]],
        metrics: Optional[Metrics] = None,
    ) -> Dict[Tuple[Any, ...], List[Tuple[Tid, Values]]]:
        """Batched :meth:`lookup`: ``{key: matches}`` for every key in
        ``keys`` with at least one old-state match, in one pass with
        everything bound locally (an unchanged operand reads
        :meth:`fast_maps` instead).
        """
        buckets = self.index.buckets_map()
        rows_get = self.view.current.rows_map().get
        touched = self.delta.__contains__
        old_buckets = self._old_buckets
        out: Dict[Tuple[Any, ...], List[Tuple[Tid, Values]]] = {}
        probes = 0
        for key in keys:
            probes += 1
            matched: List[Tuple[Tid, Values]] = []
            bucket = buckets.get(key)
            if bucket:
                matched = [
                    (tid, v)
                    for tid in bucket
                    if not touched(tid)
                    and (v := rows_get(tid)) is not None
                ]
            extra = old_buckets.get(key)
            if extra:
                matched.extend(extra)
            if matched:
                out[key] = matched
        if metrics and probes:
            metrics.count(Metrics.INDEX_PROBES, probes)
        return out


class CurrentStateIndex:
    """New-state probes, uniform with :class:`OldStateIndex`'s API."""

    __slots__ = ("index", "current")

    def __init__(self, index: HashIndex, current: Relation):
        self.index = index
        self.current = current

    def lookup(
        self, key: Tuple[Any, ...], metrics: Optional[Metrics] = None
    ) -> List[Tuple[Tid, Values]]:
        out = []
        for tid in self.index.lookup(key, metrics):
            values = self.current.get_or_none(tid)
            if values is not None:
                out.append((tid, values))
        return out
