"""Hash indexes over relations and tables.

DRA's performance claim rests on *probing* base relations from small
deltas instead of scanning them (Section 5.1). Hash indexes on join /
selection columns are what make each probe O(1). Tables keep their
indexes synchronized on every update; the delta layer wraps them in
old-state overlays to probe the relation as of the last CQ execution.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.metrics import Metrics
from repro.relational.relation import Relation, Tid, Values
from repro.relational.schema import Schema


class HashIndex:
    """An equality index mapping key tuples to sets of tids.

    ``positions`` are attribute positions in the indexed relation's
    schema; a key is the tuple of values at those positions.
    """

    __slots__ = ("positions", "_buckets")

    def __init__(self, positions: Tuple[int, ...]):
        if not positions:
            raise ValueError("an index needs at least one key column")
        self.positions = tuple(positions)
        self._buckets: Dict[Tuple[Any, ...], Set[Tid]] = {}

    @classmethod
    def build(cls, relation: Relation, positions: Tuple[int, ...]) -> "HashIndex":
        index = cls(positions)
        for row in relation:
            index.insert(row.tid, row.values)
        return index

    @classmethod
    def on_columns(cls, schema: Schema, names: Iterable[str]) -> "HashIndex":
        return cls(tuple(schema.position(name) for name in names))

    def key_of(self, values: Values) -> Tuple[Any, ...]:
        return tuple(values[p] for p in self.positions)

    def insert(self, tid: Tid, values: Values) -> None:
        self._buckets.setdefault(self.key_of(values), set()).add(tid)

    def remove(self, tid: Tid, values: Values) -> None:
        key = self.key_of(values)
        bucket = self._buckets.get(key)
        if bucket is not None:
            bucket.discard(tid)
            if not bucket:
                del self._buckets[key]

    def update(self, tid: Tid, old_values: Values, new_values: Values) -> None:
        """Move ``tid`` between buckets if — and only if — its key
        moved. No key tuple is built to find out; a NaN key compares
        unequal to itself and takes remove + insert, which is always
        correct."""
        for p in self.positions:
            if old_values[p] != new_values[p]:
                self.remove(tid, old_values)
                self.insert(tid, new_values)
                return

    def lookup(
        self, key: Tuple[Any, ...], metrics: Optional[Metrics] = None
    ) -> Set[Tid]:
        """Tids whose key columns equal ``key`` (possibly empty)."""
        if metrics:
            metrics.count(Metrics.INDEX_PROBES)
        return self._buckets.get(key, _EMPTY)

    def keys(self) -> Iterator[Tuple[Any, ...]]:
        return iter(self._buckets.keys())

    def buckets_map(self) -> Dict[Tuple[Any, ...], Set[Tid]]:
        """The internal key→tid-set mapping, for batch probing (the
        columnar kernels). Read-only by contract; mutations go through
        :meth:`insert`/:meth:`remove`/:meth:`update`."""
        return self._buckets

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())

    def bucket_count(self) -> int:
        return len(self._buckets)

    def __repr__(self) -> str:
        return (
            f"HashIndex(positions={self.positions}, "
            f"{self.bucket_count()} keys, {len(self)} entries)"
        )


_EMPTY: Set[Tid] = frozenset()  # type: ignore[assignment]


class IndexSet:
    """The indexes attached to one table, keyed by position tuple.

    ``version`` increments whenever an index is added; prepared CQ
    plans record it at compile time so a later index creation
    invalidates (and re-prepares) any plan that assumed its absence.
    """

    __slots__ = ("_indexes", "_by_sorted", "_key_positions", "version")

    def __init__(self) -> None:
        self._indexes: Dict[Tuple[int, ...], HashIndex] = {}
        # Canonical (sorted-positions) map maintained at add() time so
        # best_for is one dict lookup instead of a scan over every
        # index key per probe-plan resolution.
        self._by_sorted: Dict[Tuple[int, ...], HashIndex] = {}
        # Union of every index's key positions: a modify that changes
        # none of them moves no index (on_modify decides once per row).
        self._key_positions: Tuple[int, ...] = ()
        self.version = 0

    def add(self, index: HashIndex) -> None:
        self._indexes[index.positions] = index
        # First registration wins for a given column set, matching the
        # old linear scan's insertion-order preference.
        self._by_sorted.setdefault(tuple(sorted(index.positions)), index)
        self._key_positions = tuple(
            sorted(set(self._key_positions).union(index.positions))
        )
        self.version += 1

    def get(self, positions: Tuple[int, ...]) -> Optional[HashIndex]:
        return self._indexes.get(tuple(positions))

    def best_for(self, positions: Iterable[int]) -> Optional[HashIndex]:
        """An index whose key is exactly ``positions`` in any order."""
        wanted = tuple(positions)
        exact = self._indexes.get(wanted)
        if exact is not None:
            return exact
        return self._by_sorted.get(tuple(sorted(wanted)))

    def single_column(self, position: int) -> Optional[HashIndex]:
        return self._indexes.get((position,))

    def all(self) -> List[HashIndex]:
        return list(self._indexes.values())

    def on_insert(self, tid: Tid, values: Values) -> None:
        for index in self._indexes.values():
            index.insert(tid, values)

    def on_delete(self, tid: Tid, values: Values) -> None:
        for index in self._indexes.values():
            index.remove(tid, values)

    def on_modify(self, tid: Tid, old_values: Values, new_values: Values) -> None:
        for p in self._key_positions:
            if old_values[p] != new_values[p]:
                for index in self._indexes.values():
                    index.update(tid, old_values, new_values)
                return

    def __len__(self) -> int:
        return len(self._indexes)
