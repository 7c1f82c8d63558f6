"""Seeded consistent hashing for partition and subscription placement.

Two placement decisions use the same ring:

* rows of a table with a declared partition key hash by
  ``"<table>:<key value>"`` to the shard owning that slice, and
* subscriptions over replicated tables hash by their canonical SQL
  text (``sql_key``) to the shard owning that predicate-index entry
  and shared-materialization group.

The ring is *seeded*: every router (and every recovery) derives the
identical placement from the same seed and node set, so scatter
targets never depend on process-lifetime state. Virtual nodes keep
slices balanced when the node count is small.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, Iterable, List, Optional, Tuple

from repro.delta.differential import DeltaEntry, DeltaRelation

#: Memoised lookups a ring keeps before it starts over: partition
#: tokens are key values, so an unbounded memo would grow with the
#: table.
_MEMO_CAP = 1 << 14


def _position(seed: int, token: str) -> int:
    digest = hashlib.blake2b(
        f"{seed}:{token}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


class HashRing:
    """A consistent-hash ring over shard ids with virtual nodes."""

    def __init__(
        self,
        nodes: Iterable[int] = (),
        seed: int = 0,
        vnodes: int = 64,
    ):
        if vnodes <= 0:
            raise ValueError("HashRing needs vnodes >= 1")
        self.seed = seed
        self.vnodes = vnodes
        self._nodes: List[int] = []
        self._weights: Dict[int, float] = {}
        self._points: List[Tuple[int, int]] = []  # (position, node)
        #: ``lookup``'s token → node answers for the current node set.
        self._memo: Dict[str, int] = {}
        #: Bumped by every membership change: whatever was derived from
        #: the ring under an older version may place keys differently.
        self.version = 0
        for node in nodes:
            self.add_node(node)

    def nodes(self) -> List[int]:
        return list(self._nodes)

    def weight(self, node: int) -> float:
        """The node's placement weight (1.0 unless declared otherwise)."""
        return self._weights.get(node, 1.0)

    def weights(self) -> Dict[int, float]:
        return dict(self._weights)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: int) -> bool:
        return node in self._nodes

    def add_node(self, node: int, weight: float = 1.0) -> None:
        """Place ``node`` with ``weight × vnodes`` virtual nodes.

        Weight scales the vnode count, so a weight-2 node owns ~2x the
        key space of a weight-1 peer — the heterogeneous-fleet knob.
        The first ``vnodes`` tokens of a weighted node are identical to
        its unweighted tokens, so raising a node's weight only *adds*
        ring points: keys either stay put or move onto the heavier
        node, never shuffle between unrelated survivors.
        """
        if node in self._nodes:
            raise ValueError(f"node {node} is already on the ring")
        if weight <= 0:
            raise ValueError("node weight must be > 0")
        self._nodes.append(node)
        self._weights[node] = weight
        for replica in range(max(1, round(self.vnodes * weight))):
            self._points.append((_position(self.seed, f"{node}#{replica}"), node))
        self._points.sort()
        self._changed()

    def remove_node(self, node: int) -> None:
        if node not in self._nodes:
            raise ValueError(f"node {node} is not on the ring")
        self._nodes.remove(node)
        self._weights.pop(node, None)
        self._points = [(pos, n) for pos, n in self._points if n != node]
        self._changed()

    def _changed(self) -> None:
        self._memo.clear()
        self.version += 1

    def lookup(self, key: str) -> int:
        """The shard owning ``key`` (clockwise-next virtual node),
        memoised per token until the node set changes."""
        node = self._memo.get(key)
        if node is not None:
            return node
        if not self._points:
            raise ValueError("lookup on an empty ring")
        position = _position(self.seed, key)
        index = bisect.bisect_right(self._points, (position, -1))
        if index == len(self._points):
            index = 0
        node = self._points[index][1]
        if len(self._memo) >= _MEMO_CAP:
            self._memo.clear()
        self._memo[key] = node
        return node

    def lookup_n(self, key: str, n: int) -> List[int]:
        """The first ``n`` *distinct* shards clockwise from ``key``.

        The head of the list is :meth:`lookup`; the tail is the
        deterministic successor order replica placement uses — every
        router (and every recovery) derives the same preference list
        from the same seed and node set. Returns fewer than ``n``
        entries when the ring has fewer nodes.
        """
        if not self._points:
            raise ValueError("lookup on an empty ring")
        position = _position(self.seed, key)
        start = bisect.bisect_right(self._points, (position, -1))
        out: List[int] = []
        seen = set()
        for offset in range(len(self._points)):
            node = self._points[(start + offset) % len(self._points)][1]
            if node in seen:
                continue
            seen.add(node)
            out.append(node)
            if len(out) >= n:
                break
        return out

    def __repr__(self) -> str:
        return f"HashRing({sorted(self._nodes)}, seed={self.seed})"


class Partition:
    """One shard's slice of a hash-partitioned table.

    ``accepts(values)`` answers whether a row belongs to this shard:
    the partition-key column hashes through the shared ring; the
    router slices every scattered delta with :func:`partition_filter`.
    """

    __slots__ = ("table", "column", "position", "ring", "node")

    def __init__(
        self, table: str, column: str, position: int, ring: HashRing, node: int
    ):
        self.table = table
        self.column = column
        self.position = position
        self.ring = ring
        self.node = node

    def owner(self, values: Tuple) -> int:
        return self.ring.lookup(f"{self.table}:{values[self.position]}")

    def accepts(self, values: Optional[Tuple]) -> bool:
        return values is not None and self.owner(values) == self.node

    def __repr__(self) -> str:
        return (
            f"Partition({self.table}.{self.column} -> shard {self.node})"
        )


def _slice_entry(
    entry: DeltaEntry, old_mine: bool, new_mine: bool
) -> Optional[DeltaEntry]:
    """The part of one delta entry that belongs to a slice.

    A modification whose row migrates *across* slices splits: the old
    side's owner sees a delete, the new side's owner an insert. Entries
    entirely outside the slice vanish.
    """
    if old_mine and new_mine:
        return entry
    if old_mine:
        return DeltaEntry(entry.tid, entry.old, None, entry.ts)
    if new_mine:
        return DeltaEntry(entry.tid, None, entry.new, entry.ts)
    return None


def partition_filter(
    delta: DeltaRelation, partition: Partition
) -> DeltaRelation:
    """Restrict a consolidated delta to one shard's slice."""
    out: List[DeltaEntry] = []
    for entry in delta:
        sliced = _slice_entry(
            entry,
            partition.accepts(entry.old),
            partition.accepts(entry.new),
        )
        if sliced is not None:
            out.append(sliced)
    return DeltaRelation(delta.schema, out)
