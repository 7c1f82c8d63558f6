"""Per-table update logs.

Every committed change to a table appends an :class:`UpdateRecord`.
The log is the raw material differential relations are consolidated
from (paper Section 4.1: a differential relation "maintains changes
made by several transactions"), and the unit the active-delta-zone
garbage collector prunes (Section 5.4).
"""

from __future__ import annotations

import bisect
import enum
import threading
from typing import Iterator, List, Optional, Sequence

from repro.relational.relation import Tid, Values
from repro.storage.timestamps import Timestamp


class UpdateKind(enum.Enum):
    INSERT = "insert"
    DELETE = "delete"
    MODIFY = "modify"


class UpdateRecord:
    """One committed change to one tuple.

    ``old`` is None for inserts; ``new`` is None for deletes — the same
    null convention the paper's differential relations use.
    """

    __slots__ = ("kind", "tid", "old", "new", "ts", "txn_id")

    def __init__(
        self,
        kind: UpdateKind,
        tid: Tid,
        old: Optional[Values],
        new: Optional[Values],
        ts: Timestamp,
        txn_id: int,
    ):
        self.kind = kind
        self.tid = tid
        self.old = old
        self.new = new
        self.ts = ts
        self.txn_id = txn_id

    def __repr__(self) -> str:
        return (
            f"UpdateRecord({self.kind.value}, tid={self.tid}, "
            f"old={self.old}, new={self.new}, ts={self.ts}, txn={self.txn_id})"
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, UpdateRecord) and (
            self.kind,
            self.tid,
            self.old,
            self.new,
            self.ts,
            self.txn_id,
        ) == (other.kind, other.tid, other.old, other.new, other.ts, other.txn_id)

    def __hash__(self) -> int:
        return hash((self.kind, self.tid, self.old, self.new, self.ts, self.txn_id))


class UpdateLog:
    """An append-only, timestamp-ordered sequence of update records.

    Records arrive in non-decreasing ``ts`` order (commit order).
    ``since(ts)`` binary-searches the boundary, so reading "everything
    after the last CQ execution" costs O(log n + answer).

    ``since`` and ``prune_before`` hold an internal lock, so a reader
    never observes a half-pruned log: a garbage collection on one
    thread may race a delta consolidation on another (the cluster's
    ``LocalBackend`` pool), and each operation must be atomic for the
    active-delta-zone invariant (GC only ever prunes below every
    reader's window) to carry over to the physical lists.
    """

    __slots__ = (
        "_records", "_timestamps", "pruned_through", "newest_ts", "_lock"
    )

    def __init__(self) -> None:
        self._records: List[UpdateRecord] = []
        self._timestamps: List[Timestamp] = []
        #: Highest timestamp removed by garbage collection (0 if none).
        self.pruned_through: Timestamp = 0
        #: Timestamp of the newest record ever appended (0 if none):
        #: unlike :meth:`latest_ts` it survives pruning, so "did this
        #: table commit after ts" stays answerable behind the GC.
        self.newest_ts: Timestamp = 0
        self._lock = threading.Lock()

    def mark_pruned(self, ts: Timestamp) -> None:
        """Restore-time: history through ``ts`` was pruned, or flattened
        into a baseline, before this log was rebuilt. What it held is
        unknown, so ``newest_ts`` answers conservatively — committed at
        ``ts`` — until the next commit."""
        self.pruned_through = ts
        self.newest_ts = max(self.newest_ts, ts)

    def append(self, record: UpdateRecord) -> None:
        self.extend((record,))

    def extend(self, records: Sequence[UpdateRecord]) -> None:
        """Append one commit's records under one lock — all of them, or
        (if any stamp would step backwards) none."""
        stamps = [record.ts for record in records]
        if not stamps:
            return
        with self._lock:
            tail = self._timestamps[-1] if self._timestamps else stamps[0]
            if stamps[0] < tail or stamps != sorted(stamps):
                raise ValueError(
                    "log timestamps must be non-decreasing; got "
                    f"{stamps[0]}..{stamps[-1]} after {tail}"
                )
            self._records.extend(records)
            self._timestamps.extend(stamps)
            self.newest_ts = stamps[-1]

    def since(self, ts: Timestamp) -> List[UpdateRecord]:
        """All records with ``record.ts > ts``, in commit order.

        Raises if the request reaches into a pruned region, which would
        silently drop changes — a CQ asking for history older than the
        GC horizon is a bug in zone accounting.
        """
        with self._lock:
            if ts < self.pruned_through:
                raise ValueError(
                    f"log pruned through ts={self.pruned_through}; "
                    f"cannot read since ts={ts}"
                )
            start = bisect.bisect_right(self._timestamps, ts)
            return self._records[start:]

    def prune_before(self, ts: Timestamp) -> int:
        """Drop records with ``record.ts <= ts``; returns count dropped.

        This implements retiring data outside the system active delta
        zone (Section 5.4).
        """
        with self._lock:
            cut = bisect.bisect_right(self._timestamps, ts)
            if cut == 0:
                return 0
            dropped = self._records[:cut]
            self._records = self._records[cut:]
            self._timestamps = self._timestamps[cut:]
            self.pruned_through = max(self.pruned_through, ts)
            return len(dropped)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[UpdateRecord]:
        return iter(self._records)

    def latest_ts(self) -> Timestamp:
        return self._timestamps[-1] if self._timestamps else 0

    def oldest_ts(self) -> Timestamp:
        return self._timestamps[0] if self._timestamps else 0

    def __repr__(self) -> str:
        return (
            f"UpdateLog({len(self)} records, "
            f"ts∈[{self.oldest_ts()},{self.latest_ts()}], "
            f"pruned_through={self.pruned_through})"
        )
