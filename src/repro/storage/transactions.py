"""Transactions: atomic, logged multi-table update batches.

A transaction buffers operations, validates them against the tables'
current contents plus its own pending effects, and applies everything
at commit under a single commit timestamp — exactly the shape of the
paper's Example 1 transaction T (insert + modify + delete in one unit).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import NoSuchTupleError, TransactionError
from repro.relational.relation import Tid, Values
from repro.storage.table import Table
from repro.storage.timestamps import LogicalClock, Timestamp
from repro.storage.update_log import UpdateKind, UpdateRecord

_txn_counter = itertools.count(1)
# Bound once: an attribute read on an Enum class costs ≈ 0.13 µs (its
# metaclass defines __getattr__), once per buffered row.
_INSERT, _DELETE, _MODIFY = UpdateKind.INSERT, UpdateKind.DELETE, UpdateKind.MODIFY


class _PendingTable:
    """A transaction's view of one table: base + buffered effects.

    A tid's live value is at most three lookups: ``pending_deleted``,
    ``pending_new``, then ``rows`` (the table's committed rows; a
    table's ``current`` relation and its mapping live as long as the
    table)."""

    __slots__ = ("table", "ops", "pending_new", "pending_deleted", "rows")

    def __init__(self, table: Table):
        self.table = table
        # (kind, tid, old, new) in program order.
        self.ops: List[Tuple[UpdateKind, Tid, Optional[Values], Optional[Values]]] = []
        self.pending_new: Dict[Tid, Values] = {}
        self.pending_deleted: set = set()
        self.rows: Dict[Tid, Values] = table.current.rows_map()

    def live_values(self, tid: Tid) -> Optional[Values]:
        """Current value of ``tid`` as seen by this transaction."""
        if tid in self.pending_deleted:
            return None
        values = self.pending_new.get(tid)
        return values if values is not None else self.rows.get(tid)


class Transaction:
    """Buffered multi-table write transaction.

    Usable directly or as a context manager::

        with db.begin() as txn:
            txn.insert_into(stocks, (101088, "MAC", 117))
            txn.delete_from(stocks, tid)
        # commits on normal exit, aborts on exception
    """

    def __init__(self, clock: LogicalClock, txn_id: Optional[int] = None):
        self.clock = clock
        self.txn_id = next(_txn_counter) if txn_id is None or txn_id < 0 else txn_id
        self._tables: Dict[int, _PendingTable] = {}
        self._state = "active"
        self.commit_ts: Optional[Timestamp] = None

    # -- context manager -------------------------------------------------

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            if self._state == "active":
                self.commit()
        else:
            if self._state == "active":
                self.abort()

    # -- operations --------------------------------------------------------

    def _pending(self, table: Table) -> _PendingTable:
        pending = self._tables.get(id(table))
        if pending is None:
            pending = _PendingTable(table)
            self._tables[id(table)] = pending
        return pending

    def _require_active(self) -> None:
        if self._state != "active":
            raise TransactionError(f"transaction is {self._state}, not active")

    def insert_into(self, table: Table, values: Sequence) -> Tid:
        """Buffer an insert; returns the (reserved) tid."""
        if self._state != "active":
            self._require_active()
        validated = table.schema.validate_row(tuple(values))
        pending = self._tables.get(id(table)) or self._pending(table)
        tid = table.reserve_tid()
        pending.ops.append((_INSERT, tid, None, validated))
        pending.pending_new[tid] = validated
        pending.pending_deleted.discard(tid)
        return tid

    def delete_from(self, table: Table, tid: Tid) -> None:
        """Buffer a delete of a tuple visible to this transaction."""
        if self._state != "active":
            self._require_active()
        pending = self._tables.get(id(table)) or self._pending(table)
        if tid in pending.pending_deleted:
            old = None
        elif (old := pending.pending_new.pop(tid, None)) is None:
            old = pending.rows.get(tid)
        if old is None:
            raise NoSuchTupleError(f"{table.name}: no tuple with tid {tid}")
        pending.ops.append((_DELETE, tid, old, None))
        pending.pending_deleted.add(tid)

    def modify_in(
        self,
        table: Table,
        tid: Tid,
        values: Optional[Sequence] = None,
        updates: Optional[Dict[str, object]] = None,
    ) -> None:
        """Buffer an in-place modification.

        Either ``values`` (a full replacement tuple) or ``updates``
        (a column->value dict) must be given.
        """
        if self._state != "active":
            self._require_active()
        if (values is None) == (updates is None):
            raise TransactionError("modify_in needs exactly one of values/updates")
        pending = self._tables.get(id(table)) or self._pending(table)
        if tid in pending.pending_deleted:
            old = None
        elif (old := pending.pending_new.get(tid)) is None:
            old = pending.rows.get(tid)
        if old is None:
            raise NoSuchTupleError(f"{table.name}: no tuple with tid {tid}")
        if values is not None:
            new = table.schema.validate_row(tuple(values))
        else:
            merged = list(old)
            for name, value in updates.items():
                merged[table.schema.position(name)] = value
            new = table.schema.validate_row(tuple(merged))
        pending.ops.append((_MODIFY, tid, old, new))
        pending.pending_new[tid] = new

    def read(self, table: Table, tid: Tid) -> Optional[Values]:
        """The tuple as this transaction currently sees it (or None)."""
        self._require_active()
        return self._pending(table).live_values(tid)

    # -- completion ---------------------------------------------------------

    def commit(self) -> Timestamp:
        """Apply all buffered operations under one commit timestamp."""
        self._require_active()
        ts = self.clock.tick()
        per_table: List[Tuple[Table, List[UpdateRecord]]] = []
        for pending in self._tables.values():
            records = [
                UpdateRecord(kind, tid, old, new, ts, self.txn_id)
                for kind, tid, old, new in pending.ops
            ]
            per_table.append((pending.table, records))
        # Write-ahead: journal every record before any of them applies,
        # then hit one durability barrier for the whole transaction. A
        # crash after the barrier replays the commit; a crash before it
        # loses an unacknowledged commit — never half of one.
        barrier_wal = None
        for table, records in per_table:
            if table.wal is not None and records:
                table.wal.log_commit(table.name, records)
                barrier_wal = table.wal
        if barrier_wal is not None:
            barrier_wal.commit_barrier()
        for table, records in per_table:
            table.apply_committed(records)
        # Observers run after *all* tables are consistent, so a CQ
        # manager reacting to the commit sees the full post-state.
        for table, records in per_table:
            if records:
                table.notify(records)
        self._state = "committed"
        self.commit_ts = ts
        return ts

    def abort(self) -> None:
        self._require_active()
        self._tables.clear()
        self._state = "aborted"

    @property
    def state(self) -> str:
        return self._state

    def __repr__(self) -> str:
        ops = sum(len(p.ops) for p in self._tables.values())
        return f"Transaction(id={self.txn_id}, {self._state}, {ops} buffered ops)"
