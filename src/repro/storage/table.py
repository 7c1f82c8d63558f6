"""Stored tables: live relations plus indexes, log, and observers.

All mutation flows through :class:`repro.storage.transactions.Transaction`
(including the single-op convenience helpers), so the update log sees
every change with a commit timestamp and observers are notified exactly
once per commit.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.errors import NoSuchTupleError
from repro.relational.indexes import HashIndex, IndexSet
from repro.relational.relation import Relation, Tid, Values
from repro.relational.schema import Schema
from repro.storage.timestamps import LogicalClock
from repro.storage.update_log import UpdateKind, UpdateLog, UpdateRecord

# Observers receive (table, committed records for that table).
Observer = Callable[["Table", List[UpdateRecord]], None]


class Table:
    """A named, schema'd, indexed, logged collection of rows."""

    def __init__(self, name: str, schema: Schema, clock: LogicalClock):
        self.name = name
        self.schema = schema
        self.clock = clock
        self.current = Relation(schema)
        self.indexes = IndexSet()
        self.log = UpdateLog()
        #: Set by the owning Database when durability is on; commits
        #: journal through it before they apply.
        self.wal = None
        self._observers: List[Observer] = []
        self._next_tid = 1

    # -- reads ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.current)

    def __contains__(self, tid: Tid) -> bool:
        return tid in self.current

    def get(self, tid: Tid) -> Values:
        try:
            return self.current.get(tid)
        except KeyError:
            raise NoSuchTupleError(f"{self.name}: no tuple with tid {tid}") from None

    def snapshot(self) -> Relation:
        """An independent copy of the current contents."""
        return self.current.copy()

    def rows(self):
        return iter(self.current)

    # -- index management -------------------------------------------------

    def create_index(self, columns: Sequence[str]) -> HashIndex:
        """Create (or return an existing) hash index on ``columns``."""
        positions = tuple(self.schema.position(c) for c in columns)
        existing = self.indexes.get(positions)
        if existing is not None:
            return existing
        index = HashIndex.build(self.current, positions)
        self.indexes.add(index)
        return index

    def index_for(self, positions: Sequence[int]) -> Optional[HashIndex]:
        return self.indexes.best_for(positions)

    # -- observers ---------------------------------------------------------

    def subscribe(self, observer: Observer) -> Callable[[], None]:
        """Register a commit observer; returns an unsubscribe callable."""
        self._observers.append(observer)

        def unsubscribe() -> None:
            try:
                self._observers.remove(observer)
            except ValueError:
                pass

        return unsubscribe

    # -- mutation (called by Transaction only) ------------------------------

    def reserve_tid(self) -> int:
        tid = self._next_tid
        self._next_tid += 1
        return tid

    def apply_committed(self, records: List[UpdateRecord]) -> None:
        """Apply one commit's records and sync indexes + log.

        The log takes the batch in one append. If a record fails to
        apply, the records before it still reach the log, so table,
        indexes and log never disagree about what was applied.
        """
        current, indexes = self.current, self.indexes
        applied = 0
        try:
            for record in records:
                kind, tid = record.kind, record.tid
                if kind is UpdateKind.INSERT:
                    current.add(tid, record.new)
                    indexes.on_insert(tid, record.new)
                elif kind is UpdateKind.DELETE:
                    current.remove(tid)
                    indexes.on_delete(tid, record.old)
                else:
                    current.add(tid, record.new)
                    indexes.on_modify(tid, record.old, record.new)
                applied += 1
        finally:
            self.log.extend(records[:applied])

    def notify(self, records: List[UpdateRecord]) -> None:
        for observer in list(self._observers):
            observer(self, records)

    # -- convenience single-op transactions --------------------------------

    def insert(self, values: Sequence) -> Tid:
        """Insert one row in its own transaction; returns the tid."""
        from repro.storage.transactions import Transaction

        txn = Transaction(self.clock, txn_id=-1)
        tid = txn.insert_into(self, tuple(values))
        txn.commit()
        return tid

    def delete(self, tid: Tid) -> None:
        from repro.storage.transactions import Transaction

        txn = Transaction(self.clock, txn_id=-1)
        txn.delete_from(self, tid)
        txn.commit()

    def modify(
        self,
        tid: Tid,
        values: Optional[Sequence] = None,
        updates: Optional[Dict[str, object]] = None,
    ) -> None:
        from repro.storage.transactions import Transaction

        txn = Transaction(self.clock, txn_id=-1)
        txn.modify_in(self, tid, values=values, updates=updates)
        txn.commit()

    def insert_many(self, rows: Iterable[Sequence]) -> List[Tid]:
        """Bulk-load rows in one transaction; returns assigned tids."""
        from repro.storage.transactions import Transaction

        txn = Transaction(self.clock, txn_id=-1)
        tids = [txn.insert_into(self, tuple(row)) for row in rows]
        txn.commit()
        return tids

    def __repr__(self) -> str:
        return f"Table({self.name!r}, {len(self)} rows, {len(self.log)} log records)"
