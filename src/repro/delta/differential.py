"""Differential relations (paper Section 4.1).

A :class:`DeltaRelation` represents the *net* effect of a collection of
updates to one relation. Each entry carries the old attribute values,
the new attribute values, and a timestamp:

* insert — old side is null;
* delete — new side is null;
* modify — both sides present.

No tid appears in more than one entry: consolidation folds the whole
multi-transaction history since a point in time into one entry per
tuple (insert∘delete cancels, modify∘modify composes, insert∘modify
folds into an insert of the final value).

The ``insertions``/``deletions`` operators match the paper's usage:
``insertions(ΔR)`` is everything that must be *added* to the old state
(pure inserts plus the new side of modifications) and ``deletions(ΔR)``
everything that must be *removed* (pure deletes plus the old side of
modifications), so that::

    new_state = (old_state − deletions(ΔR)) ∪ insertions(ΔR)
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from repro.errors import DeltaConsolidationError
from repro.relational.relation import Relation, Tid, Values
from repro.relational.schema import Attribute, Schema
from repro.relational.types import AttributeType
from repro.storage.timestamps import Timestamp
from repro.storage.update_log import UpdateKind, UpdateRecord


class ChangeKind(enum.Enum):
    INSERT = "insert"
    DELETE = "delete"
    MODIFY = "modify"


class DeltaEntry:
    """The net change to one tuple."""

    __slots__ = ("tid", "old", "new", "ts")

    def __init__(
        self,
        tid: Tid,
        old: Optional[Values],
        new: Optional[Values],
        ts: Timestamp,
    ):
        if old is None and new is None:
            raise DeltaConsolidationError(
                f"delta entry for tid {tid} has neither old nor new side"
            )
        self.tid = tid
        self.old = old
        self.new = new
        self.ts = ts

    @property
    def kind(self) -> ChangeKind:
        if self.old is None:
            return ChangeKind.INSERT
        if self.new is None:
            return ChangeKind.DELETE
        return ChangeKind.MODIFY

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DeltaEntry) and (
            self.tid,
            self.old,
            self.new,
            self.ts,
        ) == (other.tid, other.old, other.new, other.ts)

    def __hash__(self) -> int:
        return hash((self.tid, self.old, self.new, self.ts))

    def __repr__(self) -> str:
        return (
            f"DeltaEntry({self.kind.value}, tid={self.tid}, old={self.old}, "
            f"new={self.new}, ts={self.ts})"
        )


class DeltaRelation:
    """A consolidated set of net changes to one relation."""

    __slots__ = ("schema", "_entries")

    def __init__(self, schema: Schema, entries: Iterable[DeltaEntry] = ()):
        self.schema = schema
        self._entries: Dict[Tid, DeltaEntry] = {}
        for entry in entries:
            if entry.tid in self._entries:
                raise DeltaConsolidationError(
                    f"tid {entry.tid} appears in multiple delta entries"
                )
            self._entries[entry.tid] = entry

    # -- construction -----------------------------------------------------

    @classmethod
    def from_consolidated(
        cls, schema: Schema, entries: Dict[Tid, DeltaEntry]
    ) -> "DeltaRelation":
        """Adopt an already-consolidated ``{tid: entry}`` mapping.

        Skips the per-entry duplicate-tid check — the mapping's keys
        guarantee uniqueness. The caller must ensure each entry's tid
        equals its key and transfers ownership of ``entries``.
        """
        out = cls(schema)
        out._entries = entries
        return out

    @classmethod
    def from_records(
        cls, schema: Schema, records: Sequence[UpdateRecord]
    ) -> "DeltaRelation":
        """Consolidate an ordered update-record history into net effects.

        Records must be in commit order. A tuple whose history nets out
        to nothing (insert then delete, or modifications restoring the
        original value) produces no entry, as the paper's "net effect"
        semantics require.
        """
        first_old: Dict[Tid, Optional[Values]] = {}
        last_new: Dict[Tid, Optional[Values]] = {}
        last_ts: Dict[Tid, Timestamp] = {}

        for record in records:
            tid = record.tid
            if tid not in first_old:
                # First sighting: the old side of this record is the
                # tuple's state at the start of the window.
                first_old[tid] = record.old
                current: Optional[Values] = record.old
            else:
                current = last_new[tid]
            # Chain consistency checks.
            if record.kind is UpdateKind.INSERT:
                if current is not None:
                    raise DeltaConsolidationError(
                        f"insert of live tid {tid} at ts={record.ts}"
                    )
            else:
                if current is None:
                    raise DeltaConsolidationError(
                        f"{record.kind.value} of dead tid {tid} at ts={record.ts}"
                    )
                if record.old != current:
                    raise DeltaConsolidationError(
                        f"old value mismatch for tid {tid} at ts={record.ts}: "
                        f"log says {record.old}, chain says {current}"
                    )
            last_new[tid] = record.new
            last_ts[tid] = record.ts

        entries = []
        for tid, old in first_old.items():
            new = last_new[tid]
            if old is None and new is None:
                continue  # born and died inside the window
            if old is not None and new is not None and old == new:
                continue  # modified back to the original value
            entries.append(DeltaEntry(tid, old, new, last_ts[tid]))
        return cls(schema, entries)

    @classmethod
    def empty(cls, schema: Schema) -> "DeltaRelation":
        return cls(schema)

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[DeltaEntry]:
        return iter(self._entries.values())

    def __contains__(self, tid: Tid) -> bool:
        return tid in self._entries

    def get(self, tid: Tid) -> Optional[DeltaEntry]:
        return self._entries.get(tid)

    def is_empty(self) -> bool:
        return not self._entries

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DeltaRelation):
            return NotImplemented
        return self._entries == other._entries

    def __repr__(self) -> str:
        kinds = {"insert": 0, "delete": 0, "modify": 0}
        for entry in self:
            kinds[entry.kind.value] += 1
        return (
            f"DeltaRelation({kinds['insert']} ins, {kinds['delete']} del, "
            f"{kinds['modify']} mod)"
        )

    def max_ts(self) -> Timestamp:
        return max((entry.ts for entry in self), default=0)

    # -- the paper's operators ---------------------------------------------

    def insertions(self) -> Relation:
        """insertions(ΔR): rows to add to the old state (paper §4.1)."""
        out = Relation(self.schema)
        for entry in self:
            if entry.new is not None:
                out.add(entry.tid, entry.new)
        return out

    def deletions(self) -> Relation:
        """deletions(ΔR): rows to remove from the old state (paper §4.1)."""
        out = Relation(self.schema)
        for entry in self:
            if entry.old is not None:
                out.add(entry.tid, entry.old)
        return out

    def pure_insertions(self) -> Relation:
        """Only brand-new tuples (no modification new-sides)."""
        out = Relation(self.schema)
        for entry in self:
            if entry.kind is ChangeKind.INSERT:
                out.add(entry.tid, entry.new)
        return out

    def pure_deletions(self) -> Relation:
        """Only removed tuples (no modification old-sides)."""
        out = Relation(self.schema)
        for entry in self:
            if entry.kind is ChangeKind.DELETE:
                out.add(entry.tid, entry.old)
        return out

    def modifications(self) -> List[DeltaEntry]:
        return [e for e in self if e.kind is ChangeKind.MODIFY]

    def filter_since(self, ts: Timestamp) -> "DeltaRelation":
        """Entries with ``entry.ts > ts`` — the timestamp predicate the
        CQ manager appends to the differential query (Section 4.2)."""
        return DeltaRelation(
            self.schema, (e for e in self if e.ts > ts)
        )

    # -- applying -------------------------------------------------------------

    def apply_to(self, relation: Relation) -> Relation:
        """The new state: (relation − deletions) ∪ insertions."""
        out = relation.copy()
        for entry in self:
            if entry.new is None:
                out.remove(entry.tid)
            else:
                out.add(entry.tid, entry.new)
        return out

    def unapply_from(self, relation: Relation) -> Relation:
        """Reconstruct the old state from the new one."""
        out = relation.copy()
        for entry in self:
            if entry.old is None:
                out.remove(entry.tid)
            else:
                out.add(entry.tid, entry.old)
        return out

    def reversed(self) -> "DeltaRelation":
        """The inverse delta (swap old and new sides)."""
        return DeltaRelation(
            self.schema,
            (DeltaEntry(e.tid, e.new, e.old, e.ts) for e in self),
        )

    def compose(self, later: "DeltaRelation") -> "DeltaRelation":
        """The net effect of this delta followed by ``later``.

        ``compose`` is to deltas what consolidation is to logs: for a
        tid in both, the earlier old side pairs with the later new side
        (cancelling if equal). The later delta's old sides must match
        this delta's new sides — a mismatch means the two deltas are
        not consecutive windows of the same history.
        """
        merged: Dict[Tid, DeltaEntry] = dict(self._entries)
        for entry in later:
            earlier = merged.get(entry.tid)
            if earlier is None:
                merged[entry.tid] = entry
                continue
            if earlier.new != entry.old:
                raise DeltaConsolidationError(
                    f"compose mismatch for tid {entry.tid}: earlier new "
                    f"side {earlier.new} != later old side {entry.old}"
                )
            if earlier.old == entry.new:
                del merged[entry.tid]  # net no-op
            else:
                merged[entry.tid] = DeltaEntry(
                    entry.tid, earlier.old, entry.new, entry.ts
                )
        return DeltaRelation(self.schema, merged.values())

    # -- presentation ----------------------------------------------------------

    def wide_schema(self) -> Schema:
        """Schema of the Example 1 "wide" rendering: A_old, A_new, ts."""
        attrs = [
            Attribute(f"{a.name}_old", a.type) for a in self.schema
        ] + [
            Attribute(f"{a.name}_new", a.type) for a in self.schema
        ]
        attrs.append(Attribute("ts", AttributeType.INT))
        return Schema(attrs)

    def as_wide_relation(self) -> Relation:
        """The paper's tabular ΔR form: old side, new side, timestamp.

        Null (None) fills the missing side of inserts and deletes,
        matching the dashes in the paper's Example 1 table.
        """
        arity = len(self.schema)
        out = Relation(self.wide_schema())
        for entry in self:
            old = entry.old if entry.old is not None else (None,) * arity
            new = entry.new if entry.new is not None else (None,) * arity
            out.add(entry.tid, old + new + (entry.ts,))
        return out
