"""Garbage collection of differential relations (paper Section 5.4).

Each CQ's *active delta zone* is the log suffix newer than its last
execution. The *system active delta zone* of a table is the union of
the zones of all CQs reading it — everything older than the oldest
zone boundary "will not be used by any active CQ" and can be retired.

A zone need not belong to one CQ: the manager keeps a single zone per
footprint cohort (keyed by the footprint tuple, so it cannot collide
with a CQ name) at the cohort's swept-through timestamp, which bounds
the window start of every member a poll may leave unvisited; servers
and routers key zones by session or shard.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

from repro.storage.database import Database
from repro.storage.timestamps import Timestamp


class ActiveDeltaZones:
    """Tracks per-CQ zone boundaries and prunes table logs."""

    def __init__(self, db: Database):
        self.db = db
        # zone key (CQ name, cohort footprint, ...) -> (tables, boundary ts)
        self._zones: Dict[Hashable, Tuple[Tuple[str, ...], Timestamp]] = {}

    def register(self, cq_name: str, tables: Tuple[str, ...], ts: Timestamp) -> None:
        self._zones[cq_name] = (tables, ts)

    def advance(self, cq_name: str, ts: Timestamp) -> None:
        """The CQ executed at ``ts``: its zone boundary moves forward."""
        tables, old_ts = self._zones[cq_name]
        self._zones[cq_name] = (tables, max(old_ts, ts))

    def try_advance(self, cq_name: str, ts: Timestamp) -> bool:
        """Advance if the zone exists; False when it does not.

        Transport sessions advance boundaries from client
        acknowledgements, which can race an unsubscribe or eviction —
        an ack for a zone that is already gone is a no-op, not an
        error.
        """
        if cq_name not in self._zones:
            return False
        self.advance(cq_name, ts)
        return True

    def boundary(self, cq_name: str) -> Optional[Timestamp]:
        """The zone boundary for one CQ, or None if not registered."""
        entry = self._zones.get(cq_name)
        return entry[1] if entry is not None else None

    def boundaries(self) -> Dict[str, Timestamp]:
        """All registered zone boundaries, ``{name: ts}`` (for ops
        introspection — the StatsReply payload ships this map)."""
        return {name: ts for name, (__, ts) in self._zones.items()}

    def remove(self, cq_name: str) -> None:
        self._zones.pop(cq_name, None)

    def watchers(self, table: str) -> List[str]:
        return [
            name
            for name, (tables, __) in list(self._zones.items())
            if table in tables
        ]

    def horizon(self, table: str) -> Optional[Timestamp]:
        """The oldest zone boundary among CQs reading ``table``.

        None when no CQ reads the table — the caller decides whether
        unwatched logs may be discarded wholesale.

        Zone snapshots are taken with ``list`` so another thread
        advancing (or a finalizing CQ removing) a zone mid-collection
        never trips dict-mutation errors; a concurrently advanced zone
        only makes the horizon *older* than strictly necessary, which
        is always safe.
        """
        boundaries = [
            ts for tables, ts in list(self._zones.values()) if table in tables
        ]
        return min(boundaries) if boundaries else None

    def collect(self, include_unwatched: bool = False) -> Dict[str, int]:
        """Prune every table's log up to its horizon.

        Returns the number of log records retired per table. With
        ``include_unwatched``, logs of tables no CQ reads are pruned to
        the current time.
        """
        pruned: Dict[str, int] = {}
        for table in self.db.tables():
            horizon = self.horizon(table.name)
            if horizon is None:
                if not include_unwatched:
                    continue
                horizon = self.db.now()
            count = table.log.prune_before(horizon)
            if count:
                pruned[table.name] = count
        return pruned

    def __repr__(self) -> str:
        zones = {name: ts for name, (__, ts) in self._zones.items()}
        return f"ActiveDeltaZones({zones})"
