"""Durable write-ahead log for update records and CQ lifecycle events.

The in-memory :class:`~repro.storage.update_log.UpdateLog` is the
engine's working set; this module is its crash-safe shadow. Every
committed :class:`UpdateRecord` (and every table/CQ lifecycle event) is
journaled *before* it is applied, so a process that dies between
checkpoints loses nothing: recovery replays the journal on top of the
last checkpoint and the restored site carries exactly the state the
crashed one had acknowledged.

Frame layout (append-only file)::

    +----------------+----------------+---------------------------+
    | 4 bytes, BE    | 4 bytes, BE    | UTF-8 JSON payload        |
    | payload length | CRC32(payload) | {"k": <kind>, ...fields}  |
    +----------------+----------------+---------------------------+

A crash mid-append leaves a *torn* tail: a short prefix, a length
promising bytes that never arrived, or a payload whose CRC32 does not
match. Recovery never crashes on a torn tail — it replays every intact
frame, truncates the file at the first bad byte (counted as a torn
truncation), and the log is immediately appendable again. Corruption
*before* the torn tail is indistinguishable from it: everything after
the first bad frame is discarded, which is the strongest sound answer
an unfenced log can give.

``fsync`` policy trades durability for throughput:

* ``always`` — fsync after every commit barrier (no acknowledged
  transaction is ever lost);
* ``batch``  — fsync every :attr:`WriteAheadLog.batch_window` appends
  and on truncate/close (bounded loss window, near-``off`` throughput);
* ``off``    — never fsync explicitly (the OS page cache decides).
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import WALError
from repro.jsonenc import compact_json
from repro.metrics import Metrics
from repro.storage.update_log import UpdateKind, UpdateRecord

_HEADER = struct.Struct(">II")  # payload length, CRC32(payload)

FSYNC_POLICIES = ("always", "batch", "off")

#: Entry kinds a journal may contain.
KIND_CREATE_TABLE = "create_table"
KIND_DROP_TABLE = "drop_table"
KIND_BASELINE = "baseline"
KIND_COMMIT = "commit"
KIND_CQ_REGISTER = "cq_register"
KIND_CQ_DEREGISTER = "cq_deregister"
KIND_SUB_REGISTER = "sub_register"
KIND_SUB_DEREGISTER = "sub_deregister"


def _encode_values(values) -> Optional[List[Any]]:
    return None if values is None else list(values)


def _decode_values(data):
    return None if data is None else tuple(data)


def record_to_entry(record: UpdateRecord) -> List[Any]:
    return [
        record.kind.value,
        record.tid,
        _encode_values(record.old),
        _encode_values(record.new),
    ]


def record_from_entry(data: Sequence[Any], ts: int, txn_id: int) -> UpdateRecord:
    kind, tid, old, new = data
    return UpdateRecord(
        UpdateKind(kind),
        tid,
        _decode_values(old),
        _decode_values(new),
        ts,
        txn_id,
    )


class WALRecovery:
    """What scanning a journal found: intact entries plus tail state."""

    __slots__ = ("entries", "torn", "valid_bytes", "path")

    def __init__(
        self, entries: List[Dict[str, Any]], torn: bool, valid_bytes: int, path: str
    ):
        self.entries = entries
        self.torn = torn
        self.valid_bytes = valid_bytes
        self.path = path

    def __repr__(self) -> str:
        return (
            f"WALRecovery({len(self.entries)} entries, torn={self.torn}, "
            f"valid_bytes={self.valid_bytes})"
        )


def scan_wal(path: str, repair: bool = True) -> WALRecovery:
    """Read every intact frame from a journal file.

    Stops at the first torn or corrupt frame. With ``repair`` (the
    default) the file is truncated at that point so the journal is
    appendable again; the recovery result records that a truncation
    happened. A missing file scans as empty.
    """
    if not os.path.exists(path):
        return WALRecovery([], False, 0, path)
    entries: List[Dict[str, Any]] = []
    valid = 0
    torn = False
    with open(path, "rb") as handle:
        data = handle.read()
    size = len(data)
    offset = 0
    while True:
        if offset + _HEADER.size > size:
            torn = offset < size
            break
        length, crc = _HEADER.unpack_from(data, offset)
        start = offset + _HEADER.size
        end = start + length
        if end > size:
            torn = True
            break
        payload = data[start:end]
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            torn = True
            break
        try:
            entry = json.loads(payload.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            torn = True
            break
        if not isinstance(entry, dict) or "k" not in entry:
            torn = True
            break
        entries.append(entry)
        offset = end
        valid = end
    if torn and repair and valid < size:
        with open(path, "r+b") as handle:
            handle.truncate(valid)
    return WALRecovery(entries, torn, valid, path)


class WriteAheadLog:
    """An append-only, checksummed journal of database events.

    One journal serves a whole :class:`~repro.storage.database.Database`
    (every table, plus CQ registration events from managers/servers that
    share the database). Appends happen *before* the corresponding
    in-memory apply — see :meth:`Transaction.commit
    <repro.storage.transactions.Transaction.commit>` — so the journal is
    always at least as new as memory.
    """

    def __init__(
        self,
        path: str,
        fsync: str = "batch",
        batch_window: int = 64,
        metrics: Optional[Metrics] = None,
    ):
        if fsync not in FSYNC_POLICIES:
            raise WALError(
                f"unknown fsync policy {fsync!r}; expected one of {FSYNC_POLICIES}"
            )
        self.path = path
        self.fsync = fsync
        self.batch_window = max(1, batch_window)
        self.metrics = metrics
        #: Local counters (also charged to ``metrics`` when present).
        self.appends = 0
        self.syncs = 0
        self._unsynced = 0
        self._handle = open(path, "ab")

    # -- low-level append --------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._handle is None or self._handle.closed

    def append(self, entry: Dict[str, Any]) -> None:
        """Journal one entry (a JSON-compatible dict with a ``k`` kind)."""
        if self.closed:
            raise WALError(f"WAL {self.path!r} is closed")
        payload = compact_json(entry).encode("utf-8")
        crc = zlib.crc32(payload) & 0xFFFFFFFF
        self._handle.write(_HEADER.pack(len(payload), crc) + payload)
        self.appends += 1
        if self.metrics:
            self.metrics.count(Metrics.WAL_APPENDS)
        self._unsynced += 1
        if self.fsync == "batch" and self._unsynced >= self.batch_window:
            self.sync()

    def commit_barrier(self) -> None:
        """Make everything journaled so far durable, per policy.

        Called once per transaction commit (after all of the commit's
        frames are appended), so ``always`` costs one fsync per
        transaction, not one per table touched.
        """
        if self.fsync == "always":
            self.sync()
        else:
            self._handle.flush()

    def sync(self) -> None:
        """Flush user- and OS-level buffers to stable storage."""
        if self.closed:
            return
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self.syncs += 1
        self._unsynced = 0

    def truncate(self) -> None:
        """Drop every journaled frame (a checkpoint now covers them)."""
        if self.closed:
            raise WALError(f"WAL {self.path!r} is closed")
        self._handle.flush()
        self._handle.truncate(0)
        self._handle.seek(0)
        if self.fsync != "off":
            self.sync()

    def close(self) -> None:
        if self.closed:
            return
        self._handle.flush()
        if self.fsync != "off":
            os.fsync(self._handle.fileno())
        self._handle.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- typed appends -----------------------------------------------------

    def log_create_table(self, table) -> None:
        self.append(
            {
                "k": KIND_CREATE_TABLE,
                "name": table.name,
                "schema": [[a.name, a.type.value] for a in table.schema],
                "indexes": [
                    [table.schema.attributes[p].name for p in index.positions]
                    for index in table.indexes.all()
                ],
            }
        )
        self.commit_barrier()

    def log_drop_table(self, name: str) -> None:
        self.append({"k": KIND_DROP_TABLE, "name": name})
        self.commit_barrier()

    def log_baseline(self, table, now: int) -> None:
        """Journal a populated table's current contents.

        Emitted when a journal is attached to a database that already
        holds rows, so the journal stays standalone-replayable: history
        before the attach point is flattened into this one frame.
        """
        if not len(table):
            return
        self.append(
            {
                "k": KIND_BASELINE,
                "table": table.name,
                "now": now,
                "next_tid": table._next_tid,
                "pruned_through": table.log.pruned_through,
                "rows": [[row.tid, list(row.values)] for row in table.rows()],
            }
        )

    def log_commit(self, table_name: str, records: Sequence[UpdateRecord]) -> None:
        """Journal one table's slice of a commit (one frame per table)."""
        if not records:
            return
        self.append(
            {
                "k": KIND_COMMIT,
                "table": table_name,
                "ts": records[0].ts,
                "txn": records[0].txn_id,
                "records": [record_to_entry(r) for r in records],
            }
        )

    def log_event(self, kind: str, **fields: Any) -> None:
        """Journal a CQ lifecycle event (register/deregister).

        Control-plane frames are rare and are never followed by a
        transaction commit barrier, so each one flushes immediately —
        otherwise a registration could sit in the user-space batch
        buffer indefinitely and vanish in a crash.
        """
        entry = {"k": kind}
        entry.update(fields)
        self.append(entry)
        self.commit_barrier()

    def __repr__(self) -> str:
        state = "closed" if self.closed else self.fsync
        return f"WriteAheadLog({self.path!r}, {state}, {self.appends} appends)"


# -- replay -------------------------------------------------------------------


class ReplaySummary:
    """What replaying a journal into a database applied and skipped."""

    __slots__ = ("commits_applied", "records_applied", "commits_skipped", "cq_events")

    def __init__(self) -> None:
        self.commits_applied = 0
        self.records_applied = 0
        #: Frames at or below the checkpoint horizon (already covered).
        self.commits_skipped = 0
        #: CQ lifecycle entries, in journal order, for the caller (a
        #: manager or server recovery path) to re-apply at its level.
        self.cq_events: List[Dict[str, Any]] = []

    def __repr__(self) -> str:
        return (
            f"ReplaySummary({self.commits_applied} commits, "
            f"{self.records_applied} records, "
            f"{self.commits_skipped} skipped, {len(self.cq_events)} cq events)"
        )


def replay_entries(db, entries: List[Dict[str, Any]], base_ts: int = 0) -> ReplaySummary:
    """Apply journal entries newer than ``base_ts`` to a database.

    ``base_ts`` is the checkpoint horizon: commit frames at or below it
    are already covered by the loaded snapshot and are skipped (a crash
    between writing a checkpoint and truncating the journal leaves such
    frames behind). Table events are idempotent — creating an existing
    table or dropping a missing one is a no-op. Applies go through
    :meth:`Table.apply_committed` directly (never through a
    Transaction), so replay neither re-journals nor re-notifies.
    """
    from repro.relational.schema import Schema
    from repro.relational.types import AttributeType

    summary = ReplaySummary()
    max_ts = base_ts
    for entry in entries:
        kind = entry["k"]
        if kind == KIND_CREATE_TABLE:
            if entry["name"] not in db:
                db.create_table(
                    entry["name"],
                    Schema.of(
                        *[(c, AttributeType(t)) for c, t in entry["schema"]]
                    ),
                    indexes=entry.get("indexes", ()),
                )
        elif kind == KIND_DROP_TABLE:
            if entry["name"] in db:
                db.drop_table(entry["name"])
        elif kind == KIND_BASELINE:
            table = db.table(entry["table"])
            if not len(table):
                for tid, values in entry["rows"]:
                    tid = tuple(tid) if isinstance(tid, list) else tid
                    table.current.add(tid, tuple(values))
                    table.indexes.on_insert(tid, tuple(values))
                table._next_tid = max(table._next_tid, entry["next_tid"])
                # History through the attach point is flattened into
                # this frame: mark it retired so a differential read
                # into it raises instead of silently missing records.
                table.log.mark_pruned(
                    max(entry.get("pruned_through", 0), entry.get("now", 0))
                )
                max_ts = max(max_ts, entry.get("now", 0))
        elif kind == KIND_COMMIT:
            ts = entry["ts"]
            if ts <= base_ts:
                summary.commits_skipped += 1
                continue
            table = db.table(entry["table"])
            records = [
                record_from_entry(data, ts, entry.get("txn", -1))
                for data in entry["records"]
            ]
            table.apply_committed(records)
            for record in records:
                if isinstance(record.tid, int):
                    table._next_tid = max(table._next_tid, record.tid + 1)
            summary.commits_applied += 1
            summary.records_applied += len(records)
            max_ts = max(max_ts, ts)
        else:
            summary.cq_events.append(entry)
    db.clock.advance_to(max_ts)
    return summary


def recover_database(
    path: str,
    fsync: str = "batch",
    metrics: Optional[Metrics] = None,
    base=None,
):
    """Rebuild a database from a journal and re-open it for appending.

    ``base`` is an optional already-restored database (from the last
    checkpoint); journal frames at or below its clock are skipped. With
    no base, the journal must carry the full history (it does, until the
    first checkpoint truncates it).

    Returns ``(db, recovery, summary)``: the live database (journal
    attached, ready for new commits), the scan result (including whether
    a torn tail was truncated), and the replay summary (including CQ
    lifecycle events for manager/server-level recovery).
    """
    from repro.storage.database import Database

    recovery = scan_wal(path, repair=True)
    db = base if base is not None else Database()
    summary = replay_entries(
        db, recovery.entries, base_ts=db.now() if base is not None else 0
    )
    if metrics:
        metrics.count(Metrics.WAL_RECOVERED, len(recovery.entries))
        if recovery.torn:
            metrics.count(Metrics.WAL_TORN_TRUNCATIONS)
    wal = WriteAheadLog(path, fsync=fsync, metrics=metrics)
    db.attach_wal(wal, journal_existing=False)
    return db, recovery, summary


def shard_wal_path(root: str, shard_id: int) -> str:
    """The journal path of one cluster shard: ``<root>/shard-<id>/wal.log``.

    Each shard owns a private durability directory so concurrent shard
    journals never interleave frames, and a shard's recovery needs only
    its own directory. The directory is created on first use.
    """
    directory = os.path.join(root, f"shard-{shard_id}")
    os.makedirs(directory, exist_ok=True)
    return os.path.join(directory, "wal.log")


def rebase_wal(wal: WriteAheadLog, db) -> None:
    """Truncate a journal a checkpoint just superseded and re-seed it.

    After a checkpoint, the journaled history is redundant — but an
    empty journal would no longer replay standalone (its create-table
    frames are gone). Re-seeding with one creation + baseline frame per
    table keeps both recovery paths sound: checkpoint + (empty) journal
    suffix, or journal alone if the checkpoint file is ever lost.
    """
    wal.truncate()
    now = db.now()
    for table in db.tables():
        wal.log_create_table(table)
        wal.log_baseline(table, now)
    # The checkpoint claims to supersede the journal from this moment;
    # the re-seeded frames must be durable before that claim holds.
    wal.commit_barrier()
