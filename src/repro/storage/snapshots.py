"""Database snapshots: JSON-serializable state for save/load.

Continual-query deployments are long-running; being able to checkpoint
a site's state (contents, update logs, clock) and restore it is basic
operability. The format is plain JSON: schemas, rows with their tids,
optional update logs with their GC watermarks, and the logical clock,
so a restored database resumes exactly where the original stopped —
including the delta windows in-flight CQs depend on.
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Any, Dict

from repro.errors import CheckpointError, StorageError
from repro.jsonenc import compact_json
from repro.relational.schema import Schema
from repro.relational.types import AttributeType
from repro.storage.database import Database
from repro.storage.timestamps import LogicalClock
from repro.storage.update_log import UpdateKind, UpdateRecord

FORMAT_VERSION = 1

#: Version of the on-disk checkpoint *envelope* (header line + payload).
CHECKPOINT_FORMAT = 2


def write_checkpoint(path: str, payload: Dict[str, Any]) -> None:
    """Atomically write a checksummed checkpoint file.

    Layout: one header line ``{"repro_checkpoint": 2, "crc32": ...}``
    followed by the JSON payload. The bytes land in a sibling temp file
    first and only an ``os.replace`` (atomic on POSIX) publishes them,
    so a crash mid-write leaves the previous checkpoint intact — there
    is never a moment where ``path`` holds a partial file.
    """
    body = compact_json(payload).encode("utf-8")
    header = compact_json(
        {
            "repro_checkpoint": CHECKPOINT_FORMAT,
            "crc32": zlib.crc32(body) & 0xFFFFFFFF,
        }
    ).encode("utf-8")
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as handle:
        handle.write(header + b"\n" + body)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def read_checkpoint(path: str) -> Dict[str, Any]:
    """Read and validate a checkpoint written by :func:`write_checkpoint`.

    Raises :class:`~repro.errors.CheckpointError` when the file is not
    an envelope, carries an unsupported version, or fails its CRC32 —
    a half-written or bit-flipped checkpoint is rejected loudly instead
    of silently restoring garbage.
    """
    with open(path, "rb") as handle:
        raw = handle.read()
    head, sep, body = raw.partition(b"\n")
    if not sep:
        raise CheckpointError(f"{path}: missing checkpoint header line")
    try:
        header = json.loads(head.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"{path}: unreadable header: {exc}") from exc
    if not isinstance(header, dict) or "repro_checkpoint" not in header:
        raise CheckpointError(f"{path}: not a checkpoint envelope")
    if header["repro_checkpoint"] != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"{path}: unsupported checkpoint format "
            f"{header['repro_checkpoint']!r} (expected {CHECKPOINT_FORMAT})"
        )
    if zlib.crc32(body) & 0xFFFFFFFF != header.get("crc32"):
        raise CheckpointError(f"{path}: checksum mismatch (corrupt payload)")
    try:
        return json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"{path}: undecodable payload: {exc}") from exc


def database_to_dict(db: Database, include_logs: bool = True) -> Dict[str, Any]:
    """Serialize a database to JSON-compatible primitives."""
    tables = {}
    for table in db.tables():
        entry: Dict[str, Any] = {
            "schema": [
                [attr.name, attr.type.value] for attr in table.schema
            ],
            "next_tid": table._next_tid,
            "rows": [
                [row.tid, list(row.values)] for row in table.rows()
            ],
            "indexes": [
                [table.schema.attributes[p].name for p in index.positions]
                for index in table.indexes.all()
            ],
        }
        if include_logs:
            entry["log"] = [
                [
                    record.kind.value,
                    record.tid,
                    list(record.old) if record.old is not None else None,
                    list(record.new) if record.new is not None else None,
                    record.ts,
                    record.txn_id,
                ]
                for record in table.log
            ]
            entry["pruned_through"] = table.log.pruned_through
        tables[table.name] = entry
    return {
        "format": FORMAT_VERSION,
        "now": db.now(),
        "tables": tables,
    }


def database_from_dict(data: Dict[str, Any]) -> Database:
    """Reconstruct a database from :func:`database_to_dict` output."""
    if data.get("format") != FORMAT_VERSION:
        raise StorageError(
            f"unsupported snapshot format {data.get('format')!r}"
        )
    db = Database(LogicalClock(start=data["now"]))
    for name, entry in data["tables"].items():
        schema = Schema.of(
            *[(col, AttributeType(type_)) for col, type_ in entry["schema"]]
        )
        table = db.create_table(name, schema)
        for tid, values in entry["rows"]:
            table.current.add(tid, tuple(values))
        table._next_tid = entry["next_tid"]
        for columns in entry["indexes"]:
            table.create_index(columns)
        for kind, tid, old, new, ts, txn_id in entry.get("log", []):
            table.log.append(
                UpdateRecord(
                    UpdateKind(kind),
                    tid,
                    tuple(old) if old is not None else None,
                    tuple(new) if new is not None else None,
                    ts,
                    txn_id,
                )
            )
        table.log.mark_pruned(entry.get("pruned_through", 0))
    return db


def save_database(db: Database, path: str, include_logs: bool = True) -> None:
    """Atomically write a checksummed snapshot to ``path``.

    When the database journals through a WAL, the snapshot supersedes
    the journaled history: the WAL is truncated and re-seeded with the
    current table set so it stays standalone-replayable.
    """
    write_checkpoint(path, database_to_dict(db, include_logs=include_logs))
    if db.wal is not None and not db.wal.closed:
        from repro.storage.wal import rebase_wal

        rebase_wal(db.wal, db)


def load_database(path: str) -> Database:
    """Load a snapshot written by :func:`save_database`."""
    return database_from_dict(read_checkpoint(path))
