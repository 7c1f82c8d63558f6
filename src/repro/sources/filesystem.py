"""A simulated file system and its update translator.

The paper's canonical non-database example: "file system updates can be
captured by either operating system or middleware and translated into a
differential relation and fed into DRA" (Sections 1, 5.5). Since the
reproduction must be deterministic and self-contained, the file system
is simulated: an in-memory tree supporting create/write/remove/touch,
whose change journal the :class:`FileSystemSource` translates into
events over the relation ``files(path, directory, size, mtime)``.
"""

from __future__ import annotations

import posixpath
from typing import Dict, List, Tuple

from repro.errors import SourceError
from repro.relational.schema import Schema
from repro.relational.types import AttributeType
from repro.storage.update_log import UpdateKind
from repro.sources.base import Source, SourceEvent

FILES_SCHEMA = Schema.of(
    ("path", AttributeType.STR),
    ("directory", AttributeType.STR),
    ("size", AttributeType.INT),
    ("mtime", AttributeType.INT),
)


class SimulatedFileSystem:
    """A tiny in-memory file system with a change journal.

    Paths are POSIX-style and normalized; directories are implicit
    (derived from paths). Every mutation advances an internal mtime
    counter, so histories are deterministic.
    """

    def __init__(self) -> None:
        self._files: Dict[str, Tuple[int, int]] = {}  # path -> (size, mtime)
        self._journal: List[SourceEvent] = []
        self._mtime = 0

    @staticmethod
    def _normalize(path: str) -> str:
        normalized = posixpath.normpath("/" + path.strip().lstrip("/"))
        if normalized == "/":
            raise SourceError("the root directory is not a file path")
        return normalized

    def _tick(self) -> int:
        self._mtime += 1
        return self._mtime

    def _row(self, path: str) -> Tuple[str, str, int, int]:
        size, mtime = self._files[path]
        return (path, posixpath.dirname(path), size, mtime)

    # -- operations --------------------------------------------------------

    def create(self, path: str, size: int = 0) -> None:
        path = self._normalize(path)
        if path in self._files:
            raise SourceError(f"file exists: {path}")
        self._files[path] = (size, self._tick())
        self._journal.append(
            SourceEvent(UpdateKind.INSERT, path, self._row(path))
        )

    def write(self, path: str, size: int) -> None:
        """Overwrite a file's contents (size change + mtime bump)."""
        path = self._normalize(path)
        if path not in self._files:
            raise SourceError(f"no such file: {path}")
        self._files[path] = (size, self._tick())
        self._journal.append(
            SourceEvent(UpdateKind.MODIFY, path, self._row(path))
        )

    def touch(self, path: str) -> None:
        """Update mtime only (or create an empty file)."""
        path = self._normalize(path)
        if path in self._files:
            size, __ = self._files[path]
            self._files[path] = (size, self._tick())
            self._journal.append(
                SourceEvent(UpdateKind.MODIFY, path, self._row(path))
            )
        else:
            self.create(path, 0)

    def remove(self, path: str) -> None:
        path = self._normalize(path)
        if path not in self._files:
            raise SourceError(f"no such file: {path}")
        del self._files[path]
        self._journal.append(SourceEvent(UpdateKind.DELETE, path, None))

    def rename(self, old: str, new: str) -> None:
        """A rename is a delete of the old path + create of the new one
        (that is exactly what a path-keyed relation observes)."""
        old = self._normalize(old)
        new = self._normalize(new)
        if old not in self._files:
            raise SourceError(f"no such file: {old}")
        if new in self._files:
            raise SourceError(f"target exists: {new}")
        size, __ = self._files[old]
        self.remove(old)
        self.create(new, size)

    # -- inspection ----------------------------------------------------------

    def exists(self, path: str) -> bool:
        return self._normalize(path) in self._files

    def size_of(self, path: str) -> int:
        return self._files[self._normalize(path)][0]

    def listdir(self, directory: str) -> List[str]:
        directory = posixpath.normpath("/" + directory.strip().lstrip("/"))
        return sorted(
            path
            for path in self._files
            if posixpath.dirname(path) == directory
        )

    def drain_journal(self) -> List[SourceEvent]:
        out = self._journal
        self._journal = []
        return out


class FileSystemSource(Source):
    """Translates a :class:`SimulatedFileSystem` journal into events."""

    def __init__(self, fs: SimulatedFileSystem):
        self.fs = fs

    @property
    def schema(self) -> Schema:
        return FILES_SCHEMA

    def drain(self) -> List[SourceEvent]:
        return self.fs.drain_journal()
