"""Exception hierarchy for the repro package.

Every error raised on purpose by this library derives from
:class:`ReproError`, so callers can catch one base class at API
boundaries. Subclasses are grouped by subsystem.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


#: What a keyword kept only for its existing ``True`` callers once
#: selected when ``False``: by ``(owner, keyword)``, or by keyword when
#: every owner lost the same arm.
_DELETED_ARMS = {
    ("CQService", "fanout"): "the server's per-subscription DRA arm "
    "(every DRA subscription belongs to its sql_key group)",
    ("CQManager", "fanout"): "the manager's unindexed arm (a cohort "
    "routes while routing leaves someone out)",
    "columnar": "the row interpreter as a serving path (DRA always runs "
    "the kernels)",
}


def reject_deleted_arms(owner: str, **flags: bool) -> None:
    """Raise ``TypeError`` for a flag that asks for a deleted arm: each
    of ``flags`` still accepts ``True`` and selects nothing."""
    for name, value in flags.items():
        if value is not True:
            arm = _DELETED_ARMS.get((owner, name)) or _DELETED_ARMS[name]
            raise TypeError(f"{owner}({name}={value!r}): {arm} was deleted")


class SchemaError(ReproError):
    """A schema is malformed or two schemas are incompatible."""


class TypeMismatchError(SchemaError):
    """A value does not conform to the declared attribute type."""


class UnknownAttributeError(SchemaError):
    """A column reference does not resolve against the given schema(s)."""


class AmbiguousAttributeError(SchemaError):
    """An unqualified column reference matches more than one relation."""


class ExpressionError(ReproError):
    """An expression or predicate is structurally invalid."""


class QueryError(ReproError):
    """A query (algebra tree or SQL text) is invalid."""


class SQLSyntaxError(QueryError):
    """The SQL-subset parser rejected the input text."""

    def __init__(self, message: str, position: int = -1):
        super().__init__(message)
        self.position = position


class UnsupportedQueryError(QueryError):
    """The query is valid SQL but outside the supported SPJ fragment."""


class StorageError(ReproError):
    """Errors from the table / transaction layer."""


class NoSuchTupleError(StorageError):
    """A tid does not identify a live tuple in the table."""


class NoSuchTableError(StorageError):
    """A table name does not resolve in the database catalog."""


class DuplicateTableError(StorageError):
    """A table with the same name is already registered."""


class TransactionError(StorageError):
    """Illegal transaction state transition (e.g. commit twice)."""


class WALError(StorageError):
    """The write-ahead log is unusable (bad header, closed, misuse)."""


class CheckpointError(StorageError):
    """A checkpoint file failed validation (version, checksum, shape)."""


class DeltaError(ReproError):
    """Errors from the differential-relation layer."""


class DeltaConsolidationError(DeltaError):
    """The update log is inconsistent (e.g. modify of a never-seen tid)."""


class ContinualQueryError(ReproError):
    """Errors from the continual-query layer."""


class RegistrationError(ContinualQueryError):
    """A continual query could not be registered with the manager."""


class TriggerError(ContinualQueryError):
    """A trigger condition is malformed or cannot be evaluated."""


class SourceError(ReproError):
    """Errors from the DIOM-style source adapters."""


class NetworkError(ReproError):
    """Errors from the simulated network layer."""


class CodecError(NetworkError):
    """A wire frame is malformed: oversized length prefix, undecodable
    payload, or field structure that fails validation."""


class ClusterError(ReproError):
    """Errors from the sharded cluster layer (repro.cluster)."""


class ShardTimeout(ClusterError):
    """A shard request exceeded its deadline: the shard may be wedged,
    overloaded, or dead — the router cannot tell which, so the health
    state machine treats the request as a missed ack and the caller
    retries (or fails over) instead of blocking forever."""


class ConnectTimeout(NetworkError):
    """A session could not establish a connection within its total
    deadline; ``attempts`` counts the dial attempts made."""

    def __init__(self, message: str, attempts: int = 0):
        super().__init__(message)
        self.attempts = attempts
