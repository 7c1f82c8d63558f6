"""Attribute types for the relational engine.

The engine supports a small, closed set of scalar types. Each type
knows how to validate and coerce Python values, which keeps the rest of
the engine free of isinstance checks.
"""

from __future__ import annotations

import enum
from typing import Any

from repro.errors import TypeMismatchError


class AttributeType(enum.Enum):
    """The scalar types an attribute may carry."""

    INT = "int"
    FLOAT = "float"
    STR = "str"
    BOOL = "bool"

    def validate(self, value: Any) -> Any:
        """Return ``value`` coerced to this type, or raise.

        ``None`` is always accepted: differential relations use null
        attribute values for the missing side of inserts and deletes
        (paper Section 4.1).
        """
        if value is None:
            return None
        if self is AttributeType.INT:
            # bool is a subclass of int; reject it explicitly so that
            # True does not silently become 1 in an INT column.
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeMismatchError(
                    f"expected INT, got {type(value).__name__}: {value!r}"
                )
            return value
        if self is AttributeType.FLOAT:
            if isinstance(value, bool):
                raise TypeMismatchError(f"expected FLOAT, got bool: {value!r}")
            if isinstance(value, int):
                return float(value)
            if not isinstance(value, float):
                raise TypeMismatchError(
                    f"expected FLOAT, got {type(value).__name__}: {value!r}"
                )
            return value
        if self is AttributeType.STR:
            if not isinstance(value, str):
                raise TypeMismatchError(
                    f"expected STR, got {type(value).__name__}: {value!r}"
                )
            return value
        if self is AttributeType.BOOL:
            if not isinstance(value, bool):
                raise TypeMismatchError(
                    f"expected BOOL, got {type(value).__name__}: {value!r}"
                )
            return value
        raise AssertionError(f"unhandled type {self!r}")  # pragma: no cover

    @property
    def python_type(self) -> type:
        """The exact Python type of a non-null value :meth:`validate`
        returns unchanged. A value of exactly this type needs no check
        (``type(True) is bool``, so a bool never reads as INT); every
        other value — ``None``, an int in a FLOAT column, a subclass —
        is :meth:`validate`'s to decide."""
        return _PYTHON_TYPES[self]

    def is_numeric(self) -> bool:
        """True for types that participate in arithmetic and SUM/AVG."""
        return self in (AttributeType.INT, AttributeType.FLOAT)

    @property
    def wire_size(self) -> int:
        """Nominal serialized size in bytes, used by the network model.

        Strings are charged per character at call sites; this is the
        fixed-width baseline.
        """
        if self is AttributeType.INT:
            return 8
        if self is AttributeType.FLOAT:
            return 8
        if self is AttributeType.BOOL:
            return 1
        return 4  # STR: length prefix; content charged separately.


_PYTHON_TYPES = {
    AttributeType.INT: int,
    AttributeType.FLOAT: float,
    AttributeType.STR: str,
    AttributeType.BOOL: bool,
}


def infer_type(value: Any) -> AttributeType:
    """Infer the :class:`AttributeType` of a Python value."""
    if isinstance(value, bool):
        return AttributeType.BOOL
    if isinstance(value, int):
        return AttributeType.INT
    if isinstance(value, float):
        return AttributeType.FLOAT
    if isinstance(value, str):
        return AttributeType.STR
    raise TypeMismatchError(f"no attribute type for {type(value).__name__}")


def value_wire_size(value: Any) -> int:
    """Serialized size in bytes of one attribute value (network model)."""
    if value is None:
        return 1
    if isinstance(value, str):
        return 4 + len(value.encode("utf-8"))
    if isinstance(value, bool):
        return 1
    return 8
