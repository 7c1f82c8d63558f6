"""Schemas: ordered collections of typed, named attributes."""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Sequence, Tuple

from repro.errors import SchemaError, TypeMismatchError, UnknownAttributeError
from repro.relational.types import AttributeType


class Attribute:
    """A named, typed column."""

    __slots__ = ("name", "type")

    def __init__(self, name: str, type: AttributeType):
        if not name or not isinstance(name, str):
            raise SchemaError(f"attribute name must be a non-empty string, got {name!r}")
        if "." in name:
            raise SchemaError(
                f"attribute name may not contain '.', got {name!r} "
                "(qualification belongs to the query, not the schema)"
            )
        if not isinstance(type, AttributeType):
            raise SchemaError(f"attribute type must be AttributeType, got {type!r}")
        self.name = name
        self.type = type

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Attribute)
            and self.name == other.name
            and self.type == other.type
        )

    def __hash__(self) -> int:
        return hash((self.name, self.type))

    def __repr__(self) -> str:
        return f"Attribute({self.name!r}, {self.type.value})"


class Schema:
    """An ordered, duplicate-free sequence of attributes.

    Schemas are immutable; all "modifying" operations return new
    schemas. Attribute positions are significant: rows are stored as
    plain tuples aligned with the schema.
    """

    __slots__ = ("_attributes", "_index", "_exact_types")

    def __init__(self, attributes: Iterable[Attribute]):
        attrs = tuple(attributes)
        index = {}
        for pos, attr in enumerate(attrs):
            if not isinstance(attr, Attribute):
                raise SchemaError(f"expected Attribute, got {attr!r}")
            if attr.name in index:
                raise SchemaError(f"duplicate attribute name {attr.name!r}")
            index[attr.name] = pos
        self._attributes = attrs
        self._index = index
        # The row check, compiled: what ``tuple(map(type, row))`` reads
        # for a row that validate_row would return unchanged.
        self._exact_types = tuple(attr.type.python_type for attr in attrs)

    @classmethod
    def of(cls, *pairs: Tuple[str, AttributeType]) -> "Schema":
        """Build a schema from (name, type) pairs.

        >>> Schema.of(("name", AttributeType.STR), ("price", AttributeType.INT))
        """
        return cls(Attribute(name, type_) for name, type_ in pairs)

    @property
    def attributes(self) -> Tuple[Attribute, ...]:
        return self._attributes

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(a.name for a in self._attributes)

    def __len__(self) -> int:
        return len(self._attributes)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self._attributes)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Schema) and self._attributes == other._attributes

    def __hash__(self) -> int:
        return hash(self._attributes)

    def __repr__(self) -> str:
        inner = ", ".join(f"{a.name}:{a.type.value}" for a in self._attributes)
        return f"Schema({inner})"

    def position(self, name: str) -> int:
        """Index of attribute ``name``; raises if absent."""
        try:
            return self._index[name]
        except KeyError:
            raise UnknownAttributeError(
                f"no attribute {name!r} in {self!r}"
            ) from None

    def attribute(self, name: str) -> Attribute:
        return self._attributes[self.position(name)]

    def type_of(self, name: str) -> AttributeType:
        return self.attribute(name).type

    def validate_row(self, values: Sequence[Any]) -> Tuple[Any, ...]:
        """Validate and coerce a row of values against this schema.

        A tuple whose element types are exactly the schema's is its own
        validated form and comes back as the same object; any other
        input (nulls, coercions, subclasses, lists, errors) is decided
        per attribute by :meth:`AttributeType.validate`.
        """
        if type(values) is tuple and tuple(map(type, values)) == self._exact_types:
            return values
        if len(values) != len(self._attributes):
            raise SchemaError(
                f"row arity {len(values)} does not match schema arity "
                f"{len(self._attributes)}"
            )
        validated = []
        for position, (attr, value) in enumerate(zip(self._attributes, values)):
            try:
                validated.append(attr.type.validate(value))
            except TypeMismatchError as exc:
                raise TypeMismatchError(
                    f"attribute {attr.name!r} (position {position}): {exc}"
                ) from None
        return tuple(validated)

    def project(self, names: Sequence[str]) -> "Schema":
        """New schema containing only ``names``, in the given order."""
        return Schema(self.attribute(name) for name in names)

    def rename(self, mapping: dict) -> "Schema":
        """New schema with attributes renamed per ``mapping``."""
        return Schema(
            Attribute(mapping.get(a.name, a.name), a.type)
            for a in self._attributes
        )

    def concat(self, other: "Schema") -> "Schema":
        """Concatenation of two schemas; names must not collide."""
        return Schema(self._attributes + other._attributes)

    def union_compatible(self, other: "Schema") -> bool:
        """True if the two schemas have the same types in the same order.

        Names may differ; union/difference follow positional semantics,
        as in the paper's relational-algebra treatment.
        """
        if len(self) != len(other):
            return False
        return all(
            a.type == b.type for a, b in zip(self._attributes, other._attributes)
        )
