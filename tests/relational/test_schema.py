"""Tests for schemas: construction, lookup, projection, compatibility."""

import enum

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SchemaError, TypeMismatchError, UnknownAttributeError
from repro.relational.schema import Attribute, Schema
from repro.relational.types import AttributeType


@pytest.fixture
def schema():
    return Schema.of(
        ("sid", AttributeType.INT),
        ("name", AttributeType.STR),
        ("price", AttributeType.INT),
    )


class TestConstruction:
    def test_of_builds_in_order(self, schema):
        assert schema.names == ("sid", "name", "price")

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            Schema.of(("a", AttributeType.INT), ("a", AttributeType.STR))

    def test_dot_in_name_rejected(self):
        with pytest.raises(SchemaError):
            Attribute("s.price", AttributeType.INT)

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            Attribute("", AttributeType.INT)

    def test_non_attribute_rejected(self):
        with pytest.raises(SchemaError):
            Schema(["not-an-attribute"])

    def test_empty_schema_allowed(self):
        assert len(Schema([])) == 0


class TestLookup:
    def test_position(self, schema):
        assert schema.position("price") == 2

    def test_unknown_attribute(self, schema):
        with pytest.raises(UnknownAttributeError):
            schema.position("volume")

    def test_contains(self, schema):
        assert "name" in schema
        assert "volume" not in schema

    def test_type_of(self, schema):
        assert schema.type_of("name") is AttributeType.STR


class TestRowValidation:
    def test_valid_row(self, schema):
        assert schema.validate_row((1, "DEC", 156)) == (1, "DEC", 156)

    def test_arity_mismatch(self, schema):
        with pytest.raises(SchemaError):
            schema.validate_row((1, "DEC"))

    def test_type_mismatch(self, schema):
        with pytest.raises(SchemaError):
            schema.validate_row((1, "DEC", "expensive"))

    def test_nulls_allowed(self, schema):
        assert schema.validate_row((None, None, None)) == (None, None, None)

    def test_coercion_applied(self):
        schema = Schema.of(("x", AttributeType.FLOAT))
        row = schema.validate_row((3,))
        assert isinstance(row[0], float)


class TestDerivation:
    def test_project_reorders(self, schema):
        projected = schema.project(["price", "sid"])
        assert projected.names == ("price", "sid")

    def test_rename(self, schema):
        renamed = schema.rename({"price": "cost"})
        assert renamed.names == ("sid", "name", "cost")
        assert renamed.type_of("cost") is AttributeType.INT

    def test_concat(self, schema):
        other = Schema.of(("qty", AttributeType.INT))
        assert schema.concat(other).names == ("sid", "name", "price", "qty")

    def test_concat_collision_rejected(self, schema):
        with pytest.raises(SchemaError):
            schema.concat(schema)


class TestCompatibility:
    def test_union_compatible_ignores_names(self, schema):
        other = Schema.of(
            ("a", AttributeType.INT),
            ("b", AttributeType.STR),
            ("c", AttributeType.INT),
        )
        assert schema.union_compatible(other)

    def test_union_incompatible_types(self, schema):
        other = Schema.of(
            ("a", AttributeType.INT),
            ("b", AttributeType.STR),
            ("c", AttributeType.STR),
        )
        assert not schema.union_compatible(other)

    def test_union_incompatible_arity(self, schema):
        assert not schema.union_compatible(Schema.of(("a", AttributeType.INT)))

    def test_equality_and_hash(self, schema):
        clone = Schema.of(
            ("sid", AttributeType.INT),
            ("name", AttributeType.STR),
            ("price", AttributeType.INT),
        )
        assert schema == clone
        assert hash(schema) == hash(clone)


# -- the compiled row check is the reference row check -----------------------

ALL_TYPES = list(AttributeType)


class Colour(enum.IntEnum):
    RED = 1


class Tag(str):
    pass


EXACT = {
    AttributeType.INT: st.integers(-(2**70), 2**70),
    AttributeType.FLOAT: st.floats(allow_nan=True, allow_infinity=True),
    AttributeType.STR: st.text(max_size=4),
    AttributeType.BOOL: st.booleans(),
}
ANYTHING = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-5, 5),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.binary(max_size=3),
    st.just(Colour.RED),
    st.just(Tag("t")),
    st.just([1]),
)


def reference_validate_row(schema, values):
    """validate_row as it was before the exact-type test: arity, then
    every value through its attribute's ``validate``."""
    if len(values) != len(schema):
        raise SchemaError("arity")
    return tuple(
        attr.type.validate(value) for attr, value in zip(schema, values)
    )


def same_row(left, right):
    """Equal element by element, in type as well as value (NaN is NaN)."""
    return len(left) == len(right) and all(
        type(a) is type(b) and (a == b or (a != a and b != b))
        for a, b in zip(left, right)
    )


@st.composite
def schema_and_exact_row(draw):
    types = draw(st.lists(st.sampled_from(ALL_TYPES), min_size=1, max_size=6))
    schema = Schema.of(*[(f"c{i}", t) for i, t in enumerate(types)])
    return schema, tuple(draw(EXACT[t]) for t in types)


@st.composite
def schema_and_any_row(draw):
    schema, exact = draw(schema_and_exact_row())
    row = [
        draw(ANYTHING) if draw(st.integers(0, 3)) == 0 else value
        for value in exact
    ]
    arity = draw(st.sampled_from(["same", "same", "same", "short", "long"]))
    if arity == "short":
        row.pop()
    elif arity == "long":
        row.append(draw(ANYTHING))
    return schema, draw(st.sampled_from([tuple, list]))(row)


class TestCompiledRowCheck:
    @settings(max_examples=400, deadline=None)
    @given(schema_and_any_row())
    def test_agrees_with_per_attribute_validation(self, case):
        schema, row = case
        before = list(row)
        try:
            expected = reference_validate_row(schema, row)
        except SchemaError as exc:
            with pytest.raises(SchemaError) as raised:
                schema.validate_row(row)
            assert type(raised.value) is type(exc)
        else:
            got = schema.validate_row(row)
            assert type(got) is tuple
            assert same_row(got, expected)
        assert same_row(list(row), before)

    @settings(max_examples=200, deadline=None)
    @given(schema_and_exact_row())
    def test_exact_row_comes_back_as_the_same_object(self, case):
        # No copy per validated row: this is what keeps peak RSS down
        # when a commit's rows are checked at each boundary they cross.
        schema, row = case
        assert schema.validate_row(row) is row

    @settings(max_examples=100, deadline=None)
    @given(schema_and_exact_row(), st.integers(-9, 9))
    def test_coerced_row_is_a_new_tuple(self, case, number):
        schema, exact = case
        schema = schema.concat(Schema.of(("f", AttributeType.FLOAT)))
        row = exact + (number,)
        got = schema.validate_row(row)
        assert got is not row and row[-1] is number
        assert type(got[-1]) is float and got[-1] == number
        assert same_row(got[:-1], exact)

    def test_bool_never_passes_as_int(self):
        schema = Schema.of(("n", AttributeType.INT), ("x", AttributeType.FLOAT))
        for row in [(True, 1.0), (1, False)]:
            with pytest.raises(TypeMismatchError):
                schema.validate_row(row)

    def test_type_error_names_attribute_and_position(self, schema):
        with pytest.raises(TypeMismatchError) as raised:
            schema.validate_row((1, "DEC", "x"))
        assert str(raised.value) == (
            "attribute 'price' (position 2): expected INT, got str: 'x'"
        )

    def test_arity_error_keeps_its_text(self, schema):
        with pytest.raises(SchemaError) as raised:
            schema.validate_row((1, "DEC"))
        assert type(raised.value) is SchemaError
        assert str(raised.value) == "row arity 2 does not match schema arity 3"
