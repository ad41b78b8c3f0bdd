"""Unit tests for attributes and schemas."""

import numpy as np
import pytest

from repro.dataset.schema import Attribute, AttributeKind, Schema
from repro.exceptions import SchemaError


class TestAttribute:
    def test_size_matches_domain(self):
        attr = Attribute("A", ["x", "y", "z"])
        assert attr.size == 3
        assert attr.values == ("x", "y", "z")

    def test_encode_decode_roundtrip(self):
        attr = Attribute("Age", range(20, 30),
                         kind=AttributeKind.NUMERIC)
        for value in range(20, 30):
            assert attr.decode(attr.encode(value)) == value

    def test_encode_unknown_value_raises(self):
        attr = Attribute("A", ["x"])
        with pytest.raises(SchemaError, match="not in domain"):
            attr.encode("nope")

    def test_decode_out_of_range_raises(self):
        attr = Attribute("A", ["x", "y"])
        with pytest.raises(SchemaError, match="out of range"):
            attr.decode(5)

    def test_empty_domain_rejected(self):
        with pytest.raises(SchemaError, match="empty domain"):
            Attribute("A", [])

    def test_duplicate_values_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            Attribute("A", ["x", "x"])

    def test_contains(self):
        attr = Attribute("A", ["x", "y"])
        assert "x" in attr
        assert "z" not in attr

    @pytest.mark.parametrize("value", [True, False, 1.0, 0.0,
                                       np.bool_(True), np.float64(1.0),
                                       np.float32(1.0)],
                             ids=repr)
    def test_bool_and_float_do_not_match_integer_values(self, value):
        # True == 1 == 1.0 hash alike, but are not the domain value 1
        attr = Attribute("A", range(50))
        with pytest.raises(SchemaError, match="not in domain"):
            attr.encode(value)
        assert value not in attr

    def test_values_of_the_domains_own_type_still_match(self):
        assert Attribute("A", range(50)).encode(np.int64(3)) == 3
        assert Attribute("A", [0.5, 1.0]).encode(1.0) == 1
        assert Attribute("A", [0.5, 1.0]).encode(np.float64(0.5)) == 0
        assert Attribute("A", [False, True]).encode(True) == 1
        assert Attribute("A", [False, True]).encode(np.bool_(False)) == 0

    def test_unhashable_value_not_in_domain(self):
        attr = Attribute("A", range(5))
        with pytest.raises(SchemaError, match="not in domain"):
            attr.encode([1])
        assert [1] not in attr

    def test_encode_many_decode_many(self):
        attr = Attribute("A", ["x", "y", "z"])
        codes = attr.encode_many(["z", "x"])
        assert codes == [2, 0]
        assert attr.decode_many(codes) == ["z", "x"]

    def test_equality_and_hash(self):
        a1 = Attribute("A", ["x", "y"])
        a2 = Attribute("A", ["x", "y"])
        a3 = Attribute("A", ["y", "x"])
        assert a1 == a2
        assert hash(a1) == hash(a2)
        assert a1 != a3

    def test_is_numeric(self):
        assert Attribute("A", [1], kind=AttributeKind.NUMERIC).is_numeric
        assert not Attribute("A", [1]).is_numeric

    def test_repr_mentions_name_and_size(self):
        text = repr(Attribute("Age", range(5)))
        assert "Age" in text and "size=5" in text


class TestSchema:
    def _schema(self):
        return Schema(
            [Attribute("A", range(3)), Attribute("B", range(4))],
            Attribute("S", range(2)),
        )

    def test_d_counts_qi_attributes(self):
        assert self._schema().d == 2

    def test_names_order_sensitive_last(self):
        assert self._schema().names == ("A", "B", "S")

    def test_attribute_lookup(self):
        schema = self._schema()
        assert schema.attribute("B").size == 4
        with pytest.raises(SchemaError, match="unknown attribute"):
            schema.attribute("Z")

    def test_is_sensitive(self):
        schema = self._schema()
        assert schema.is_sensitive("S")
        assert not schema.is_sensitive("A")

    def test_qi_index(self):
        schema = self._schema()
        assert schema.qi_index("B") == 1
        with pytest.raises(SchemaError, match="not a QI attribute"):
            schema.qi_index("S")

    def test_needs_at_least_one_qi(self):
        with pytest.raises(SchemaError, match="at least one QI"):
            Schema([], Attribute("S", range(2)))

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            Schema([Attribute("A", range(2)), Attribute("A", range(3))],
                   Attribute("S", range(2)))

    def test_qi_name_clashing_sensitive_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            Schema([Attribute("S", range(2))], Attribute("S", range(2)))

    def test_project_qi(self):
        schema = self._schema()
        sub = schema.project_qi(["B"])
        assert sub.qi_names == ("B",)
        assert sub.sensitive.name == "S"

    def test_project_qi_rejects_sensitive(self):
        schema = self._schema()
        with pytest.raises(SchemaError):
            schema.project_qi(["S"])

    def test_equality(self):
        assert self._schema() == self._schema()

    def test_repr(self):
        assert "sensitive=S" in repr(self._schema())
