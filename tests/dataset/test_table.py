"""Unit tests for the columnar Table."""

import numpy as np
import pytest

from repro.dataset.schema import Attribute, Schema
from repro.dataset.table import Table
from repro.exceptions import SchemaError


@pytest.fixture()
def schema():
    return Schema(
        [Attribute("A", range(5)), Attribute("B", ["p", "q"])],
        Attribute("S", ["u", "v", "w"]),
    )


@pytest.fixture()
def table(schema):
    return Table.from_rows(schema, [
        (0, "p", "u"),
        (1, "q", "v"),
        (2, "p", "w"),
        (3, "q", "u"),
        (4, "p", "v"),
    ])


class TestConstruction:
    def test_from_rows_length(self, table):
        assert len(table) == 5
        assert table.n == 5

    def test_from_rows_wrong_arity(self, schema):
        with pytest.raises(SchemaError, match="values"):
            Table.from_rows(schema, [(0, "p")])

    def test_from_rows_bad_value(self, schema):
        with pytest.raises(SchemaError, match="not in domain"):
            Table.from_rows(schema, [(0, "p", "nope")])

    def test_missing_column_rejected(self, schema):
        with pytest.raises(SchemaError, match="missing column"):
            Table(schema, {"A": np.zeros(3), "B": np.zeros(3)})

    def test_length_mismatch_rejected(self, schema):
        with pytest.raises(SchemaError, match="length"):
            Table(schema, {"A": np.zeros(3), "B": np.zeros(3),
                           "S": np.zeros(4)})

    def test_out_of_domain_codes_rejected(self, schema):
        with pytest.raises(SchemaError, match="outside domain"):
            Table(schema, {"A": np.array([9]), "B": np.array([0]),
                           "S": np.array([0])})

    def test_extra_column_rejected(self, schema):
        with pytest.raises(SchemaError, match="unexpected"):
            Table(schema, {"A": np.zeros(1), "B": np.zeros(1),
                           "S": np.zeros(1), "X": np.zeros(1)})

    def test_from_codes(self, schema):
        codes = np.array([[0, 1, 2], [4, 0, 0]])
        t = Table.from_codes(schema, codes)
        assert t.decode_row(0) == (0, "q", "w")
        assert t.decode_row(1) == (4, "p", "u")

    def test_from_codes_bad_shape(self, schema):
        with pytest.raises(SchemaError, match="code matrix"):
            Table.from_codes(schema, np.zeros((2, 2), dtype=np.int32))

    def test_empty_table(self, schema):
        t = Table.from_rows(schema, [])
        assert len(t) == 0
        assert t.qi_matrix().shape == (0, 2)
        assert t.distinct_sensitive_count() == 0


class TestAccess:
    def test_column_read_only(self, table):
        col = table.column("A")
        with pytest.raises(ValueError):
            col[0] = 9

    def test_unknown_column(self, table):
        with pytest.raises(SchemaError):
            table.column("Z")

    def test_sensitive_column(self, table):
        assert list(table.sensitive_column) == [0, 1, 2, 0, 1]

    def test_qi_matrix_shape_and_order(self, table):
        m = table.qi_matrix()
        assert m.shape == (5, 2)
        assert list(m[:, 0]) == [0, 1, 2, 3, 4]

    def test_code_matrix_includes_sensitive_last(self, table):
        m = table.code_matrix()
        assert m.shape == (5, 3)
        assert list(m[:, 2]) == [0, 1, 2, 0, 1]

    def test_row_codes_and_bounds(self, table):
        assert table.row_codes(2) == (2, 0, 2)
        with pytest.raises(IndexError):
            table.row_codes(99)

    def test_iter_rows(self, table):
        rows = list(table.iter_rows())
        assert rows[0] == (0, 0, 0)
        assert rows == [table.row_codes(i) for i in range(len(table))]
        assert {type(code) for row in rows for code in row} == {int}

    def test_sensitive_histogram(self, table):
        assert table.sensitive_histogram() == {0: 2, 1: 2, 2: 1}

    def test_distinct_sensitive_count(self, table):
        assert table.distinct_sensitive_count() == 3


class TestOperations:
    def test_take_reorders(self, table):
        t = table.take(np.array([4, 0]))
        assert t.decode_row(0) == (4, "p", "v")
        assert t.decode_row(1) == (0, "p", "u")

    def test_select_mask(self, table):
        t = table.select(table.column("B") == 0)  # "p"
        assert len(t) == 3

    def test_select_bad_mask_length(self, table):
        with pytest.raises(SchemaError, match="mask length"):
            table.select(np.array([True]))

    def test_sample_without_replacement(self, table):
        rng = np.random.default_rng(0)
        t = table.sample(3, rng)
        assert len(t) == 3
        # all sampled rows exist in the original
        originals = set(table.iter_rows())
        assert set(t.iter_rows()) <= originals

    def test_sample_too_many(self, table):
        rng = np.random.default_rng(0)
        with pytest.raises(SchemaError):
            table.sample(99, rng)

    def test_project_qi(self, table):
        t = table.project_qi(["B"])
        assert t.schema.qi_names == ("B",)
        assert len(t) == 5
        assert list(t.sensitive_column) == list(table.sensitive_column)

    def test_with_sensitive_swaps_column(self, table):
        new_sens = Attribute("S2", ["x", "y"])
        t = table.with_sensitive(new_sens, np.array([0, 1, 0, 1, 0]))
        assert t.schema.sensitive.name == "S2"
        assert list(t.sensitive_column) == [0, 1, 0, 1, 0]
        assert t.column("A") is table.column("A")
