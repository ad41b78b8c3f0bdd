"""Unit tests for the QIT/ST publication (Definition 3, Lemma 1)."""

import numpy as np
import pytest

from repro.core.partition import Partition
from repro.core.tables import (
    AnatomizedTables,
    QuasiIdentifierTable,
    SensitiveTable,
)
from repro.dataset.hospital import PAPER_PARTITION_GROUPS
from repro.exceptions import PartitionError, SchemaError


@pytest.fixture()
def paper_published(hospital):
    """QIT/ST from the paper's own partition (Tables 3a / 3b)."""
    partition = Partition(hospital, PAPER_PARTITION_GROUPS)
    return AnatomizedTables.from_partition(partition)


class TestQuasiIdentifierTable:
    def test_matches_paper_table_3a(self, paper_published, hospital):
        """The QIT holds the exact QI values with group ids 1,1,1,1,
        2,2,2,2 (paper Table 3a)."""
        qit = paper_published.qit
        assert list(qit.group_ids) == [1, 1, 1, 1, 2, 2, 2, 2]
        for i in range(8):
            decoded = qit.decode_row(i)
            expected_qi = hospital.decode_row(i)[:3]
            assert decoded[:3] == expected_qi

    def test_group_count(self, paper_published):
        assert paper_published.qit.group_count() == 2

    def test_rows_of_group(self, paper_published):
        assert list(paper_published.qit.rows_of_group(2)) == [4, 5, 6, 7]

    def test_qi_column(self, paper_published):
        col = paper_published.qit.qi_column("Sex")
        assert len(col) == 8

    def test_iter_rows_shape(self, paper_published):
        rows = list(paper_published.qit.iter_rows())
        assert len(rows) == 8
        assert all(len(r) == 4 for r in rows)  # 3 QI + group id

    def test_shape_validation(self, hospital):
        with pytest.raises(SchemaError):
            QuasiIdentifierTable(hospital.schema,
                                 np.zeros((4, 2), dtype=np.int32),
                                 np.ones(4, dtype=np.int32))
        with pytest.raises(SchemaError):
            QuasiIdentifierTable(hospital.schema,
                                 np.zeros((4, 3), dtype=np.int32),
                                 np.ones(3, dtype=np.int32))


class TestSensitiveTable:
    def test_matches_paper_table_3b(self, paper_published, hospital):
        """ST records: (1, dyspepsia, 2), (1, pneumonia, 2),
        (2, bronchitis, 1), (2, flu, 2), (2, gastritis, 1)."""
        st = paper_published.st
        records = [st.decode_record(i) for i in range(len(st))]
        assert records == [
            (1, "dyspepsia", 2),
            (1, "pneumonia", 2),
            (2, "bronchitis", 1),
            (2, "flu", 2),
            (2, "gastritis", 1),
        ]

    def test_group_size_from_counts(self, paper_published):
        assert paper_published.st.group_size(1) == 4
        assert paper_published.st.group_size(2) == 4

    def test_unknown_group_raises(self, paper_published):
        with pytest.raises(PartitionError):
            paper_published.st.group_size(9)
        with pytest.raises(PartitionError):
            paper_published.st.group_histogram(9)

    def test_group_distribution_equation_2(self, paper_published,
                                           hospital):
        """Equation 2: each disease's probability is count/|QI_j|."""
        disease = hospital.schema.sensitive
        dist = paper_published.st.group_distribution(1)
        decoded = {disease.decode(c): p for c, p in dist.items()}
        assert decoded == {"dyspepsia": 0.5, "pneumonia": 0.5}

    def test_sensitive_total(self, paper_published, hospital):
        flu = hospital.schema.sensitive.encode("flu")
        assert paper_published.st.sensitive_total(flu) == 2

    def test_groups_with_sensitive(self, paper_published, hospital):
        flu = hospital.schema.sensitive.encode("flu")
        assert list(paper_published.st.groups_with_sensitive(flu)) == [2]

    def test_positive_counts_enforced(self, hospital):
        with pytest.raises(SchemaError, match="positive"):
            SensitiveTable(hospital.schema,
                           np.array([1]), np.array([0]), np.array([0]))

    def test_iter_records_sorted(self, paper_published):
        records = list(paper_published.st.iter_records())
        assert records == sorted(records)


class TestAnatomizedTables:
    def test_n(self, paper_published):
        assert paper_published.n == 8

    def test_breach_bound_is_half(self, paper_published):
        """The paper's 2-diverse example: adversary's best guess is
        50%."""
        assert paper_published.breach_probability_bound() \
            == pytest.approx(0.5)

    def test_breach_bound_of_empty_release_is_zero(self, hospital):
        schema = hospital.schema
        empty = np.empty(0, dtype=np.int32)
        release = AnatomizedTables(
            schema,
            QuasiIdentifierTable(
                schema, np.empty((0, schema.d), dtype=np.int32), empty),
            SensitiveTable(schema, empty, empty, empty))
        assert release.breach_probability_bound() == 0.0

    def test_natural_join_matches_table_4(self, paper_published,
                                          hospital):
        """Lemma 1: QIT |x| ST for group 1 yields each tuple paired with
        dyspepsia and pneumonia, count 2 each (paper Table 4)."""
        join = paper_published.natural_join()
        group1 = [r for r in join if r[3] == 1]
        assert len(group1) == 8  # 4 tuples x 2 diseases
        disease = hospital.schema.sensitive
        age = hospital.schema.attribute("Age")
        bob_rows = [r for r in group1 if age.decode(r[0]) == 23]
        diseases = sorted(disease.decode(r[4]) for r in bob_rows)
        assert diseases == ["dyspepsia", "pneumonia"]
        assert all(r[5] == 2 for r in bob_rows)

    def test_join_cardinality(self, paper_published):
        # group 1: 4 tuples x 2 values; group 2: 4 x 3
        assert len(paper_published.natural_join()) == 8 + 12

    def test_tuple_distribution(self, paper_published, hospital):
        disease = hospital.schema.sensitive
        dist = paper_published.tuple_distribution(0)
        decoded = {disease.decode(c): p for c, p in dist.items()}
        assert decoded == {"dyspepsia": 0.5, "pneumonia": 0.5}

    def test_tuple_distribution_bounds(self, paper_published):
        with pytest.raises(SchemaError):
            paper_published.tuple_distribution(99)

    def test_flu_excluded_for_bob(self, paper_published, hospital):
        """Section 3.2: tuple 1 cannot have flu (its QI values never
        join with flu)."""
        flu = hospital.schema.sensitive.encode("flu")
        assert flu not in paper_published.tuple_distribution(0)
