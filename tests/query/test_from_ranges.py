"""Tests for the range-based query constructor and a differential check
of the anatomy estimator against a join-based reference."""

import typing

import pytest

from repro.core.partition import Partition
from repro.core.tables import AnatomizedTables
from repro.dataset.hospital import PAPER_PARTITION_GROUPS
from repro.exceptions import QueryError
from repro.query.estimators import AnatomyEstimator, ExactEvaluator
from repro.query.predicates import CountQuery
from repro.query.workload import make_workload


class TestFromRanges:
    def test_annotations_resolve(self):
        hints = typing.get_type_hints(CountQuery.from_ranges)
        assert hints["return"] is CountQuery

    def test_query_a_via_ranges(self, hospital):
        q = CountQuery.from_ranges(
            hospital.schema,
            {"Age": (0, 30), "Zipcode": (10001, 20000)},
            ["pneumonia"])
        assert ExactEvaluator(hospital).estimate(q) == 1.0

    def test_range_boundaries_inclusive(self, hospital):
        q = CountQuery.from_ranges(hospital.schema, {"Age": (23, 23)},
                                   ["pneumonia"])
        assert ExactEvaluator(hospital).estimate(q) == 1.0

    def test_empty_range_rejected(self, hospital):
        with pytest.raises(QueryError, match="matches no value"):
            CountQuery.from_ranges(hospital.schema,
                                   {"Age": (200, 300)}, ["flu"])

    def test_categorical_range_by_domain_order(self, hospital):
        # Sex domain is ("F", "M"); range ("F", "F") selects females
        q = CountQuery.from_ranges(hospital.schema,
                                   {"Sex": ("F", "F")}, ["flu"])
        assert ExactEvaluator(hospital).estimate(q) == 2.0

    def test_unknown_sensitive_value_rejected(self, hospital):
        with pytest.raises(Exception):
            CountQuery.from_ranges(hospital.schema, {"Age": (0, 99)},
                                   ["not-a-disease"])

    def test_ordinal_range_uses_domain_positions(self):
        """For in-domain endpoints the range is positional: on the
        Adult education ladder, Bachelors..Doctorate includes Masters
        and Prof-school even though they sort after 'Doctorate'
        alphabetically."""
        from repro.dataset.adult import adult_schema
        schema = adult_schema()
        q = CountQuery.from_ranges(
            schema, {"education": ("Bachelors", "Doctorate")},
            ["Prof-specialty"])
        edu = schema.attribute("education")
        selected = {edu.decode(c) for c in q.qi_predicates["education"]}
        assert selected == {"Bachelors", "Masters", "Prof-school",
                            "Doctorate"}

    def test_reversed_ordinal_range_rejected(self):
        from repro.dataset.adult import adult_schema
        schema = adult_schema()
        with pytest.raises(QueryError, match="reverse"):
            CountQuery.from_ranges(
                schema, {"education": ("Doctorate", "Bachelors")},
                ["Sales"])

    def test_open_numeric_range_falls_back_to_values(self, hospital):
        """Endpoints outside the domain (age 0) compare by value."""
        q = CountQuery.from_ranges(hospital.schema, {"Age": (0, 24)},
                                   ["pneumonia"])
        age = hospital.schema.attribute("Age")
        assert all(age.decode(c) <= 24
                   for c in q.qi_predicates["Age"])


class TestDifferentialJoinEstimator:
    """The anatomy estimator must agree with the reference computed
    directly from the Lemma 1 natural join: the estimate equals the
    total join 'probability mass' of qualifying (tuple, value)
    records."""

    def _join_estimate(self, published, query):
        total = 0.0
        schema = published.schema
        luts = {name: query.lookup_table(name)
                for name in query.qi_predicates}
        sens_lut = query.lookup_table(schema.sensitive.name)
        for record in published.natural_join():
            qi = record[:schema.d]
            gid = record[schema.d]
            code = record[schema.d + 1]
            count = record[schema.d + 2]
            if not sens_lut[code]:
                continue
            ok = all(luts[name][qi[schema.qi_index(name)]]
                     for name in query.qi_predicates)
            if ok:
                total += count / published.st.group_size(gid)
        return total

    def test_agreement_on_paper_example(self, hospital):
        published = AnatomizedTables.from_partition(
            Partition(hospital, PAPER_PARTITION_GROUPS))
        estimator = AnatomyEstimator(published)
        q = CountQuery.from_ranges(
            hospital.schema,
            {"Age": (0, 30), "Zipcode": (10001, 20000)},
            ["pneumonia"])
        assert estimator.estimate(q) \
            == pytest.approx(self._join_estimate(published, q))

    def test_agreement_on_random_workload(self, hospital):
        published = AnatomizedTables.from_partition(
            Partition(hospital, PAPER_PARTITION_GROUPS))
        estimator = AnatomyEstimator(published)
        workload = make_workload(hospital.schema, qd=2, s=0.3,
                                 count=25, seed=11)
        for q in workload:
            fast = estimator.estimate(q)
            reference = self._join_estimate(published, q)
            assert fast == pytest.approx(reference), q.describe()
