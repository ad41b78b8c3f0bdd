"""Unit tests for workload generation (Equation 14)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.dataset.census import census_schema
from repro.exceptions import QueryError
from repro.query.workload import (
    WorkloadGenerator,
    expected_predicate_widths,
    make_workload,
    predicate_width,
    workload_signature,
)


class TestPredicateWidth:
    def test_equation_14_values(self):
        """Hand-checked instances of b = round(|A| * s^(1/(qd+1)))."""
        # |A|=50, s=5%, qd=2 -> 50 * 0.05^(1/3) = 18.42 -> 18
        assert predicate_width(50, 0.05, 2) == 18
        # |A|=78, s=5%, qd=3 -> 78 * 0.05^(1/4) = 36.88 -> 37
        assert predicate_width(78, 0.05, 3) == 37

    def test_clamped_to_at_least_one(self):
        # |A|=2, s=1%, qd=0 -> 2*0.01 = 0.02 -> clamp to 1
        assert predicate_width(2, 0.01, 0) == 1

    def test_clamped_to_domain(self):
        assert predicate_width(3, 1.0, 5) == 3

    def test_monotone_in_selectivity(self):
        widths = [predicate_width(50, s, 2)
                  for s in (0.01, 0.05, 0.10, 0.50)]
        assert widths == sorted(widths)

    def test_monotone_in_qd(self):
        """Higher qd -> larger per-attribute b (the effect driving
        Figure 5's generalization trend)."""
        widths = [predicate_width(50, 0.05, qd) for qd in range(1, 7)]
        assert widths == sorted(widths)

    def test_invalid_selectivity(self):
        with pytest.raises(QueryError):
            predicate_width(50, 0.0, 2)
        with pytest.raises(QueryError):
            predicate_width(50, 1.5, 2)

    def test_invalid_qd(self):
        with pytest.raises(QueryError):
            predicate_width(50, 0.05, -1)


class TestWorkloadGenerator:
    def test_query_shape(self):
        schema = census_schema(5, "Occupation")
        gen = WorkloadGenerator(schema, qd=3, s=0.05, seed=0)
        q = gen.next_query()
        assert q.qd == 3
        assert all(name in schema.qi_names for name in q.qi_predicates)
        assert len(q.sensitive_values) == predicate_width(50, 0.05, 3)

    def test_predicate_sizes_match_equation_14(self):
        schema = census_schema(3, "Occupation")
        gen = WorkloadGenerator(schema, qd=2, s=0.05, seed=0)
        for _ in range(20):
            q = gen.next_query()
            for name, codes in q.qi_predicates.items():
                attr = schema.attribute(name)
                assert len(codes) == predicate_width(attr.size, 0.05, 2)

    def test_workload_count(self):
        schema = census_schema(3, "Occupation")
        wl = make_workload(schema, 2, 0.05, 25, seed=0)
        assert len(wl) == 25

    def test_deterministic_for_seed(self):
        schema = census_schema(3, "Occupation")
        a = make_workload(schema, 2, 0.05, 10, seed=5)
        b = make_workload(schema, 2, 0.05, 10, seed=5)
        assert workload_signature(a) == workload_signature(b)

    def test_signature_survives_string_hash_randomization(self):
        """The signature is the same in processes whose built-in string
        hashes differ (``PYTHONHASHSEED``)."""
        script = ("from repro.dataset.census import census_schema\n"
                  "from repro.query.workload import make_workload, "
                  "workload_signature\n"
                  "print(workload_signature(make_workload("
                  "census_schema(3, 'Occupation'), 2, 0.05, 10, seed=5)))")
        source_root = str(Path(repro.__file__).resolve().parents[1])
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=source_root)
            outputs.append(subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True, timeout=120).stdout)
        assert outputs[0] == outputs[1]
        schema = census_schema(3, "Occupation")
        assert outputs[0].strip() == str(workload_signature(
            make_workload(schema, 2, 0.05, 10, seed=5)))

    def test_seeds_differ(self):
        schema = census_schema(3, "Occupation")
        a = make_workload(schema, 2, 0.05, 10, seed=5)
        b = make_workload(schema, 2, 0.05, 10, seed=6)
        assert workload_signature(a) != workload_signature(b)

    def test_qd_bounds_checked(self):
        schema = census_schema(3, "Occupation")
        with pytest.raises(QueryError):
            WorkloadGenerator(schema, qd=0, s=0.05)
        with pytest.raises(QueryError):
            WorkloadGenerator(schema, qd=4, s=0.05)

    def test_selectivity_bounds_checked(self):
        schema = census_schema(3, "Occupation")
        with pytest.raises(QueryError):
            WorkloadGenerator(schema, qd=2, s=0.0)

    def test_negative_count_rejected(self):
        schema = census_schema(3, "Occupation")
        with pytest.raises(QueryError):
            make_workload(schema, 2, 0.05, -1)

    def test_attributes_vary_across_queries(self):
        """qd random attributes are re-drawn per query."""
        schema = census_schema(5, "Occupation")
        gen = WorkloadGenerator(schema, qd=2, s=0.05, seed=1)
        seen = set()
        for _ in range(30):
            seen.add(frozenset(gen.next_query().qi_predicates))
        assert len(seen) > 3

    def test_expected_widths_table(self):
        schema = census_schema(3, "Occupation")
        widths = expected_predicate_widths(schema, 2, 0.05)
        assert widths["Age"] == predicate_width(78, 0.05, 2)
        assert widths["Occupation"] == predicate_width(50, 0.05, 2)
        assert widths["Gender"] == 1  # clamped


class TestSelectivityCalibration:
    def test_empirical_selectivity_near_target(self, occ3):
        """Workload queries should actually select roughly s of the
        table (within loose tolerance — data is correlated, not
        uniform)."""
        from repro.query.estimators import ExactEvaluator
        exact = ExactEvaluator(occ3)
        wl = make_workload(occ3.schema, 3, 0.05, 100, seed=2)
        fractions = [exact.estimate(q) / len(occ3) for q in wl]
        mean = sum(fractions) / len(fractions)
        assert 0.01 < mean < 0.25
