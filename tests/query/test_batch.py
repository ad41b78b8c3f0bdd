"""Unit tests for the batch query-evaluation engine.

The engine's contract: ``estimate_workload`` returns, for every query,
*bit for bit* the float the per-query ``estimate`` would return.  One
WorkloadEncoding is shareable by every estimator of an equal schema.
"""

import numpy as np
import pytest

from repro.core.anatomize import anatomize
from repro.dataset.schema import Attribute, Schema
from repro.dataset.table import Table
from repro.exceptions import QueryError
from repro.generalization.mondrian import mondrian
from repro.obs import metrics
from repro.obs.metrics import MetricsRegistry
from repro.query.batch import (
    CHUNK_QUERIES,
    WorkloadEncoding,
    anatomy_index_for,
    clear_index_cache,
    index_cache_stats,
)
from repro.query.estimators import (
    AnatomyEstimator,
    ExactEvaluator,
    GeneralizationEstimator,
)
from repro.query.evaluate import evaluate_workload, evaluate_workload_many
from repro.query.predicates import CountQuery
from repro.query.workload import make_workload


@pytest.fixture(scope="module")
def table():
    d_x, d_y, d_s = 12, 8, 6
    schema = Schema(
        [Attribute("X", range(d_x)), Attribute("Y", range(d_y))],
        Attribute("S", range(d_s)),
    )
    rng = np.random.default_rng(3)
    n = 300
    return Table(schema, {
        "X": rng.integers(0, d_x, n).astype(np.int32),
        "Y": rng.integers(0, d_y, n).astype(np.int32),
        "S": np.resize(np.arange(d_s), n).astype(np.int32),
    })


@pytest.fixture(scope="module")
def evaluators(table):
    return {
        "exact": ExactEvaluator(table),
        "anatomy": AnatomyEstimator(anatomize(table, l=3, seed=0)),
        "generalization": GeneralizationEstimator(mondrian(table, l=3)),
    }


@pytest.fixture(scope="module")
def release(table):
    return anatomize(table, l=3, seed=0)


@pytest.fixture(scope="module")
def workload(table):
    # Larger than one chunk so the chunked kernels cross a boundary,
    # and not a multiple of 8 so the packed tail bits are exercised.
    return make_workload(table.schema, 2, 0.25, CHUNK_QUERIES + 37,
                         seed=11)


class TestWorkloadEncoding:
    def test_shapes(self, table, workload):
        encoding = WorkloadEncoding(table.schema, workload)
        assert encoding.n_queries == len(workload)
        words = (len(workload) + 7) // 8
        for attr in table.schema.qi_attributes:
            bits = encoding.qi_bits[attr.name]
            assert bits.shape == (attr.size, words)
        assert encoding.sens_indicator.shape == \
            (len(workload), table.schema.sensitive.size)

    def test_unconstrained_rows_accept_everything(self, table):
        schema = table.schema
        queries = [CountQuery(schema, {"X": [0]}, [0]),
                   CountQuery(schema, {"Y": [1]}, [1])]
        encoding = WorkloadEncoding(schema, queries)
        x_lut = encoding.qi_luts["X"]
        assert x_lut[0].sum() == 1      # constrained: only code 0
        assert x_lut[1].sum() == x_lut.shape[1]  # unconstrained: all
        y_lut = encoding.qi_luts["Y"]
        assert y_lut[0].sum() == y_lut.shape[1]

    def test_never_constrained_attribute_is_none(self, table):
        queries = [CountQuery(table.schema, {"X": [0]}, [0])]
        encoding = WorkloadEncoding(table.schema, queries)
        assert encoding.qi_bits["Y"] is None
        assert encoding.qi_luts["Y"] is None

    def test_schema_mismatch_rejected(self, table):
        other = Schema([Attribute("X", range(3))],
                       Attribute("S", range(2)))
        query = CountQuery(other, {"X": [0]}, [0])
        with pytest.raises(QueryError):
            WorkloadEncoding(table.schema, [query])

    def test_empty_workload(self, table, evaluators):
        encoding = WorkloadEncoding(table.schema, [])
        assert encoding.n_queries == 0
        for evaluator in evaluators.values():
            assert evaluator.estimate_workload(encoding).shape == (0,)


class TestBatchMatchesPerQuery:
    def test_exact_mode_bit_for_bit(self, evaluators, workload):
        for name, evaluator in evaluators.items():
            reference = np.array(
                [evaluator.estimate(q) for q in workload])
            batch = evaluator.estimate_workload(workload)
            assert np.array_equal(batch, reference), name
        # The variance path's estimates are the same floats too.
        anatomy = evaluators["anatomy"]
        estimates, _ = anatomy.index.evaluate_with_variance(
            anatomy.encode(workload))
        assert np.array_equal(estimates,
                              anatomy.estimate_workload(workload))

    def test_encoding_shared_across_estimators(self, evaluators,
                                               workload):
        encoding = evaluators["exact"].encode(workload)
        for name, evaluator in evaluators.items():
            reference = np.array(
                [evaluator.estimate(q) for q in workload])
            assert np.array_equal(
                evaluator.estimate_workload(encoding), reference), name

    def test_sensitive_only_queries(self, table, evaluators):
        """qd = 0: no QI predicate at all (every attribute None in the
        encoding)."""
        schema = table.schema
        queries = [CountQuery(schema, {}, [s])
                   for s in range(schema.sensitive.size)]
        for name, evaluator in evaluators.items():
            reference = np.array(
                [evaluator.estimate(q) for q in queries])
            assert np.array_equal(
                evaluator.estimate_workload(queries), reference), name

    def test_unknown_mode_rejected(self, evaluators, workload):
        for mode in ("sloppy", "fast"):
            with pytest.raises(QueryError):
                evaluators["anatomy"].estimate_workload(workload,
                                                        mode=mode)

    def test_mismatched_encoding_rejected(self, evaluators):
        other = Schema([Attribute("X", range(3))],
                       Attribute("S", range(2)))
        encoding = WorkloadEncoding(other,
                                    [CountQuery(other, {"X": [0]}, [0])])
        with pytest.raises(QueryError):
            evaluators["exact"].estimate_workload(encoding)

    def test_hospital_paper_example(self, hospital):
        """Query A on the paper's own tables, through the batch path."""
        published = anatomize(hospital, l=2, seed=0)
        estimator = AnatomyEstimator(published)
        schema = hospital.schema
        query = CountQuery.from_ranges(
            schema, {"Age": (0, 30), "Zipcode": (10001, 20000)},
            ["pneumonia"])
        batch = estimator.estimate_workload([query])
        assert batch.shape == (1,)
        assert batch[0] == estimator.estimate(query)


class EstimateOnly:
    """An evaluator without the batch interface, which sends a workload
    through the per-query loop."""

    def __init__(self, inner):
        self.inner = inner

    def estimate(self, query):
        return self.inner.estimate(query)


class TestEvaluateWorkloadBatch:
    def test_many_matches_per_query_loop(self, evaluators, workload):
        exact = evaluators["exact"]
        estimators = {k: v for k, v in evaluators.items()
                      if k != "exact"}
        batched = evaluate_workload_many(workload, exact, estimators)
        looped = evaluate_workload_many(workload, EstimateOnly(exact),
                                        estimators)
        for name in estimators:
            assert batched[name].errors == looped[name].errors
            assert batched[name].actuals == looped[name].actuals
            assert batched[name].estimates == looped[name].estimates
            assert batched[name].skipped_zero_actual \
                == looped[name].skipped_zero_actual

    def test_single_matches_per_query_loop(self, evaluators, workload):
        batched = evaluate_workload(workload, evaluators["exact"],
                                    evaluators["anatomy"])
        looped = evaluate_workload(workload, evaluators["exact"],
                                   EstimateOnly(evaluators["anatomy"]))
        assert batched.errors == looped.errors
        assert batched.skipped_zero_actual == looped.skipped_zero_actual

    def test_falls_back_for_plain_estimators(self, evaluators, workload):
        plain = EstimateOnly(evaluators["anatomy"])
        result = evaluate_workload(workload, evaluators["exact"], plain)
        reference = evaluate_workload(workload, evaluators["exact"],
                                      evaluators["anatomy"])
        assert result.errors == reference.errors

    def test_empty_workload(self, evaluators):
        result = evaluate_workload([], evaluators["exact"],
                                   evaluators["anatomy"])
        assert result.evaluated == 0
        assert result.skipped_zero_actual == 0


class TestIndexCache:
    def test_cache_hits_and_misses_are_counted(self, release):
        registry = MetricsRegistry()
        previous = metrics.set_registry(registry)
        try:
            clear_index_cache()
            first = anatomy_index_for(release)
            second = anatomy_index_for(release)
        finally:
            metrics.set_registry(previous)
        assert first is second
        stats = index_cache_stats()
        assert stats["misses"] >= 1
        assert stats["hits"] >= 1
        assert stats["entries"] >= 1
        assert registry.counter(
            "repro_index_cache_misses_total").value() == 1
        assert registry.counter(
            "repro_index_cache_hits_total").value() == 1
