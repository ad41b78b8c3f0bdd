"""Batch query-evaluation engine vs the per-query estimators.

The acceptance bar for the engine (see repro.query.batch): on a
1000-query workload at the default benchmark cardinality it must beat
the per-query AnatomyEstimator loop by >= 10x while agreeing bit for
bit.  The other two evaluators are benchmarked alongside for the
record; all three assert bit-for-bit agreement with the per-query loop.
"""

import time

import numpy as np
import pytest

from repro.core.anatomize import anatomize
from repro.generalization.mondrian import mondrian
from repro.generalization.recoding import census_recoder
from repro.obs.tracing import record
from repro.query.estimators import (
    AnatomyEstimator,
    ExactEvaluator,
    GeneralizationEstimator,
)
from repro.query.workload import make_workload

#: Workload size of the speedup criterion.
N_QUERIES = 1000


@pytest.fixture(scope="module")
def table(dataset, bench_config):
    return dataset.sample_view(5, "Occupation", bench_config.default_n,
                               seed=0)


@pytest.fixture(scope="module")
def workload(table):
    return make_workload(table.schema, 5, 0.05, N_QUERIES, seed=7)


#: Timed repeats of the per-query loop; its median is recorded.
PER_QUERY_LOOPS = 5


def _per_query_seconds(estimator, workload):
    seconds = []
    for _ in range(PER_QUERY_LOOPS):
        start = time.perf_counter()
        reference = np.array([estimator.estimate(q) for q in workload])
        seconds.append(time.perf_counter() - start)
    return reference, float(np.median(seconds))


def _run(benchmark, name, estimator, workload, min_speedup=None):
    batch_results = benchmark(estimator.estimate_workload, workload)
    reference, per_query_seconds = _per_query_seconds(estimator, workload)
    batch_seconds = benchmark.stats.stats.median
    assert np.array_equal(batch_results, reference), \
        "batch results must match per-query bit for bit"
    speedup = per_query_seconds / batch_seconds
    record(f"bench.batch_{name}", batch_seconds)
    record(f"bench.per_query_{name}", per_query_seconds)
    benchmark.extra_info["per_query_ms"] = round(per_query_seconds * 1e3,
                                                 1)
    benchmark.extra_info["speedup"] = round(speedup, 1)
    if min_speedup is not None:
        assert speedup >= min_speedup, (
            f"batch {name} only {speedup:.2f}x faster than per-query")


def test_batch_anatomy(benchmark, table, workload, bench_config):
    published = anatomize(table, bench_config.l, seed=0)
    # The 10x acceptance bar is defined at the default cardinality
    # (n=12,000); the smoke grid is too small for fixed costs to
    # amortize, so there only correctness is asserted.
    min_speedup = 10.0 if bench_config.default_n >= 12_000 else None
    _run(benchmark, "anatomy", AnatomyEstimator(published), workload,
         min_speedup=min_speedup)


def test_batch_exact(benchmark, table, workload):
    _run(benchmark, "exact", ExactEvaluator(table), workload)


def test_batch_generalization(benchmark, table, workload, bench_config):
    generalized = mondrian(table, bench_config.l,
                           recoder=census_recoder())
    _run(benchmark, "generalization", GeneralizationEstimator(generalized),
         workload)
