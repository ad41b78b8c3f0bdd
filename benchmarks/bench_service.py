"""Serving-layer hot paths: ingest and micro-batched query serving.

Drives the registry + frontend directly (no HTTP) so the numbers are
the service overhead proper.  The ``service.ingest`` and
``service.query.batch`` spans recorded by the library instrumentation
land in ``BENCH_summary.json`` alongside the explicit ``bench.*``
records, and are gated against ``BENCH_baseline.json`` by
``python -m repro.perf.check``.
"""

import numpy as np
import pytest

from repro.obs.tracing import record
from repro.query.workload import make_workload
from repro.service.frontend import QueryFrontend
from repro.service.registry import PublicationRegistry

#: Serving workload size (matches bench_batch_queries).
N_QUERIES = 1000
#: Ingest chunk size: a registry ingesting a steady row stream.
CHUNK_ROWS = 1000


@pytest.fixture(scope="module")
def table(dataset, bench_config):
    return dataset.sample_view(5, "Occupation", bench_config.default_n,
                               seed=0)


@pytest.fixture(scope="module")
def workload(table):
    return make_workload(table.schema, 5, 0.05, N_QUERIES, seed=7)


@pytest.fixture(scope="module")
def served(table, bench_config):
    """A fully ingested publication plus an uncached frontend."""
    registry = PublicationRegistry()
    publication = registry.create("bench", table.schema,
                                  l=bench_config.l)
    publication.ingest(table.iter_rows())
    frontend = QueryFrontend(registry, cache_size=0)
    yield registry, publication, frontend
    frontend.close()


def test_service_ingest(benchmark, table, bench_config):
    """Chunked ingest through the service path (one ingest mutex)."""
    rows = list(table.iter_rows())

    def setup():
        registry = PublicationRegistry()
        publication = registry.create("bench", table.schema,
                                      l=bench_config.l)
        return (publication,), {}

    def ingest(publication):
        for i in range(0, len(rows), CHUNK_ROWS):
            publication.ingest(rows[i:i + CHUNK_ROWS])
        return publication

    publication = benchmark.pedantic(ingest, setup=setup, rounds=5)
    record("bench.service_ingest", benchmark.stats.stats.median)
    benchmark.extra_info["groups"] = publication.version
    assert publication.version > 0


def test_service_query_batch(benchmark, served, workload):
    """Uncached serving of a 1000-query workload in one micro-batch;
    answers must match the estimator bit for bit (exact mode)."""
    _, publication, frontend = served
    answers = benchmark(frontend.query_batch, "bench", workload)
    record("bench.service_query_batch", benchmark.stats.stats.median)
    expected = publication.snapshot().estimator.estimate_workload(
        workload)
    assert np.array_equal(np.array([a.answer for a in answers]),
                          expected)
    assert not any(a.cached for a in answers)


def test_service_query_instrumented(benchmark, served, workload):
    """The same uncached workload with a live metrics registry: typed
    metrics on the hot path must not meaningfully slow serving (the
    ``service.query.batch`` span recorded here is held to the same 2x
    gate as the uninstrumented run)."""
    from repro.obs import metrics
    from repro.obs.metrics import MetricsRegistry

    _, publication, frontend = served
    registry = MetricsRegistry()
    previous = metrics.set_registry(registry)
    try:
        answers = benchmark(frontend.query_batch, "bench", workload)
    finally:
        metrics.set_registry(previous)
    record("bench.service_query_instrumented",
           benchmark.stats.stats.median)
    expected = publication.snapshot().estimator.estimate_workload(
        workload)
    assert np.array_equal(np.array([a.answer for a in answers]),
                          expected)
    # the registry saw the batch-engine evaluations
    counted = registry.counter(
        "repro_query_batch_queries_total").value()
    assert counted >= len(workload)


def test_service_query_cached(benchmark, served, workload, table,
                              bench_config):
    """Fully warmed cache: serving cost is pure lookup."""
    registry, _, _ = served
    cached_frontend = QueryFrontend(registry,
                                    cache_size=2 * N_QUERIES)
    try:
        cached_frontend.query_batch("bench", workload)  # warm
        answers = benchmark(cached_frontend.query_batch, "bench",
                            workload)
        record("bench.service_query_cached",
               benchmark.stats.stats.median)
        assert all(a.cached for a in answers)
    finally:
        cached_frontend.close()
