"""Overhead of the live monitoring stack on the serving hot path.

Runs the same uncached ``service.query.batch`` workload as
bench_service, but with the full opt-in observability trio installed: a
background :class:`~repro.obs.monitor.CanaryMonitor` re-measuring
utility in a tight loop, a live metrics registry, and the SLO engine
evaluating per round.  The headline assertion: monitored serving stays
within 2x of plain serving, measured as the ratio of the two medians over
rounds interleaved in one run (so host drift hits both sides alike).
That ratio is recorded as ``bench.service_query_monitor_overhead`` (a
dimensionless factor in the span's seconds field).  The ``bench.*``
records land in ``BENCH_summary.json`` and are gated by
``python -m repro.perf.check`` like every other bench.
"""

import statistics
import time

import numpy as np
import pytest

from repro.obs import metrics
from repro.obs.metrics import MetricsRegistry
from repro.obs.monitor import CanaryConfig, CanaryMonitor
from repro.obs.slo import HealthEngine, SLOConfig
from repro.obs.tracing import record
from repro.query.workload import make_workload
from repro.service.frontend import QueryFrontend
from repro.service.registry import PublicationRegistry

#: Serving workload size (matches bench_service).
N_QUERIES = 1000
#: The 2x acceptance bound from the PR issue.
OVERHEAD_BOUND = 2.0
#: Interleaved plain/monitored round pairs behind the overhead ratio.
OVERHEAD_ROUNDS = 7


@pytest.fixture(scope="module")
def table(dataset, bench_config):
    return dataset.sample_view(5, "Occupation", bench_config.default_n,
                               seed=0)


@pytest.fixture(scope="module")
def workload(table):
    return make_workload(table.schema, 5, 0.05, N_QUERIES, seed=7)


@pytest.fixture(scope="module")
def served(table, bench_config):
    registry = PublicationRegistry()
    publication = registry.create("bench", table.schema,
                                  l=bench_config.l)
    publication.ingest(table.iter_rows())
    frontend = QueryFrontend(registry, cache_size=0)
    yield registry, publication, frontend
    frontend.close()


def _seconds(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_monitor_canary_run_once(benchmark, served):
    """Cost of one forced canary measurement (ground-truth path)."""
    registry, publication, _ = served
    monitor = CanaryMonitor(registry, metrics=MetricsRegistry(),
                            config=CanaryConfig(count=32, seed=11))
    report = benchmark(monitor.run_once, publication, force=True)
    record("bench.canary_run_once", benchmark.stats.stats.mean)
    assert report is not None and report.method == "ground-truth"


def test_monitor_query_batch_overhead(benchmark, served, workload):
    """Monitor-enabled serving within the 2x bound of a plain run.

    Plain and monitored rounds alternate in one run, the monitor started
    for each monitored round only; the overhead is the ratio of their
    medians, so it compares like with like on this machine.
    """
    registry, publication, frontend = served
    metrics_registry = MetricsRegistry()
    monitor = CanaryMonitor(
        registry, metrics=metrics_registry,
        config=CanaryConfig(count=32, seed=11, interval_s=0.01))
    engine = HealthEngine(metrics_registry,
                          SLOConfig(utility_error_failing=10.0))

    def plain():
        return frontend.query_batch("bench", workload)

    def monitored():
        answers = frontend.query_batch("bench", workload)
        engine.evaluate()
        return answers

    previous = metrics.set_registry(metrics_registry)
    try:
        with monitor:
            answers = benchmark(monitored)
    finally:
        metrics.set_registry(previous)
    record("bench.service_query_monitored", benchmark.stats.stats.mean)

    plain_times, monitored_times = [], []
    for _ in range(OVERHEAD_ROUNDS):
        plain_times.append(_seconds(plain))
        previous = metrics.set_registry(metrics_registry)
        try:
            with monitor:
                monitored_times.append(_seconds(monitored))
        finally:
            metrics.set_registry(previous)
    ratio = statistics.median(monitored_times) / \
        statistics.median(plain_times)
    record("bench.service_query_monitor_overhead", ratio)

    expected = publication.snapshot().estimator.estimate_workload(
        workload)
    assert np.array_equal(np.array([a.answer for a in answers]),
                          expected)
    # the canary actually ran while we were serving
    assert monitor.last_report("bench") is not None
    assert ratio <= OVERHEAD_BOUND, (
        f"monitored serving {ratio:.2f}x plain exceeds the "
        f"{OVERHEAD_BOUND}x bound")
