"""Unit tests for the canary utility monitor."""

import math
import threading
import time

import numpy as np
import pytest

from repro.dataset.schema import Attribute, Schema
from repro.exceptions import ReproError
from repro.obs.logging import StructuredLogger
from repro.obs.metrics import MetricsRegistry, parse_prometheus_text
from repro.obs.monitor import (
    COUNTER_RUNS,
    GAUGE_DRIFT,
    GAUGE_GROUND_TRUTH,
    GAUGE_MEASURED_VERSION,
    GAUGE_RELATIVE_ERROR,
    CanaryConfig,
    CanaryMonitor,
    UtilityReport,
)
from repro.query.batch import WorkloadEncoding, anatomy_index_for
from repro.query.estimators import AnatomyEstimator, ExactEvaluator
from repro.query.evaluate import evaluate_workload
from repro.query.workload import make_workload
from repro.service.registry import PublicationRegistry


@pytest.fixture()
def schema():
    return Schema([Attribute("A", range(40)),
                   Attribute("B", range(8))],
                  Attribute("S", range(16)))


def make_rows(count, *, start=0):
    return [((start + i) * 7 % 40, (start + i) * 3 % 8,
             (start + i) % 16) for i in range(count)]


@pytest.fixture()
def registry():
    return PublicationRegistry()


def seeded_publication(registry, schema, *, name="pub", count=400,
                       **kwargs):
    publication = registry.create(name, schema, l=3, **kwargs)
    publication.ingest(make_rows(count))
    return publication


class TestConfig:
    def test_validation(self):
        with pytest.raises(ReproError, match="qd"):
            CanaryConfig(qd=0)
        with pytest.raises(ReproError, match="count"):
            CanaryConfig(count=0)
        with pytest.raises(ReproError, match="interval"):
            CanaryConfig(interval_s=0.0)

    def test_from_json_rejects_unknown_keys(self):
        assert CanaryConfig.from_json({"count": 8}).count == 8
        with pytest.raises(ReproError, match="unknown"):
            CanaryConfig.from_json({"counts": 8})


class TestGroundTruthPath:
    def test_agrees_with_the_offline_section7_computation(
            self, registry, schema):
        """The acceptance bar: the live canary error equals the
        offline Section-7 evaluation (same workload, same seed) to
        1e-9 — they share one code path, so in practice to the bit."""
        publication = seeded_publication(registry, schema)
        config = CanaryConfig(qd=2, s=0.05, count=48, seed=7)
        monitor = CanaryMonitor(registry, config=config)
        report = monitor.run_once(publication)
        assert report is not None and report.method == "ground-truth"

        snapshot = publication.snapshot()
        workload = make_workload(schema, 2, 0.05, 48, seed=7)
        offline = evaluate_workload(
            workload, ExactEvaluator(publication.ground_truth_table()),
            AnatomyEstimator(snapshot.release))
        assert report.relative_error == pytest.approx(
            offline.average_relative_error(), abs=1e-9)
        assert report.evaluated == offline.evaluated
        assert report.skipped == offline.skipped_zero_actual

    def test_nothing_published_yields_none(self, registry, schema):
        publication = registry.create("empty", schema, l=3)
        monitor = CanaryMonitor(registry)
        assert monitor.run_once(publication) is None


class TestVarianceFallback:
    def test_dropped_microdata_uses_the_section54_model(
            self, registry, schema):
        publication = seeded_publication(registry, schema,
                                         retain_microdata=False)
        assert publication.ground_truth_table() is None
        monitor = CanaryMonitor(registry,
                                config=CanaryConfig(count=32))
        report = monitor.run_once(publication)
        assert report.method == "variance-model"
        assert not report.ground_truth
        assert report.relative_error > 0.0

    def test_model_matches_manual_hypergeometric_sum(self, registry,
                                                     schema):
        """sqrt(sum_j Var_j)/est per query, averaged — recomputed
        by hand from the published QIT/ST."""
        publication = seeded_publication(registry, schema,
                                         retain_microdata=False)
        config = CanaryConfig(qd=2, s=0.05, count=16, seed=3)
        monitor = CanaryMonitor(registry, config=config)
        report = monitor.run_once(publication)

        snapshot = publication.snapshot()
        workload = make_workload(schema, 2, 0.05, 16, seed=3)
        encoding = WorkloadEncoding(schema, workload)
        index = anatomy_index_for(snapshot.release)
        estimates, variances = index.evaluate_with_variance(encoding)
        keep = estimates > 0.0
        expected = float(np.mean(
            np.sqrt(variances[keep]) / estimates[keep]))
        assert report.relative_error == pytest.approx(expected,
                                                      rel=1e-12)
        assert report.skipped == int(np.count_nonzero(~keep))


class TestCachingAndDrift:
    def test_unchanged_version_reuses_the_report(self, registry,
                                                 schema):
        publication = seeded_publication(registry, schema)
        metrics = MetricsRegistry()
        monitor = CanaryMonitor(registry, metrics=metrics,
                                config=CanaryConfig(count=16))
        first = monitor.run_once(publication)
        second = monitor.run_once(publication)
        assert second is first  # cached, not recomputed
        forced = monitor.run_once(publication, force=True)
        assert forced is not first
        assert forced.relative_error == first.relative_error
        runs = metrics.get(COUNTER_RUNS)
        assert runs.value(publication="pub") == 3.0

    def test_version_change_recomputes_and_exports_drift(
            self, registry, schema):
        publication = seeded_publication(registry, schema)
        metrics = MetricsRegistry()
        monitor = CanaryMonitor(registry, metrics=metrics,
                                config=CanaryConfig(count=24))
        first = monitor.run_once(publication)
        assert first.drift is None
        publication.ingest(make_rows(300, start=400))
        second = monitor.run_once(publication)
        assert second.version > first.version
        assert second.drift == pytest.approx(
            second.relative_error - first.relative_error)
        drift = metrics.get(GAUGE_DRIFT)
        assert drift.value(publication="pub") == pytest.approx(
            second.drift)

    def test_report_json_round_trip(self):
        report = UtilityReport(
            publication="p", version=3, method="ground-truth",
            relative_error=0.25, evaluated=10, skipped=2, drift=-0.1,
            duration_s=0.001)
        document = report.to_json()
        assert document["relative_error"] == 0.25
        assert document["method"] == "ground-truth"


class TestMetricsExport:
    def test_gauges_land_scrapeable_in_the_registry(self, registry,
                                                    schema):
        publication = seeded_publication(registry, schema)
        metrics = MetricsRegistry()
        monitor = CanaryMonitor(registry, metrics=metrics,
                                config=CanaryConfig(count=16))
        report = monitor.run_once(publication)
        parsed = parse_prometheus_text(metrics.render_prometheus())
        assert GAUGE_RELATIVE_ERROR in parsed
        sample, = parsed[GAUGE_RELATIVE_ERROR]["samples"].values()
        assert sample == pytest.approx(report.relative_error)
        assert parsed[GAUGE_MEASURED_VERSION]["samples"][
            f'{GAUGE_MEASURED_VERSION}{{publication="pub"}}'] == \
            report.version
        assert parsed[GAUGE_GROUND_TRUTH]["samples"][
            f'{GAUGE_GROUND_TRUTH}{{publication="pub"}}'] == 1.0

    def test_logger_receives_measurement_events(self, registry,
                                                schema):
        import io
        import json

        publication = seeded_publication(registry, schema)
        stream = io.StringIO()
        monitor = CanaryMonitor(
            registry, config=CanaryConfig(count=16),
            logger=StructuredLogger(stream=stream, service="test"))
        monitor.run_once(publication)
        record = json.loads(stream.getvalue().splitlines()[0])
        assert record["event"] == "canary.measure"
        assert record["publication"] == "pub"


class TestBackgroundWorkers:
    def test_workers_measure_and_stop_cleanly(self, registry, schema):
        publication = seeded_publication(registry, schema)
        metrics = MetricsRegistry()
        monitor = CanaryMonitor(
            registry, metrics=metrics,
            config=CanaryConfig(count=8, interval_s=0.02))
        with monitor:
            deadline = time.monotonic() + 5.0
            while monitor.last_report("pub") is None:
                assert time.monotonic() < deadline, \
                    "canary never measured"
                time.sleep(0.01)
        assert monitor.last_report("pub").publication == "pub"
        assert not any(t.is_alive()
                       for t in threading.enumerate()
                       if t.name.startswith("repro-canary"))
        _ = publication

    def test_dropped_publication_reaps_its_worker(self, registry,
                                                  schema):
        seeded_publication(registry, schema)
        monitor = CanaryMonitor(
            registry, config=CanaryConfig(count=8, interval_s=0.02))
        monitor.start()
        try:
            deadline = time.monotonic() + 5.0
            while monitor.last_report("pub") is None:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            registry.drop("pub")
            deadline = time.monotonic() + 5.0
            while any(t.name == "repro-canary-pub" and t.is_alive()
                      for t in threading.enumerate()):
                assert time.monotonic() < deadline, \
                    "worker survived its publication"
                time.sleep(0.01)
        finally:
            monitor.close()

    def test_run_all_covers_every_publication(self, registry, schema):
        seeded_publication(registry, schema, name="one")
        seeded_publication(registry, schema, name="two")
        registry.create("unsealed", schema, l=3)
        monitor = CanaryMonitor(registry,
                                config=CanaryConfig(count=8))
        reports = monitor.run_all()
        assert sorted(r.publication for r in reports) == ["one", "two"]

    def test_nan_error_when_every_query_skips(self, registry):
        tiny = Schema([Attribute("A", range(2))],
                      Attribute("S", range(4)))
        publication = registry.create("tiny", tiny, l=2)
        publication.ingest([(0, 0), (0, 1)])
        monitor = CanaryMonitor(registry,
                                config=CanaryConfig(count=4, s=0.01))
        report = monitor.run_once(publication)
        if report.evaluated == 0:
            assert math.isnan(report.relative_error)
        else:
            assert report.relative_error >= 0.0
