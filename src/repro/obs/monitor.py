"""Live canary utility monitoring for anatomized publications.

Publishing l-diverse releases is only half the contract: the paper's
Section 7 experiments argue the *utility* side — anatomized estimates
answer aggregate COUNT queries with low relative error.  This module
keeps that claim measured in production.  A :class:`CanaryMonitor`
runs one background worker per live publication; each worker
periodically evaluates a small deterministic COUNT workload (the
Section-6.1 generator with a fixed seed, so every run re-asks the same
questions) against the publication's current snapshot and exports the
observed error as gauges.

Two measurement paths, chosen per publication:

* **ground truth** — when the publication retains its published
  microdata (the default), actual counts come from a
  :class:`~repro.query.batch.MicrodataIndex` over exactly the rows
  behind the release, estimates from the snapshot's own estimator,
  and the error is the paper's average relative error via
  :func:`repro.query.evaluate.error_summary` — the monitor and the
  offline Section-7 evaluation share one code path, so they agree to
  the last bit;
* **variance model** — when microdata was dropped
  (``retain_microdata=False``), actual counts are unavailable by
  design; the worker falls back to the Section-5.4 error model
  (:meth:`~repro.query.batch.AnatomyIndex.evaluate_with_variance`),
  reporting the *expected* relative error ``sqrt(Var)/est`` computable
  from the published QIT/ST alone.

Exported metric families (all labelled by publication):

=========================================  =========  ====================
``repro_utility_relative_error``           gauge      average relative
                                                      error of the last
                                                      canary run
``repro_utility_drift``                    gauge      error delta vs the
                                                      previously measured
                                                      version
``repro_utility_measured_version``         gauge      version the error
                                                      was measured at
``repro_utility_ground_truth``             gauge      1 when measured
                                                      against retained
                                                      microdata, 0 when
                                                      modelled
``repro_utility_queries_evaluated``        gauge      queries contributing
                                                      to the average
``repro_utility_queries_skipped``          gauge      zero-actual (or
                                                      zero-estimate)
                                                      queries excluded
``repro_utility_canary_runs_total``        counter    canary evaluations
``repro_utility_canary_errors_total``      counter    failed evaluations
``repro_utility_canary_seconds``           histogram  canary run latency
=========================================  =========  ====================

Workers recompute only when the publication's version moved — a canary
tick against an unchanged release re-exports the cached report, so an
idle service pays nothing per tick beyond a version read.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ReproError, ServiceError
from repro.obs.logging import StructuredLogger
from repro.obs.metrics import MetricsRegistry
from repro.query.batch import MicrodataIndex, WorkloadEncoding
from repro.query.evaluate import WorkloadResult, error_summary
from repro.query.workload import make_workload

#: Gauge/counter/histogram names exported by the canary monitor.
GAUGE_RELATIVE_ERROR = "repro_utility_relative_error"
GAUGE_DRIFT = "repro_utility_drift"
GAUGE_MEASURED_VERSION = "repro_utility_measured_version"
GAUGE_GROUND_TRUTH = "repro_utility_ground_truth"
GAUGE_EVALUATED = "repro_utility_queries_evaluated"
GAUGE_SKIPPED = "repro_utility_queries_skipped"
COUNTER_RUNS = "repro_utility_canary_runs_total"
COUNTER_ERRORS = "repro_utility_canary_errors_total"
HISTOGRAM_SECONDS = "repro_utility_canary_seconds"

#: Buckets for the canary-latency histogram (canaries are millisecond
#: scale; the tail bucket catches pathological releases).
CANARY_LATENCY_BUCKETS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
                          0.1, 0.25, 1.0, 5.0)


@dataclass(frozen=True)
class CanaryConfig:
    """Shape of the deterministic canary workload and its cadence.

    ``qd``/``s``/``count``/``seed`` parameterize the Section-6.1
    workload generator; ``qd`` is clamped to the publication schema's
    QI dimensionality, so one config serves schemas of any width.
    """

    qd: int = 2
    s: float = 0.05
    count: int = 32
    seed: int = 0
    interval_s: float = 5.0

    def __post_init__(self) -> None:
        if self.qd < 1:
            raise ReproError(f"canary qd must be >= 1, got {self.qd}")
        if self.count < 1:
            raise ReproError(
                f"canary count must be >= 1, got {self.count}")
        if self.interval_s <= 0:
            raise ReproError(
                f"canary interval must be > 0, got {self.interval_s}")

    @classmethod
    def from_json(cls, spec: dict) -> "CanaryConfig":
        unknown = set(spec) - {"qd", "s", "count", "seed", "interval_s"}
        if unknown:
            raise ReproError(
                f"unknown canary config keys {sorted(unknown)}")
        return cls(**spec)


@dataclass
class UtilityReport:
    """One canary measurement of one publication version."""

    publication: str
    version: int
    #: ``"ground-truth"`` or ``"variance-model"`` (microdata dropped).
    method: str
    #: Average relative error (the paper's metric for ground truth,
    #: the model's expectation otherwise); ``nan`` when every query
    #: was skipped.
    relative_error: float
    evaluated: int
    skipped: int
    #: Error delta against the previously measured version of the same
    #: publication; ``None`` on the first measurement.
    drift: float | None
    duration_s: float

    @property
    def ground_truth(self) -> bool:
        return self.method == "ground-truth"

    def to_json(self) -> dict:
        return {
            "publication": self.publication,
            "version": self.version,
            "method": self.method,
            "relative_error": self.relative_error,
            "evaluated": self.evaluated,
            "skipped": self.skipped,
            "drift": self.drift,
            "duration_s": self.duration_s,
        }


def measure_snapshot(snapshot, encoding: WorkloadEncoding,
                     ground_truth) -> tuple[str, "object"]:
    """Measure one immutable snapshot against one encoded workload.

    Returns ``(method, WorkloadResult-like)``.  With ``ground_truth``
    (a microdata :class:`~repro.dataset.table.Table`) the result is the
    paper's error summary — the exact arithmetic of the offline
    Section-7 evaluation.  Without it, the Section-5.4 fallback wraps
    the model's expected relative errors in the same summary type.
    """
    if ground_truth is not None:
        actuals = MicrodataIndex(ground_truth).evaluate(encoding)
        estimates = snapshot.estimator.estimate_workload(encoding)
        return "ground-truth", error_summary(actuals, estimates)
    estimates, variances = snapshot.estimator.index.evaluate_with_variance(
        encoding)
    keep = estimates > 0.0
    expected = np.sqrt(variances[keep]) / estimates[keep]
    summary = WorkloadResult(
        errors=expected.tolist(),
        skipped_zero_actual=int(np.count_nonzero(~keep)),
        estimates=estimates[keep].tolist())
    return "variance-model", summary


class CanaryMonitor:
    """Background utility monitoring over a publication registry.

    Parameters
    ----------
    registry:
        Anything with ``names() -> list[str]`` and ``get(name) ->
        Publication`` (the service's
        :class:`~repro.service.registry.PublicationRegistry`).
    config:
        Workload shape and cadence.
    metrics:
        Registry receiving the exported gauges; ``None`` disables
        metric export (reports are still returned).
    logger:
        Structured logger for canary lifecycle/error events.
    """

    def __init__(self, registry, *,
                 config: CanaryConfig | None = None,
                 metrics: MetricsRegistry | None = None,
                 logger: StructuredLogger | None = None) -> None:
        self.registry = registry
        self.config = config if config is not None else CanaryConfig()
        self.metrics = metrics
        self.logger = logger
        self._encodings: dict[str, tuple[object, WorkloadEncoding]] = {}
        self._reports: dict[str, UtilityReport] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._workers: dict[str, threading.Thread] = {}
        self._supervisor: threading.Thread | None = None

    # ------------------------------------------------------------------ #
    # measurement
    # ------------------------------------------------------------------ #

    def _encoding_for(self, publication) -> WorkloadEncoding:
        """The publication's deterministic canary workload, encoded
        once per schema (the workload never changes between runs —
        that is what makes successive errors comparable)."""
        name = publication.name
        schema = publication.schema
        with self._lock:
            cached = self._encodings.get(name)
            if cached is not None and cached[0] is schema:
                return cached[1]
        qd = min(self.config.qd, schema.d)
        workload = make_workload(schema, qd, self.config.s,
                                 self.config.count,
                                 seed=self.config.seed)
        encoding = WorkloadEncoding(schema, workload)
        with self._lock:
            self._encodings[name] = (schema, encoding)
        return encoding

    def run_once(self, publication, *,
                 force: bool = False) -> UtilityReport | None:
        """Measure one publication synchronously (the workers' body,
        exposed for deterministic tests).

        Returns ``None`` before the first group seals.  When the
        version has not moved since the last measurement, the cached
        report is re-exported instead of recomputed unless ``force``.
        """
        snapshot = publication.snapshot()
        if snapshot.version == 0 or snapshot.estimator is None:
            return None
        name = publication.name
        with self._lock:
            previous = self._reports.get(name)
        if (previous is not None and not force
                and previous.version == snapshot.version):
            self._export(previous, recomputed=False)
            return previous
        start = time.perf_counter()
        encoding = self._encoding_for(publication)
        ground_truth = publication.ground_truth_table(
            at_version=snapshot.version)
        method, summary = measure_snapshot(snapshot, encoding,
                                           ground_truth)
        error = (float(np.mean(summary.errors)) if summary.errors
                 else math.nan)
        drift = None
        if previous is not None and not (
                math.isnan(error) or math.isnan(previous.relative_error)):
            drift = error - previous.relative_error
        report = UtilityReport(
            publication=name, version=snapshot.version, method=method,
            relative_error=error, evaluated=len(summary.errors),
            skipped=summary.skipped_zero_actual, drift=drift,
            duration_s=time.perf_counter() - start)
        with self._lock:
            self._reports[name] = report
        self._export(report, recomputed=True)
        if self.logger is not None:
            self.logger.info("canary.measure", **report.to_json())
        return report

    def run_all(self, *, force: bool = False) -> list[UtilityReport]:
        """Measure every registered publication once (in this thread)."""
        reports = []
        for name in self.registry.names():
            try:
                publication = self.registry.get(name)
            except ServiceError:
                continue
            report = self.run_once(publication, force=force)
            if report is not None:
                reports.append(report)
        return reports

    def last_report(self, name: str) -> UtilityReport | None:
        with self._lock:
            return self._reports.get(name)

    def reports(self) -> dict[str, UtilityReport]:
        with self._lock:
            return dict(self._reports)

    def _export(self, report: UtilityReport, *,
                recomputed: bool) -> None:
        registry = self.metrics
        if registry is None:
            return
        labels = {"publication": report.publication}
        registry.gauge(
            GAUGE_RELATIVE_ERROR,
            "Average relative COUNT error of the last canary run "
            "(Section 7 metric on ground truth, Section 5.4 "
            "expectation otherwise)",
            labelnames=("publication",)).set(report.relative_error,
                                             **labels)
        if report.drift is not None:
            registry.gauge(
                GAUGE_DRIFT,
                "Canary error delta against the previously measured "
                "version",
                labelnames=("publication",)).set(report.drift, **labels)
        registry.gauge(
            GAUGE_MEASURED_VERSION,
            "Publication version the canary error was measured at",
            labelnames=("publication",)).set(report.version, **labels)
        registry.gauge(
            GAUGE_GROUND_TRUTH,
            "1 when the canary measured against retained microdata, "
            "0 when it fell back to the variance model",
            labelnames=("publication",)).set(
                1.0 if report.ground_truth else 0.0, **labels)
        registry.gauge(
            GAUGE_EVALUATED,
            "Canary queries contributing to the average",
            labelnames=("publication",)).set(report.evaluated, **labels)
        registry.gauge(
            GAUGE_SKIPPED,
            "Canary queries excluded (zero actual/estimate)",
            labelnames=("publication",)).set(report.skipped, **labels)
        registry.counter(
            COUNTER_RUNS, "Canary evaluations (including cached "
            "re-exports)", labelnames=("publication",)).inc(**labels)
        if recomputed:
            registry.histogram(
                HISTOGRAM_SECONDS, "Canary evaluation latency",
                labelnames=("publication",),
                buckets=CANARY_LATENCY_BUCKETS).observe(
                    report.duration_s, **labels)

    # ------------------------------------------------------------------ #
    # background workers
    # ------------------------------------------------------------------ #

    def _worker_loop(self, name: str) -> None:
        while not self._stop.is_set():
            try:
                publication = self.registry.get(name)
            except ServiceError:
                break  # dropped; the supervisor reaps us
            try:
                self.run_once(publication)
            except Exception as exc:
                if self.metrics is not None:
                    self.metrics.counter(
                        COUNTER_ERRORS, "Failed canary evaluations",
                        labelnames=("publication",)).inc(
                            publication=name)
                if self.logger is not None:
                    self.logger.error("canary.error", publication=name,
                                      error=f"{type(exc).__name__}: "
                                            f"{exc}")
            if self._stop.wait(self.config.interval_s):
                break

    def _ensure_workers(self) -> None:
        names = set(self.registry.names())
        with self._lock:
            for name in list(self._workers):
                if name not in names or not \
                        self._workers[name].is_alive():
                    self._workers.pop(name)
            missing = [n for n in names if n not in self._workers]
            for name in missing:
                worker = threading.Thread(
                    target=self._worker_loop, args=(name,),
                    name=f"repro-canary-{name}", daemon=True)
                self._workers[name] = worker
                worker.start()

    def _supervise(self) -> None:
        while not self._stop.is_set():
            self._ensure_workers()
            # React to create/drop faster than the canary cadence.
            if self._stop.wait(min(self.config.interval_s, 0.5)):
                break

    def start(self) -> None:
        """Start the supervisor (idempotent); one worker thread per
        publication follows within half a second."""
        if self._supervisor is not None and \
                self._supervisor.is_alive():
            return
        self._stop.clear()
        self._supervisor = threading.Thread(
            target=self._supervise, name="repro-canary-supervisor",
            daemon=True)
        self._supervisor.start()
        if self.logger is not None:
            self.logger.info("canary.start",
                             interval_s=self.config.interval_s,
                             count=self.config.count)

    def close(self, timeout: float = 5.0) -> None:
        """Stop the supervisor and every worker (idempotent)."""
        self._stop.set()
        supervisor = self._supervisor
        if supervisor is not None:
            supervisor.join(timeout=timeout)
            self._supervisor = None
        with self._lock:
            workers = list(self._workers.values())
            self._workers.clear()
        for worker in workers:
            worker.join(timeout=timeout)
        if self.logger is not None:
            self.logger.info("canary.stop")

    def __enter__(self) -> "CanaryMonitor":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
