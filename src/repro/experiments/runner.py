"""Experiment runners: one measured point at a time.

Two primitive measurements back every figure:

* :func:`accuracy_point` — publish a microdata view with both methods, run
  a query workload, and report the average relative error of each
  (Figures 4-7);
* :func:`io_point` — run both paged algorithms on the storage engine and
  report their I/O counts (Figures 8-9).

A small in-process cache keys published tables by (dataset, view,
cardinality, l) so that sweeps over qd / s reuse the same publication, as
the paper's experiments do.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.anatomize import anatomize
from repro.dataset.census import CensusDataset
from repro.dataset.table import Table
from repro.experiments.config import ExperimentConfig
from repro.generalization.mondrian import mondrian
from repro.generalization.recoding import census_recoder
from repro.obs.tracing import span
from repro.query.estimators import (
    AnatomyEstimator,
    ExactEvaluator,
    GeneralizationEstimator,
)
from repro.query.evaluate import evaluate_workload_many
from repro.query.workload import make_workload
from repro.storage.algorithms import paged_anatomize, paged_mondrian
from repro.storage.engine import StorageEngine


@dataclass
class AccuracyPoint:
    """Average relative errors (percent) of one configuration."""

    anatomy_error_pct: float
    generalization_error_pct: float
    evaluated_queries: int
    skipped_queries: int


@dataclass
class IOPoint:
    """I/O counts of one configuration."""

    anatomy_io: int
    generalization_io: int


class PublicationCache:
    """Caches published tables and their estimators per microdata view."""

    def __init__(self, config: ExperimentConfig) -> None:
        self.config = config
        self._store: dict[tuple, tuple] = {}

    def estimators(self, table: Table, key: tuple
                   ) -> tuple[ExactEvaluator, AnatomyEstimator,
                              GeneralizationEstimator]:
        if key not in self._store:
            with span("publish.anatomize", n=len(table),
                      l=self.config.l):
                published = anatomize(table, self.config.l,
                                      seed=self.config.algorithm_seed)
            with span("publish.mondrian", n=len(table),
                      l=self.config.l):
                generalized = mondrian(table, self.config.l,
                                       recoder=census_recoder())
            self._store[key] = (
                ExactEvaluator(table),
                AnatomyEstimator(published),
                GeneralizationEstimator(generalized),
            )
        return self._store[key]


def accuracy_point(table: Table, l: int, qd: int, s: float,
                   n_queries: int, workload_seed: int = 7,
                   algorithm_seed: int = 0,
                   estimators: tuple | None = None) -> AccuracyPoint:
    """Measure both methods' average relative error on one view.

    Parameters mirror Table 7; ``estimators`` short-circuits publication
    when a :class:`PublicationCache` already built them.
    """
    if estimators is None:
        with span("publish.anatomize", n=len(table), l=l):
            published = anatomize(table, l, seed=algorithm_seed)
        with span("publish.mondrian", n=len(table), l=l):
            generalized = mondrian(table, l, recoder=census_recoder())
        exact = ExactEvaluator(table)
        anatomy_est = AnatomyEstimator(published)
        general_est = GeneralizationEstimator(generalized)
    else:
        exact, anatomy_est, general_est = estimators

    workload = make_workload(table.schema, qd, s, n_queries,
                             seed=workload_seed)
    with span("workload.evaluate", queries=len(workload),
              n=len(table), qd=qd):
        results = evaluate_workload_many(
            workload, exact,
            {"anatomy": anatomy_est, "generalization": general_est})
    anatomy = results["anatomy"]
    general = results["generalization"]
    return AccuracyPoint(
        anatomy_error_pct=100.0 * anatomy.average_relative_error(),
        generalization_error_pct=100.0 * general.average_relative_error(),
        evaluated_queries=anatomy.evaluated,
        skipped_queries=anatomy.skipped_zero_actual,
    )


def io_point(table: Table, l: int,
             algorithm_seed: int = 0) -> IOPoint:
    """Measure both paged algorithms' I/O on one view (fresh engines, so
    runs do not share buffer state)."""
    engine_a = StorageEngine()
    with span("io.paged_anatomize", n=len(table), l=l):
        result_a = paged_anatomize(engine_a, table, l, seed=algorithm_seed)

    engine_m = StorageEngine()
    with span("io.paged_mondrian", n=len(table), l=l):
        result_m = paged_mondrian(engine_m, table, l,
                                  recoder=census_recoder())

    return IOPoint(anatomy_io=result_a.io.total,
                   generalization_io=result_m.io.total)


def census_view(dataset: CensusDataset, d: int, sensitive: str,
                n: int | None, seed: int = 0) -> Table:
    """A (possibly sampled) OCC-d / SAL-d view of a generated
    population."""
    if n is None or n >= dataset.n:
        return dataset.view(d, sensitive)
    return dataset.sample_view(d, sensitive, n, seed=seed)
