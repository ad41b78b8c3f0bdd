"""Workload evaluation and the paper's accuracy metric.

Effectiveness is measured as the *average relative error* over a workload
(Section 6.1): for each query, ``|act - est| / act`` where ``act`` is the
true result on the microdata and ``est`` the estimate from the published
tables.

Queries with ``act = 0`` make the relative error undefined; following the
standard practice for this metric, they are excluded from the average (the
result records how many were excluded, so the workloads can be sized
accordingly).

When every evaluator supports the batch engine (all the built-in ones
do — see :mod:`repro.query.batch`), the workload is encoded once and
evaluated in vectorized passes, bit-for-bit identical to the per-query
loop, which third-party estimators exposing only ``estimate`` get
instead.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import QueryError
from repro.query.predicates import CountQuery


@dataclass
class WorkloadResult:
    """Per-workload accuracy summary for one estimator."""

    #: Relative errors of the evaluated (non-zero-actual) queries.
    errors: list[float] = field(default_factory=list)
    #: Number of queries skipped because their actual result was zero.
    skipped_zero_actual: int = 0
    #: Actual and estimated results, aligned with :attr:`errors`.
    actuals: list[float] = field(default_factory=list)
    estimates: list[float] = field(default_factory=list)

    @property
    def evaluated(self) -> int:
        return len(self.errors)

    def average_relative_error(self) -> float:
        """The paper's headline metric, as a fraction (multiply by 100
        for the percentages plotted in Figures 4-7)."""
        if not self.errors:
            raise QueryError("no queries were evaluated")
        return float(np.mean(self.errors))

    def median_relative_error(self) -> float:
        if not self.errors:
            raise QueryError("no queries were evaluated")
        return float(np.median(self.errors))

    def percentile_relative_error(self, q: float) -> float:
        if not self.errors:
            raise QueryError("no queries were evaluated")
        return float(np.percentile(self.errors, q))


def relative_error(actual: float, estimate: float) -> float:
    """``|act - est| / act``; raises on zero actual."""
    if actual == 0:
        raise QueryError("relative error undefined for actual = 0")
    return abs(actual - estimate) / actual


def _supports_batch(evaluator) -> bool:
    return (hasattr(evaluator, "estimate_workload")
            and hasattr(evaluator, "encode"))


def error_summary(actuals, estimates) -> WorkloadResult:
    """The Section-6.1 error summary of aligned actual/estimate arrays.

    Zero-actual queries are excluded (and counted), every survivor
    contributes ``|act - est| / act`` — exactly the arithmetic of
    :func:`evaluate_workload`, factored out so callers that obtain the
    two arrays elsewhere (the live canary utility monitor most
    prominently) produce bit-identical summaries to the offline path.
    """
    actuals = np.asarray(actuals, dtype=np.float64)
    estimates = np.asarray(estimates, dtype=np.float64)
    if actuals.shape != estimates.shape:
        raise QueryError(
            f"actuals and estimates must align, got shapes "
            f"{actuals.shape} and {estimates.shape}")
    keep = actuals != 0.0
    kept_actuals = actuals[keep]
    kept_estimates = estimates[keep]
    errors = np.abs(kept_actuals - kept_estimates) / kept_actuals
    return WorkloadResult(
        errors=errors.tolist(),
        skipped_zero_actual=int(np.count_nonzero(~keep)),
        actuals=kept_actuals.tolist(),
        estimates=kept_estimates.tolist(),
    )


def _evaluate_batch(queries: Sequence[CountQuery], exact,
                    estimators: dict[str, object]
                    ) -> dict[str, WorkloadResult]:
    """One encoding, one ground-truth pass, one pass per estimator."""
    queries = list(queries)
    if not queries:
        return {name: WorkloadResult() for name in estimators}
    encoding = exact.encode(queries)
    actuals = exact.estimate_workload(encoding)
    return {
        name: error_summary(
            actuals, estimator.estimate_workload(encoding))
        for name, estimator in estimators.items()
    }


def evaluate_workload(queries: Sequence[CountQuery],
                      exact, estimator) -> WorkloadResult:
    """Run a workload through ``exact`` (truth) and ``estimator`` and
    collect relative errors.

    Both arguments expose ``estimate(query) -> float`` (see
    :mod:`repro.query.estimators`).  When both also expose the batch
    interface (``encode`` / ``estimate_workload``), the workload goes
    through the vectorized engine, which is bit-identical to the
    per-query loop.
    """
    return evaluate_workload_many(queries, exact, {"_": estimator})["_"]


def evaluate_workload_many(queries: Sequence[CountQuery], exact,
                           estimators: dict[str, object]
                           ) -> dict[str, WorkloadResult]:
    """Evaluate several estimators over the same workload with one pass of
    ground-truth computation (the expensive part).

    With batch-capable evaluators, the workload is encoded once and
    shared by the ground truth and every estimator; otherwise falls
    back to the per-query loop.
    """
    if (_supports_batch(exact)
            and all(_supports_batch(e) for e in estimators.values())):
        return _evaluate_batch(queries, exact, estimators)
    results = {name: WorkloadResult() for name in estimators}
    for query in queries:
        actual = exact.estimate(query)
        if actual == 0:
            for r in results.values():
                r.skipped_zero_actual += 1
            continue
        for name, est in estimators.items():
            estimate = est.estimate(query)
            r = results[name]
            r.actuals.append(actual)
            r.estimates.append(estimate)
            r.errors.append(abs(actual - estimate) / actual)
    return results
