"""Query answering: ground truth and the two publication estimators.

Three evaluators share one interface (``estimate(query) -> float`` plus
the batch ``estimate_workload(queries) -> ndarray`` inherited from
:class:`repro.query.batch.BatchEvaluator`):

* :class:`ExactEvaluator` — the actual result on the microdata (the
  quantity ``act`` in the paper's error metric).
* :class:`AnatomyEstimator` — Section 1.2: the ST gives the exact count of
  qualifying sensitive values per group; the QIT gives the *exact* fraction
  ``p_j`` of each group's tuples satisfying the QI predicates; the estimate
  is ``sum_j count_j * p_j``.  No distribution assumption is needed because
  the QI distribution is published precisely.
* :class:`GeneralizationEstimator` — Section 1.1: sensitive values are
  exact per group, but the QI fraction must be *assumed uniform* over the
  group's published box (multidimensional-histogram style [15], as
  suggested by [9]): per constrained attribute, the fraction of the group's
  interval covered by the predicate's values, multiplied across attributes.

Each evaluator builds its precomputed index (see
:mod:`repro.query.batch`) once at construction; the per-query path reads
the same index, so per query the work is O(n) for exact/anatomy (one
fancy-indexed lookup per constrained column) and O(m) for generalization
(per-group interval arithmetic on pre-extracted arrays), while whole
workloads go through the vectorized batch engine.
"""

from __future__ import annotations

import numpy as np

from repro.core.tables import AnatomizedTables
from repro.dataset.table import Table
from repro.exceptions import QueryError
from repro.generalization.generalized_table import GeneralizedTable
from repro.query.batch import (
    BatchEvaluator,
    GeneralizationIndex,
    MicrodataIndex,
    anatomy_index_for,
)
from repro.query.predicates import CountQuery


class ExactEvaluator(BatchEvaluator):
    """Ground-truth COUNT evaluation on the microdata."""

    def __init__(self, table: Table) -> None:
        self.table = table
        self._index = MicrodataIndex(table)

    def qualifying(self, query: CountQuery) -> np.ndarray:
        """Boolean mask of the microdata rows satisfying ``query``."""
        if query.schema != self.table.schema:
            raise QueryError(
                f"query schema {query.schema!r} does not match the "
                f"microdata schema {self.table.schema!r}")
        mask = query.lookup_table(
            self.table.schema.sensitive.name)[self.table.sensitive_column]
        for name, lut in query.qi_lookup_tables().items():
            mask &= lut[self.table.column(name)]
        return mask

    def estimate(self, query: CountQuery) -> float:
        """The actual query result (an exact integer, returned as
        float for interface uniformity)."""
        return float(np.count_nonzero(self.qualifying(query)))


class AnatomyEstimator(BatchEvaluator):
    """The anatomy estimator of Section 1.2.

    The :class:`~repro.query.batch.AnatomyIndex` precomputes, per group
    ``j``: the group size ``|QI_j|`` and the ST histogram as a dense
    ``(m, |As|)`` count matrix, so each query costs one QIT scan plus
    O(m) arithmetic.
    """

    def __init__(self, published: AnatomizedTables) -> None:
        self.published = published
        self._index = anatomy_index_for(published)

    def qi_fractions(self, query: CountQuery) -> np.ndarray:
        """Per group ``j``, the exact fraction ``p_j`` of its tuples
        satisfying the QI predicates, read off the QIT."""
        qit = self.published.qit
        mask = np.ones(qit.n, dtype=bool)
        for name, lut in query.qi_lookup_tables().items():
            mask &= lut[qit.qi_column(name)]
        satisfied = np.bincount(qit.group_ids[mask] - 1,
                                minlength=self._index.m).astype(np.float64)
        return satisfied / self._index.group_sizes

    def estimate(self, query: CountQuery) -> float:
        """``sum_j count_j(V_s) * p_j`` with ``p_j`` the exact in-group
        QI-predicate fraction read off the QIT."""
        # Per-group count of qualifying sensitive values from the ST.
        count_s = self._index.st_matrix[
            :, query.lookup_table(query.schema.sensitive.name)].sum(axis=1)
        return float((count_s * self.qi_fractions(query)).sum())


class GeneralizationEstimator(BatchEvaluator):
    """The uniform-assumption estimator of Section 1.1.

    The :class:`~repro.query.batch.GeneralizationIndex` precomputes per
    group: interval bounds per QI attribute (``(m,)`` arrays of lows and
    highs) and the dense sensitive histogram, so each query is pure
    vectorized interval arithmetic over the ``m`` groups.
    """

    def __init__(self, published: GeneralizedTable) -> None:
        self.published = published
        self._index = GeneralizationIndex(published)

    def qi_fractions(self, query: CountQuery) -> np.ndarray:
        """Per group, the assumed-uniform probability that a tuple
        satisfies all QI predicates: the product over constrained
        attributes of (predicate values inside the group's interval) /
        (interval length)."""
        fraction = np.ones(self._index.m, dtype=np.float64)
        for name, lut in query.qi_lookup_tables().items():
            cumulative = np.concatenate(
                ([0], np.cumsum(lut.astype(np.int64))))
            los = self._index.lows[name]
            his = self._index.highs[name]
            inside = cumulative[his + 1] - cumulative[los]
            fraction *= inside / (his - los + 1)
        return fraction

    def estimate(self, query: CountQuery) -> float:
        """``sum_j count_j(V_s) * p_j`` with ``p_j`` the uniformity-based
        in-box fraction."""
        count_s = self._index.sens_matrix[
            :, query.lookup_table(query.schema.sensitive.name)].sum(axis=1)
        return float((count_s * self.qi_fractions(query)).sum())
