"""SUM / AVG aggregate estimation over published tables.

The paper evaluates COUNT queries; real analyses also need SUM and AVG of
a numeric quantity derived from the sensitive attribute (e.g. treatment
cost per disease, income per salary class).  The same estimation logic
extends directly:

* **exact** — sum the measure over qualifying microdata tuples;
* **anatomy** — within each group the exact fraction ``p_j`` of tuples
  satisfying the QI predicates is known from the QIT, and the ST gives
  the group's full sensitive histogram, so
  ``SUM ~= sum_j p_j * sum_v c_j(v) * m(v)`` over qualifying values
  ``v``;
* **generalization** — identical, with ``p_j`` replaced by the
  uniform-assumption box fraction.

AVG is estimated as the ratio of the SUM and COUNT estimates (the
standard ratio estimator); it is undefined when the COUNT estimate is 0.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping

import numpy as np

from repro.core.tables import AnatomizedTables
from repro.dataset.table import Table
from repro.exceptions import QueryError
from repro.generalization.generalized_table import GeneralizedTable
from repro.query.estimators import (
    AnatomyEstimator,
    ExactEvaluator,
    GeneralizationEstimator,
)
from repro.query.predicates import CountQuery


class Measure:
    """A numeric value attached to each sensitive-domain code.

    Parameters
    ----------
    schema:
        The microdata schema (for the sensitive domain size).
    values:
        Either a mapping from sensitive *code* to number, or a callable
        applied to each decoded domain value.
    """

    __slots__ = ("vector",)

    def __init__(self, schema, values: Mapping[int, float]
                 | Callable[[object], float]) -> None:
        size = schema.sensitive.size
        vector = np.zeros(size, dtype=np.float64)
        if callable(values):
            for code in range(size):
                vector[code] = float(values(schema.sensitive.decode(code)))
        else:
            for code, value in values.items():
                if not 0 <= int(code) < size:
                    raise QueryError(
                        f"measure code {code} outside sensitive domain")
                vector[int(code)] = float(value)
        self.vector = vector
        self.vector.setflags(write=False)

    def __call__(self, code: int) -> float:
        return float(self.vector[code])


class ExactAggregator:
    """Ground-truth SUM / AVG / COUNT on the microdata."""

    def __init__(self, table: Table, measure: Measure) -> None:
        self.table = table
        self.measure = measure
        self._count = ExactEvaluator(table)

    def sum(self, query: CountQuery) -> float:
        mask = self._count.qualifying(query)
        return float(
            self.measure.vector[self.table.sensitive_column[mask]].sum())

    def count(self, query: CountQuery) -> float:
        return self._count.estimate(query)

    def avg(self, query: CountQuery) -> float:
        count = self.count(query)
        if count == 0:
            raise QueryError("AVG undefined: no qualifying tuples")
        return self.sum(query) / count


class _GroupAggregator:
    """SUM / AVG estimation from a publication's per-group COUNT
    estimator and its ``(m, |As|)`` sensitive histogram."""

    def __init__(self, published, measure: Measure, count,
                 histogram: np.ndarray) -> None:
        self.published = published
        self.measure = measure
        self._count = count
        self._weighted = histogram * measure.vector[np.newaxis, :]

    def sum(self, query: CountQuery) -> float:
        p = self._count.qi_fractions(query)
        weighted = self._weighted[
            :, query.lookup_table(query.schema.sensitive.name)].sum(axis=1)
        return float((weighted * p).sum())

    def count(self, query: CountQuery) -> float:
        return self._count.estimate(query)

    def avg(self, query: CountQuery) -> float:
        count = self.count(query)
        if count == 0:
            raise QueryError("AVG undefined: estimated count is 0")
        return self.sum(query) / count


class AnatomyAggregator(_GroupAggregator):
    """SUM / AVG estimation from a QIT/ST pair."""

    def __init__(self, published: AnatomizedTables,
                 measure: Measure) -> None:
        count = AnatomyEstimator(published)
        super().__init__(published, measure, count, count.index.st_matrix)


class GeneralizationAggregator(_GroupAggregator):
    """SUM / AVG estimation from a generalized table."""

    def __init__(self, published: GeneralizedTable,
                 measure: Measure) -> None:
        count = GeneralizationEstimator(published)
        super().__init__(published, measure, count,
                         count.index.sens_matrix)
