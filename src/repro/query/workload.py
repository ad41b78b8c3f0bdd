"""Workload generation (paper Section 6.1, Equation 14).

Each workload query constrains ``qd`` random QI attributes plus the
sensitive attribute.  The number of values in an attribute's disjunction is
driven by the *expected selectivity* ``s``::

    b = round(|A| * s^(1 / (qd + 1)))          (Equation 14)

so that, under independence and uniformity, the fraction of tuples
qualifying all ``qd + 1`` predicates is about ``s``.  Values are drawn
uniformly without replacement from the attribute's domain.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.dataset.schema import Schema
from repro.exceptions import QueryError
from repro.query.predicates import CountQuery, query_fingerprint


def predicate_width(domain_size: int, s: float, qd: int) -> int:
    """Equation 14: the per-attribute disjunction size ``b``.

    Clamped to ``[1, domain_size]`` — a predicate needs at least one value
    and cannot list more values than the domain holds (relevant for tiny
    domains like Gender at low selectivity).
    """
    if not 0.0 < s <= 1.0:
        raise QueryError(f"selectivity must be in (0, 1], got {s}")
    if qd < 0:
        raise QueryError(f"qd must be >= 0, got {qd}")
    b = int(round(domain_size * s ** (1.0 / (qd + 1))))
    return max(1, min(domain_size, b))


class WorkloadGenerator:
    """Generates the paper's random COUNT-query workloads.

    Parameters
    ----------
    schema:
        Schema of the microdata under evaluation.
    qd:
        Query dimensionality: how many QI attributes each query constrains
        (chosen uniformly among the schema's ``d`` QI attributes, fresh
        per query).
    s:
        Expected selectivity (the paper sweeps 1%..10%, default 5%).
    seed:
        RNG seed for reproducible workloads.
    """

    def __init__(self, schema: Schema, qd: int, s: float,
                 seed: int | None = 0) -> None:
        if not 1 <= qd <= schema.d:
            raise QueryError(
                f"qd must be in [1, {schema.d}] for this schema, got {qd}")
        self.schema = schema
        self.qd = int(qd)
        self.s = float(s)
        if not 0.0 < self.s <= 1.0:
            raise QueryError(f"selectivity must be in (0, 1], got {s}")
        self._rng = np.random.default_rng(seed)

    def next_query(self) -> CountQuery:
        """Draw one random query."""
        rng = self._rng
        qi_names = list(self.schema.qi_names)
        chosen = rng.choice(len(qi_names), size=self.qd, replace=False)
        predicates: dict[str, list[int]] = {}
        for i in chosen:
            attr = self.schema.qi_attributes[int(i)]
            b = predicate_width(attr.size, self.s, self.qd)
            codes = rng.choice(attr.size, size=b, replace=False)
            predicates[attr.name] = [int(c) for c in codes]
        sens = self.schema.sensitive
        b = predicate_width(sens.size, self.s, self.qd)
        sens_codes = rng.choice(sens.size, size=b, replace=False)
        return CountQuery(self.schema, predicates,
                          [int(c) for c in sens_codes])

    def workload(self, count: int) -> list[CountQuery]:
        """Draw ``count`` independent queries (the paper uses 10,000 per
        configuration)."""
        if count < 0:
            raise QueryError(f"count must be >= 0, got {count}")
        return [self.next_query() for _ in range(count)]


def make_workload(schema: Schema, qd: int, s: float, count: int,
                  seed: int | None = 0) -> list[CountQuery]:
    """Convenience wrapper: one call, one workload."""
    return WorkloadGenerator(schema, qd, s, seed=seed).workload(count)


def expected_predicate_widths(schema: Schema, qd: int,
                              s: float) -> dict[str, int]:
    """The Equation-14 widths per attribute, for documentation and
    tests."""
    widths = {
        attr.name: predicate_width(attr.size, s, qd)
        for attr in schema.qi_attributes
    }
    widths[schema.sensitive.name] = predicate_width(
        schema.sensitive.size, s, qd)
    return widths


def workload_signature(queries: Sequence[CountQuery]) -> tuple[str, ...]:
    """A deterministic fingerprint of a workload (for tests that assert
    reproducibility across runs and processes): the
    :func:`~repro.query.predicates.query_fingerprint` of each query."""
    return tuple(query_fingerprint(q) for q in queries)
