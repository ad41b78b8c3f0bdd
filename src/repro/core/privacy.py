"""Adversary model and privacy guarantees (Section 3.2-3.3).

The paper analyzes an adversary who knows a target individual's QI values
(assumption A1) and knows the individual is in the microdata (assumption
A2).  From a QIT/ST pair the adversary proceeds as in Theorem 1:

1. find the ``f`` QIT rows matching the target's QI values;
2. assume each is the target with probability ``1/f``;
3. within each candidate row's group, apply Equation 2
   (``Pr{t[d+1]=v} = c_j(v)/|QI_j|``).

The resulting posterior over sensitive values puts at most ``1/l`` on any
single value (Theorem 1), matching the tuple-level guarantee
(Corollary 1).

When A2 does not hold, the breach probability takes the Bayes form of
Formula 3, ``Pr_A2 * Pr_breach(.|A2)``; the membership factor ``Pr_A2`` is
estimated against an external registry (the paper's voter list, Table 5).
This module implements all of these pieces for anatomy; the corresponding
generalization-side adversary lives in
:mod:`repro.generalization.privacy`.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.tables import AnatomizedTables
from repro.exceptions import ReproError, SchemaError


class AnatomyAdversary:
    """An adversary attacking an anatomized publication.

    Parameters
    ----------
    published:
        The QIT/ST pair.  Only publicly released information is used: the
        adversary never touches ``published.partition``.

    Examples
    --------
    >>> from repro.dataset.hospital import hospital_table
    >>> from repro.core.anatomize import anatomize
    >>> pub = anatomize(hospital_table(), l=2)
    >>> adv = AnatomyAdversary(pub)
    >>> qi = pub.schema  # encode Bob's details through the schema
    >>> bob = tuple(a.encode(v) for a, v in
    ...             zip(qi.qi_attributes, (23, "M", 11000)))
    >>> max(adv.posterior(bob).values()) <= 0.5
    True
    """

    def __init__(self, published: AnatomizedTables) -> None:
        self.published = published

    def encode_qi(self, values: Sequence[object]) -> tuple[int, ...]:
        """Encode decoded QI values (e.g. ``(23, "M", 11000)``) to codes."""
        attrs = self.published.schema.qi_attributes
        if len(values) != len(attrs):
            raise SchemaError(
                f"expected {len(attrs)} QI values, got {len(values)}")
        return tuple(a.encode(v) for a, v in zip(attrs, values))

    def matching_rows(self, qi_codes: Sequence[int]) -> np.ndarray:
        """QIT row positions whose QI codes equal the target's exactly.

        This is the adversary's candidate set: the ``f`` tuples of
        Theorem 1.
        """
        qit = self.published.qit
        target = np.asarray(qi_codes, dtype=np.int32)
        if target.shape != (self.published.schema.d,):
            raise SchemaError(
                f"QI vector must have {self.published.schema.d} codes")
        mask = np.all(qit.qi_codes == target, axis=1)
        return np.flatnonzero(mask)

    def posterior(self, qi_codes: Sequence[int]) -> dict[int, float]:
        """The adversary's posterior over sensitive codes for an individual
        with the given QI values (proof of Theorem 1).

        Averages Equation 2 over the ``f`` matching QIT rows with weight
        ``1/f`` each.  Raises if no row matches (the adversary would
        conclude the individual is absent).
        """
        rows = self.matching_rows(qi_codes)
        if len(rows) == 0:
            raise ReproError(
                "no QIT row matches the target's QI values; under "
                "assumption A2 this is a contradiction")
        f = len(rows)
        posterior: dict[int, float] = {}
        for row in rows:
            gid = int(self.published.qit.group_ids[row])
            for code, prob in (
                    self.published.st.group_distribution(gid).items()):
                posterior[code] = posterior.get(code, 0.0) + prob / f
        return posterior

    def breach_probability(self, qi_codes: Sequence[int],
                           true_sensitive: int) -> float:
        """Probability the adversary correctly infers the individual's real
        sensitive value (the quantity bounded by Theorem 1)."""
        return self.posterior(qi_codes).get(true_sensitive, 0.0)

    def is_present(self, qi_codes: Sequence[int]) -> bool:
        """Whether any QIT row matches the QI values.

        Because anatomy releases exact QI values, an adversary can rule
        individuals *out* (the paper's Emily example, Section 3.3); this is
        the price anatomy pays on the membership factor ``Pr_A2``.
        """
        return len(self.matching_rows(qi_codes)) > 0

    def membership_probability(self, registry: Sequence[Sequence[int]],
                               target_qi: Sequence[int]) -> float:
        """Estimate ``Pr_A2(target)`` against an external registry
        (Section 3.3, the voter-list analysis).

        The adversary sees ``f`` published rows matching the target's QI
        values and ``g`` registry individuals sharing those same values;
        absent other information each of the ``g`` candidates fills one of
        the ``f`` slots with equal likelihood, so
        ``Pr_A2 = min(1, f / g)``.  For anatomy the matching region is the
        *exact* QI vector — an individual whose QI values never appear in
        the QIT gets probability 0.
        """
        target = tuple(int(c) for c in target_qi)
        f = len(self.matching_rows(target))
        g = sum(1 for person in registry
                if tuple(int(c) for c in person) == target)
        if g == 0:
            raise ReproError("target does not appear in the registry")
        return min(1.0, f / g)

    def overall_breach_probability(
            self, registry: Sequence[Sequence[int]],
            target_qi: Sequence[int],
            true_sensitive: int) -> float:
        """Formula 3: ``Pr_A2 * Pr_breach(.|A2)`` when the adversary is not
        certain the target is in the microdata."""
        pr_a2 = self.membership_probability(registry, target_qi)
        if pr_a2 == 0.0:
            return 0.0
        return pr_a2 * self.breach_probability(target_qi, true_sensitive)


def verify_tuple_level_guarantee(published: AnatomizedTables,
                                 l: int) -> bool:
    """Check Corollary 1: no group's Equation-2 distribution puts more
    than ``1/l`` on any sensitive value (the worst group is
    :meth:`AnatomizedTables.breach_probability_bound`)."""
    return published.breach_probability_bound() <= 1.0 / l + 1e-12


def verify_individual_level_guarantee(published: AnatomizedTables,
                                      l: int) -> bool:
    """Check Theorem 1 exhaustively over every distinct QI vector present
    in the publication: the adversary's posterior never exceeds ``1/l``.

    Quadratic in the number of distinct QI vectors; intended for tests and
    small publications.
    """
    adversary = AnatomyAdversary(published)
    distinct = {tuple(int(v) for v in row)
                for row in published.qit.qi_codes}
    for qi in distinct:
        posterior = adversary.posterior(qi)
        if max(posterior.values()) > 1.0 / l + 1e-12:
            return False
    return True
