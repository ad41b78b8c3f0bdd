"""Privacy-audit telemetry: measure the 1/l guarantee on what was
actually published.

Anatomy's value proposition is a provable bound (Theorem 1: an
adversary's inference probability is at most ``1/l``), but work on
adversaries who know the algorithm (transparent anonymization) and on
worst-case background knowledge shows the guarantee should be *checked
on the published tables, per release*, not just asserted once in tests.
This module audits an :class:`~repro.core.tables.AnatomizedTables`
release and turns the result into gauges labelled by publication and
version, so a Prometheus scrape shows the bound holding — or a
regression tripping — in live traffic.

Three quantities per release:

* **max group frequency** — ``max_j c_j(v)/|QI_j|`` over every group
  ``j`` and sensitive value ``v``: the Corollary 1 bound on any
  tuple-level inference, computed vectorized over the whole ST.
* **worst-case breach probability** — the Theorem 1 adversary's maximum
  posterior over every distinct QI vector in the QIT, computed exactly
  with :class:`~repro.core.privacy.AnatomyAdversary` when the number of
  distinct vectors is at most ``exact_limit``.  Beyond the limit the
  audit reports the max group frequency instead, which is a *provable
  upper bound*: every posterior is a convex combination of group
  distributions, so its maximum never exceeds the per-group maximum.
* **eligibility margin** — how much slack the published release has
  before the l-eligibility condition (no sensitive value on more than
  ``n/l`` tuples, Section 4) would fail: ``1 - l * max_v count(v) / n``,
  in ``[1 - l, 1)``; exactly-eligible data sits at 0, negative would
  mean an ineligible (and therefore impossible-to-anatomize) release.
"""

from __future__ import annotations

import numpy as np

from repro.core.privacy import AnatomyAdversary
from repro.core.tables import AnatomizedTables
from repro.obs import metrics

#: Above this many distinct QI vectors the audit reports the group-level
#: bound instead of running the quadratic exact adversary.
DEFAULT_EXACT_LIMIT = 512

#: Gauge names exported by :func:`record_publication_audit`.
GAUGE_MAX_GROUP_FREQUENCY = "repro_privacy_max_group_frequency"
GAUGE_BREACH_PROBABILITY = "repro_privacy_breach_probability"
GAUGE_BREACH_BOUND = "repro_privacy_breach_bound"
GAUGE_ELIGIBILITY_MARGIN = "repro_privacy_eligibility_margin"
GAUGE_AUDIT_OK = "repro_privacy_audit_ok"


class PrivacyAudit:
    """The audited privacy posture of one published release."""

    __slots__ = ("n", "groups", "l", "bound", "max_group_frequency",
                 "breach_probability", "method", "eligibility_margin",
                 "ok")

    def __init__(self, *, n: int, groups: int, l: int, bound: float,
                 max_group_frequency: float, breach_probability: float,
                 method: str, eligibility_margin: float,
                 ok: bool) -> None:
        self.n = n
        self.groups = groups
        self.l = l
        self.bound = bound
        self.max_group_frequency = max_group_frequency
        self.breach_probability = breach_probability
        self.method = method
        self.eligibility_margin = eligibility_margin
        self.ok = ok

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "groups": self.groups,
            "l": self.l,
            "breach_bound": self.bound,
            "max_group_frequency": self.max_group_frequency,
            "breach_probability": self.breach_probability,
            "method": self.method,
            "eligibility_margin": self.eligibility_margin,
            "ok": self.ok,
        }

    def __repr__(self) -> str:
        return (f"PrivacyAudit(breach={self.breach_probability:.4f} "
                f"<= {self.bound:.4f}: "
                f"{'OK' if self.ok else 'VIOLATED'}, "
                f"method={self.method!r})")


def audit_publication(release: AnatomizedTables, l: int, *,
                      exact_limit: int = DEFAULT_EXACT_LIMIT,
                      ) -> PrivacyAudit:
    """Audit one published QIT/ST pair against the ``1/l`` target.

    Examples
    --------
    >>> from repro.dataset.hospital import hospital_table
    >>> from repro.core.anatomize import anatomize
    >>> audit = audit_publication(anatomize(hospital_table(), l=2), 2)
    >>> audit.ok and audit.breach_probability <= 0.5
    True
    >>> audit.method
    'adversary-exact'
    """
    st = release.st
    max_group_frequency = release.breach_probability_bound()

    # Published-release eligibility margin from the global ST histogram.
    n = release.n
    if n:
        totals = np.bincount(st.sensitive_codes, weights=st.counts)
        eligibility_margin = float(1.0 - l * totals.max() / n)
    else:
        eligibility_margin = 1.0

    distinct = np.unique(release.qit.qi_codes, axis=0) if n else \
        np.empty((0, release.schema.d), dtype=np.int32)
    if 0 < len(distinct) <= exact_limit:
        adversary = AnatomyAdversary(release)
        breach = max(
            max(adversary.posterior(tuple(int(c) for c in row))
                .values())
            for row in distinct)
        method = "adversary-exact"
    else:
        # Provable upper bound: posteriors are convex combinations of
        # group distributions.
        breach = max_group_frequency
        method = "group-bound"

    bound = 1.0 / l
    return PrivacyAudit(
        n=n, groups=st.group_count(), l=l, bound=bound,
        max_group_frequency=max_group_frequency,
        breach_probability=float(breach), method=method,
        eligibility_margin=eligibility_margin,
        ok=breach <= bound + 1e-12)


def record_publication_audit(publication: str, version: int,
                             audit: PrivacyAudit) -> None:
    """Export one release's audit as gauges labelled by publication and
    version (no-op unless a metrics registry is installed)."""
    if not metrics.enabled():
        return
    labels = {"publication": publication, "version": str(version)}
    metrics.set_gauge(GAUGE_MAX_GROUP_FREQUENCY,
                      audit.max_group_frequency, **labels)
    metrics.set_gauge(GAUGE_BREACH_PROBABILITY,
                      audit.breach_probability,
                      method=audit.method, **labels)
    metrics.set_gauge(GAUGE_BREACH_BOUND, audit.bound, **labels)
    metrics.set_gauge(GAUGE_ELIGIBILITY_MARGIN,
                      audit.eligibility_margin, **labels)
    metrics.set_gauge(GAUGE_AUDIT_OK, 1.0 if audit.ok else 0.0,
                      **labels)
