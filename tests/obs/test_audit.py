"""Unit tests for the privacy-audit telemetry layer."""

import pytest

from repro.core.anatomize import anatomize
from repro.dataset.hospital import hospital_schema, hospital_table
from repro.obs import metrics
from repro.obs.audit import (
    GAUGE_AUDIT_OK,
    GAUGE_BREACH_BOUND,
    GAUGE_BREACH_PROBABILITY,
    GAUGE_ELIGIBILITY_MARGIN,
    GAUGE_MAX_GROUP_FREQUENCY,
    audit_publication,
    record_publication_audit,
)
from repro.obs.metrics import MetricsRegistry


@pytest.fixture()
def registry():
    registry = MetricsRegistry()
    previous = metrics.set_registry(registry)
    yield registry
    metrics.set_registry(previous)


class TestAuditPublication:
    def test_hospital_release_respects_the_theorem_1_bound(self):
        release = anatomize(hospital_table(), l=2)
        audit = audit_publication(release, 2)
        assert audit.ok
        assert audit.bound == 0.5
        assert audit.breach_probability <= 0.5 + 1e-12
        assert audit.method == "adversary-exact"
        assert audit.n == 8 and audit.groups == 4 and audit.l == 2
        assert 0.0 <= audit.eligibility_margin < 1.0

    def test_max_group_frequency_matches_corollary_bound(
            self, occ3_published):
        audit = audit_publication(occ3_published, 10)
        # each group has l distinct sensitive values, one tuple each
        # unless merged into the remainder group, so the Corollary 1
        # bound can never exceed 1/l and never fall below 1/(2l-1)
        assert 1.0 / 19 <= audit.max_group_frequency <= 0.1 + 1e-12
        assert audit.ok

    def test_exact_limit_forces_group_bound_fallback(self):
        release = anatomize(hospital_table(), l=2)
        exact = audit_publication(release, 2)
        fallback = audit_publication(release, 2, exact_limit=0)
        assert fallback.method == "group-bound"
        assert fallback.breach_probability == \
            fallback.max_group_frequency
        # the group bound provably dominates the exact adversary
        assert fallback.breach_probability >= \
            exact.breach_probability - 1e-12
        assert fallback.ok

    def test_empty_release_audits_clean(self):
        import numpy as np

        from repro.core.tables import (
            AnatomizedTables,
            QuasiIdentifierTable,
            SensitiveTable,
        )

        schema = hospital_schema()
        release = AnatomizedTables(
            schema,
            QuasiIdentifierTable(
                schema,
                np.empty((0, schema.d), dtype=np.int32),
                np.empty(0, dtype=np.int32)),
            SensitiveTable(
                schema,
                np.empty(0, dtype=np.int32),
                np.empty(0, dtype=np.int32),
                np.empty(0, dtype=np.int64)))
        audit = audit_publication(release, 2)
        assert audit.n == 0 and audit.groups == 0
        assert audit.breach_probability == 0.0
        assert audit.eligibility_margin == 1.0
        assert audit.ok

    def test_to_json_round_trip(self):
        audit = audit_publication(anatomize(hospital_table(), l=2), 2)
        doc = audit.to_json()
        assert doc["ok"] is True
        assert doc["breach_bound"] == 0.5
        assert set(doc) == {"n", "groups", "l", "breach_bound",
                            "max_group_frequency",
                            "breach_probability", "method",
                            "eligibility_margin", "ok"}


class TestRecordPublicationAudit:
    def test_gauges_labelled_by_publication_and_version(self, registry):
        audit = audit_publication(anatomize(hospital_table(), l=2), 2)
        record_publication_audit("hospital", 3, audit)
        doc = registry.to_json()
        labels = "hospital,3"
        assert doc[GAUGE_BREACH_BOUND]["values"][labels] == 0.5
        assert doc[GAUGE_AUDIT_OK]["values"][labels] == 1.0
        assert doc[GAUGE_MAX_GROUP_FREQUENCY]["values"][labels] == \
            audit.max_group_frequency
        assert doc[GAUGE_ELIGIBILITY_MARGIN]["values"][labels] == \
            audit.eligibility_margin
        # breach probability carries the method as an extra label
        assert doc[GAUGE_BREACH_PROBABILITY]["values"][
            "adversary-exact,hospital,3"] == audit.breach_probability

    def test_versions_accumulate_as_separate_series(self, registry):
        audit = audit_publication(anatomize(hospital_table(), l=2), 2)
        record_publication_audit("p", 1, audit)
        record_publication_audit("p", 2, audit)
        values = registry.to_json()[GAUGE_AUDIT_OK]["values"]
        assert set(values) == {"p,1", "p,2"}

    def test_noop_without_an_installed_registry(self):
        assert not metrics.enabled()
        audit = audit_publication(anatomize(hospital_table(), l=2), 2)
        record_publication_audit("p", 1, audit)  # must not raise


class TestAuditScope:
    """``repro_privacy_audit_ok`` certifies Theorem 1 on the release and
    nothing more (see docs/THEORY.md, "What the privacy audit does not
    cover")."""

    def test_ingesting_adversary_learns_the_victims_value(self):
        from repro.core.incremental import IncrementalAnatomizer
        from repro.core.privacy import AnatomyAdversary

        schema = hospital_schema()
        disease = schema.sensitive
        inc = IncrementalAnatomizer(schema, l=3)
        # The attacker inserts two rows whose diseases it chose ...
        planted = [(30, "M", 12000, "flu"), (31, "F", 13000, "dyspepsia")]
        assert inc.insert_rows(planted) == 0
        # ... and the victim's next row seals the group with them.
        victim = (65, "F", 25000, "pneumonia")
        assert inc.insert_rows([victim]) == 1
        release = inc.publish()

        # The release is 3-diverse and the audit passes ...
        audit = audit_publication(release, 3)
        assert audit.ok and audit.breach_probability <= 1 / 3 + 1e-12
        assert release.breach_probability_bound() == pytest.approx(1 / 3)
        victim_qi = tuple(a.encode(v)
                          for a, v in zip(schema.qi_attributes, victim))
        posterior = AnatomyAdversary(release).posterior(victim_qi)
        assert max(posterior.values()) == pytest.approx(1 / 3)

        # ... yet the ST minus the planted values leaves exactly one
        # disease: the victim's, with certainty.
        group, = set(release.qit.group_ids.tolist())
        histogram = release.st.group_histogram(group)
        for row in planted:
            histogram[disease.encode(row[-1])] -= 1
        left = [code for code, count in histogram.items() if count]
        assert [disease.decode(code) for code in left] == ["pneumonia"]
