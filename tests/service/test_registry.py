"""Unit tests for the publication registry and versioned snapshots."""

import pytest

from repro.exceptions import QueryError, SchemaError, ServiceError
from repro.service.registry import (
    MAX_DOMAIN_SIZE,
    PublicationRegistry,
    schema_from_json,
    schema_to_json,
)

from tests.service.conftest import make_rows


class TestRegistry:
    def test_create_get_drop(self, schema):
        registry = PublicationRegistry()
        created = registry.create("p", schema, l=3)
        assert registry.get("p") is created
        assert "p" in registry and len(registry) == 1
        registry.drop("p")
        assert "p" not in registry

    def test_duplicate_create_rejected(self, schema):
        registry = PublicationRegistry()
        registry.create("p", schema, l=3)
        with pytest.raises(ServiceError, match="already exists"):
            registry.create("p", schema, l=3)

    def test_unknown_lookup_rejected(self, schema):
        registry = PublicationRegistry()
        with pytest.raises(ServiceError, match="unknown publication"):
            registry.get("nope")
        with pytest.raises(ServiceError, match="unknown publication"):
            registry.drop("nope")

    def test_stats_lists_every_publication(self, schema):
        registry = PublicationRegistry()
        registry.create("a", schema, l=3)
        registry.create("b", schema, l=4)
        stats = {s["publication"]: s for s in registry.stats()}
        assert set(stats) == {"a", "b"}
        assert stats["b"]["l"] == 4


class TestPublication:
    def test_version_bumps_only_when_groups_seal(self, schema):
        registry = PublicationRegistry()
        pub = registry.create("p", schema, l=3)
        assert pub.version == 0
        # two rows with duplicate sensitive codes: nothing seals
        result = pub.ingest([(0, 1), (1, 1)])
        assert result["sealed_groups"] == 0 and pub.version == 0
        result = pub.ingest([(2, 2), (3, 3)])
        assert result["sealed_groups"] == 1 and pub.version == 1

    def test_snapshot_shared_per_version(self, schema):
        registry = PublicationRegistry()
        pub = registry.create("p", schema, l=3)
        pub.ingest(make_rows(30))
        first = pub.snapshot()
        assert pub.snapshot() is first  # built once, then shared
        pub.ingest(make_rows(30, start=30))
        second = pub.snapshot()
        assert second is not first
        assert second.version > first.version

    def test_empty_snapshot_before_first_seal(self, schema):
        registry = PublicationRegistry()
        pub = registry.create("p", schema, l=5)
        snap = pub.snapshot()
        assert snap.version == 0
        assert snap.release is None and snap.estimator is None

    def test_old_groups_immutable_across_versions(self, schema):
        registry = PublicationRegistry()
        pub = registry.create("p", schema, l=3)
        pub.ingest(make_rows(40))
        first = pub.snapshot().release
        pub.ingest(make_rows(40, start=40))
        second = pub.snapshot().release
        for gid in range(1, first.st.group_count() + 1):
            assert first.st.group_histogram(gid) \
                == second.st.group_histogram(gid)

    def test_release_at_historical_version(self, schema):
        registry = PublicationRegistry()
        pub = registry.create("p", schema, l=3)
        pub.ingest(make_rows(30))
        v1 = pub.version
        pub.ingest(make_rows(30, start=30))
        historical = pub.release_at(v1)
        assert historical.st.group_count() == v1
        current = pub.snapshot().release
        assert current.st.group_count() == pub.version > v1

    def test_snapshot_answers_match_estimator(self, schema):
        from repro.query.predicates import CountQuery

        registry = PublicationRegistry()
        pub = registry.create("p", schema, l=4)
        pub.ingest(make_rows(100))
        snap = pub.snapshot()
        query = CountQuery(schema, {"A": range(10)}, [0, 1, 2])
        direct = snap.estimator.estimate(query)
        batch = snap.estimator.estimate_workload([query])
        assert batch[0] == direct

    def test_every_version_is_l_diverse(self, schema):
        registry = PublicationRegistry()
        pub = registry.create("p", schema, l=4)
        pub.ingest(make_rows(60))
        pub.ingest(make_rows(60, start=60))
        for version in range(1, pub.version + 1):
            release = pub.release_at(version)
            assert release.partition.is_l_diverse(4)
            assert release.breach_probability_bound() <= 0.25 + 1e-12


class TestSchemaJson:
    def test_roundtrip(self, schema):
        spec = schema_to_json(schema)
        rebuilt = schema_from_json(spec)
        assert rebuilt == schema

    def test_size_shorthand(self):
        spec = {"qi": [{"name": "A", "size": 5}],
                "sensitive": {"name": "S", "size": 3}}
        schema = schema_from_json(spec)
        assert schema.attribute("A").size == 5
        assert schema.sensitive.size == 3

    @pytest.mark.parametrize("spec", [
        [],
        {},
        {"qi": [], "sensitive": {"name": "S", "size": 3}},
        {"qi": [{"name": "A"}], "sensitive": {"name": "S", "size": 3}},
        {"qi": [{"size": 5}], "sensitive": {"name": "S", "size": 3}},
        {"qi": "A", "sensitive": {"name": "S", "size": 3}},
        {"qi": [{"name": "A", "size": 5}], "sensitive": {"name": "S"}},
        *[{"qi": [dict(name="A", **attr)],
           "sensitive": {"name": "S", "size": 3}} for attr in [
            {"size": "x"},
            {"size": True},
            {"size": 2.9},
            {"size": 0},
            {"size": MAX_DOMAIN_SIZE + 1},
            {"values": 5},
            {"values": [[1], [2]]},
            {"values": list(range(MAX_DOMAIN_SIZE + 1))},
            {"size": 5, "kind": "bogus"},
        ]],
    ])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(SchemaError):
            schema_from_json(spec)

    def test_largest_domain_accepted(self):
        spec = {"qi": [{"name": "A", "size": MAX_DOMAIN_SIZE}],
                "sensitive": {"name": "S", "values": ["x", 1, 2.5]}}
        schema = schema_from_json(spec)
        assert schema.attribute("A").size == MAX_DOMAIN_SIZE
        assert schema.sensitive.values == ("x", 1, 2.5)
