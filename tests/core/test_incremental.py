"""Unit tests for incremental anatomization."""

import numpy as np
import pytest

from repro.core.incremental import IncrementalAnatomizer
from repro.dataset.hospital import HOSPITAL_ROWS, hospital_schema
from repro.dataset.schema import Attribute, Schema
from repro.exceptions import ReproError, SchemaError


@pytest.fixture()
def schema():
    return Schema([Attribute("A", range(50))],
                  Attribute("S", range(20)))


def rows_for(schema, sens_codes, start=0):
    return [((start + i) % 50, s) for i, s in enumerate(sens_codes)]


class TestIngestion:
    def test_groups_seal_when_l_distinct_values_arrive(self, schema):
        inc = IncrementalAnatomizer(schema, l=3)
        assert inc.insert_codes(rows_for(schema, [0, 0, 1])) == 0
        assert inc.buffered_count == 3
        sealed = inc.insert_codes(rows_for(schema, [2]))
        assert sealed == 1
        assert inc.published_tuple_count == 3
        assert inc.buffered_count == 1  # the duplicate 0 waits

    def test_bad_arity_rejected(self, schema):
        inc = IncrementalAnatomizer(schema, l=2)
        with pytest.raises(SchemaError):
            inc.insert_codes([(1, 2, 3)])

    def test_out_of_domain_rejected(self, schema):
        inc = IncrementalAnatomizer(schema, l=2)
        with pytest.raises(SchemaError):
            inc.insert_codes([(99, 0)])

    @pytest.mark.parametrize("bad_row", [
        (0, 99), (1,), ("x", 1), (None, 1), (1.7, 1), (True, 1),
        (np.bool_(True), 1), (1.0, 1), (2**70, 1), (-1, 1)],
        ids=["domain", "arity", "str", "none", "float", "bool",
             "numpy-bool", "integral-float", "huge", "negative"])
    def test_rejected_batch_is_all_or_nothing(self, schema, bad_row):
        """A batch with one bad row buffers none of its rows: the
        version and buffered count stay put, and a later valid batch
        does not publish the rejected batch's good rows."""
        inc = IncrementalAnatomizer(schema, l=2)
        inc.insert_codes([(0, 1)])
        with pytest.raises(SchemaError):
            inc.insert_codes([(1, 1), (2, 2), bad_row])
        assert (inc.version, inc.buffered_count) == (0, 1)
        assert inc.insert_codes([(3, 2)]) == 1
        assert inc.microdata().code_matrix().tolist() in (
            [[0, 1], [3, 2]], [[3, 2], [0, 1]])

    def test_numpy_integer_codes_buffer_as_python_ints(self, schema):
        inc = IncrementalAnatomizer(schema, l=3)
        inc.insert_codes([(np.int64(4), np.int32(1)), [5, np.uint8(2)]])
        rows = [row for bucket in inc._buffer.values() for row in bucket]
        assert rows == [(4, 1), (5, 2)]
        assert all(type(code) is int for row in rows for code in row)

    def test_insert_rows_decoded(self):
        inc = IncrementalAnatomizer(hospital_schema(), l=2)
        inc.insert_rows(HOSPITAL_ROWS[:2])
        assert inc.published_tuple_count == 2

    def test_insert_table(self, hospital):
        inc = IncrementalAnatomizer(hospital.schema, l=2)
        inc.insert_table(hospital)
        assert inc.published_tuple_count + inc.buffered_count == 8

    def test_invalid_l(self, schema):
        with pytest.raises(ReproError):
            IncrementalAnatomizer(schema, l=0)


class TestGolden:
    def test_tied_buckets_seal_in_arrival_order(self, schema):
        """A fixed seed and batch sequence give fixed sealed groups.
        Equal bucket sizes are broken by first arrival: the second
        group takes its 4 before its 2."""
        inc = IncrementalAnatomizer(schema, l=3, seed=5)
        batches = [[4, 2, 4, 2, 7], [9, 9, 2, 4, 1],
                   [7, 7, 3, 3, 9, 1, 1], [5, 6, 5, 6, 8, 8, 2, 2]]
        trace, start = [], 0
        for batch in batches:
            sealed = inc.insert_codes(rows_for(schema, batch, start))
            start += len(batch)
            trace.append((sealed, inc.version, inc.buffered_count))
        assert trace == [(1, 1, 2), (2, 3, 1), (2, 5, 2), (3, 8, 1)]
        assert inc._groups == [
            [(2, 4), (3, 2), (4, 7)], [(0, 4), (7, 2), (5, 9)],
            [(8, 4), (1, 2), (6, 9)], [(15, 1), (11, 7), (12, 3)],
            [(16, 1), (10, 7), (14, 9)], [(23, 2), (17, 5), (18, 6)],
            [(22, 8), (24, 2), (9, 1)], [(13, 3), (19, 5), (20, 6)]]
        assert inc.buffered_histogram() == {8: 1}


class TestPublication:
    def test_publish_before_any_group_raises(self, schema):
        inc = IncrementalAnatomizer(schema, l=3)
        inc.insert_codes(rows_for(schema, [0, 1]))
        with pytest.raises(ReproError, match="nothing to publish"):
            inc.publish()

    def test_release_is_l_diverse(self, schema):
        rng = np.random.default_rng(0)
        inc = IncrementalAnatomizer(schema, l=4)
        inc.insert_codes(rows_for(schema,
                                  list(rng.integers(0, 20, 200))))
        published = inc.publish()
        assert published.partition.is_l_diverse(4)
        assert published.breach_probability_bound() <= 0.25 + 1e-12

    def test_all_groups_exactly_l_distinct(self, schema):
        rng = np.random.default_rng(1)
        inc = IncrementalAnatomizer(schema, l=5)
        inc.insert_codes(rows_for(schema,
                                  list(rng.integers(0, 20, 300))))
        published = inc.publish()
        for gid in range(1, published.st.group_count() + 1):
            hist = published.st.group_histogram(gid)
            assert sum(hist.values()) == 5
            assert all(c == 1 for c in hist.values())

    def test_group_ids_stable_across_releases(self, schema):
        """The privacy-critical invariant: a sealed group is identical
        in every later release."""
        rng = np.random.default_rng(2)
        inc = IncrementalAnatomizer(schema, l=3)
        inc.insert_codes(rows_for(schema,
                                  list(rng.integers(0, 20, 60))))
        first = inc.publish()
        inc.insert_codes(rows_for(schema,
                                  list(rng.integers(0, 20, 60)),
                                  start=7))
        second = inc.publish()
        assert second.st.group_count() >= first.st.group_count()
        for gid in range(1, first.st.group_count() + 1):
            assert first.st.group_histogram(gid) \
                == second.st.group_histogram(gid)
            first_rows = first.qit.rows_of_group(gid)
            second_rows = second.qit.rows_of_group(gid)
            assert np.array_equal(
                first.qit.qi_codes[first_rows],
                second.qit.qi_codes[second_rows])

    def test_buffer_bounded_by_skew(self, schema):
        """With l distinct values arriving in rotation the buffer never
        holds more than a bucket's worth of duplicates."""
        inc = IncrementalAnatomizer(schema, l=4)
        inc.insert_codes(rows_for(schema, [0, 1, 2, 3] * 25))
        assert inc.buffered_count == 0
        assert inc.group_count == 25

    def test_flush_report(self, schema):
        inc = IncrementalAnatomizer(schema, l=5)
        inc.insert_codes(rows_for(schema, [0, 0, 1, 2]))
        report = inc.flush_report()
        assert report["buffered"] == 4
        assert report["distinct_values_waiting"] == 3
        assert report["needed_distinct_values"] == 5


class TestVersioning:
    def test_version_starts_at_zero_and_tracks_groups(self, schema):
        inc = IncrementalAnatomizer(schema, l=3)
        assert inc.version == 0
        inc.insert_codes(rows_for(schema, [0, 1]))
        assert inc.version == 0  # buffered only, release unchanged
        inc.insert_codes(rows_for(schema, [2]))
        assert inc.version == 1 == inc.group_count

    def test_version_monotonic_across_inserts(self, schema):
        rng = np.random.default_rng(3)
        inc = IncrementalAnatomizer(schema, l=4)
        seen = [inc.version]
        for _ in range(10):
            inc.insert_codes(rows_for(schema,
                                      list(rng.integers(0, 20, 25))))
            seen.append(inc.version)
        assert seen == sorted(seen)
        assert seen[-1] == inc.group_count

    def test_publish_is_side_effect_free_snapshot(self, schema):
        inc = IncrementalAnatomizer(schema, l=3)
        inc.insert_codes(rows_for(schema, [0, 1, 2, 3, 4, 5]))
        first = inc.publish()
        repeat = inc.publish()  # a new, equal release; no state change
        assert inc.version == 2
        assert [repeat.st.group_histogram(g) for g in (1, 2)] \
            == [first.st.group_histogram(g) for g in (1, 2)]
        inc.insert_codes(rows_for(schema, [6, 7, 8]))
        second = inc.publish()
        assert second is not first
        assert second.st.group_count() > first.st.group_count()
        # the old snapshot object is untouched by the new release
        assert first.st.group_count() == 2

    def test_publish_at_historical_version(self, schema):
        rng = np.random.default_rng(4)
        inc = IncrementalAnatomizer(schema, l=3)
        inc.insert_codes(rows_for(schema,
                                  list(rng.integers(0, 20, 60))))
        v1 = inc.version
        release_v1 = inc.publish()
        inc.insert_codes(rows_for(schema,
                                  list(rng.integers(0, 20, 60))))
        historical = inc.publish(at_version=v1)
        assert historical.st.group_count() == v1
        for gid in range(1, v1 + 1):
            assert historical.st.group_histogram(gid) \
                == release_v1.st.group_histogram(gid)
        # current-version publish still reflects every sealed group
        assert inc.publish().st.group_count() == inc.version

    def test_publish_at_bad_version_raises(self, schema):
        inc = IncrementalAnatomizer(schema, l=3)
        inc.insert_codes(rows_for(schema, [0, 1, 2]))
        for bad in (0, -1, inc.version + 1):
            with pytest.raises(ReproError):
                inc.publish(at_version=bad)


class TestEquivalenceWithBatch:
    def test_same_privacy_as_batch_anatomize(self, occ3):
        """Streaming the whole census view yields the same guarantee
        (and nearly the same RCE) as the batch algorithm."""
        from repro.core.rce import anatomy_rce, rce_lower_bound
        inc = IncrementalAnatomizer(occ3.schema, l=10, seed=0)
        # stream in chunks, as a registry would
        rows = list(occ3.iter_rows())
        for i in range(0, len(rows), 500):
            inc.insert_codes(rows[i:i + 500])
        published = inc.publish()
        assert published.partition.is_l_diverse(10)
        n_pub = published.n
        rce = anatomy_rce(published.partition)
        # sealed groups are exactly size-l all-distinct -> per-tuple
        # error 1 - 1/l, the Theorem 2 optimum
        assert rce == pytest.approx(rce_lower_bound(n_pub, 10))
        # almost everything gets published
        assert inc.buffered_count < 100
