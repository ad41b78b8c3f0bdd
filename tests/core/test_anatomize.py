"""Unit tests for the Anatomize algorithm (Figure 3, Properties 1-3)."""

import numpy as np
import pytest

from repro.core.anatomize import (
    _BucketHeap,
    anatomize,
    anatomize_partition,
)
from repro.core.rce import anatomize_rce_formula, anatomy_rce
from repro.dataset.schema import Attribute, Schema
from repro.dataset.table import Table
from repro.exceptions import EligibilityError

from tests.conftest import make_balanced_table


def make_table(sensitive_codes, seed=0):
    schema = Schema([Attribute("A", range(100))],
                    Attribute("S", range(60)))
    n = len(sensitive_codes)
    rng = np.random.default_rng(seed)
    return Table(schema, {
        "A": rng.integers(0, 100, size=n).astype(np.int32),
        "S": np.asarray(sensitive_codes, dtype=np.int32),
    })


class TestPartitionStructure:
    def test_paper_property_3_distinct_values(self, occ3):
        """Every group's tuples have pairwise distinct sensitive values
        (Property 3)."""
        partition = anatomize_partition(occ3, l=10, seed=0)
        for group in partition:
            codes = group.sensitive_codes()
            assert len(np.unique(codes)) == len(codes)

    def test_group_sizes_l_or_l_plus_one(self, occ3):
        partition = anatomize_partition(occ3, l=10, seed=0)
        assert all(g.size in (10, 11) for g in partition)

    def test_group_count_floor_n_over_l(self, occ3):
        partition = anatomize_partition(occ3, l=10, seed=0)
        assert partition.m == len(occ3) // 10

    def test_result_is_l_diverse(self, occ3):
        partition = anatomize_partition(occ3, l=10, seed=0)
        assert partition.is_l_diverse(10)

    def test_partition_covers_table(self, occ3):
        partition = anatomize_partition(occ3, l=10, seed=0)
        all_rows = np.sort(np.concatenate(
            [g.indices for g in partition]))
        assert np.array_equal(all_rows, np.arange(len(occ3)))

    def test_exact_multiple_no_residues(self):
        """n divisible by l -> every group has exactly l tuples."""
        table = make_table([0, 1, 2, 3] * 5)  # n=20, l=4
        partition = anatomize_partition(table, l=4, seed=1)
        assert all(g.size == 4 for g in partition)
        assert partition.m == 5

    def test_residues_distributed(self):
        """n = 11, l = 2: 5 groups, one of size 3."""
        table = make_table([0, 1] * 5 + [2])
        partition = anatomize_partition(table, l=2, seed=1)
        sizes = sorted(g.size for g in partition)
        assert sizes == [2, 2, 2, 2, 3]

    def test_seed_determinism(self, occ3):
        p1 = anatomize_partition(occ3, l=10, seed=123)
        p2 = anatomize_partition(occ3, l=10, seed=123)
        for g1, g2 in zip(p1, p2):
            assert np.array_equal(g1.indices, g2.indices)

    def test_different_seeds_differ(self, occ3):
        p1 = anatomize_partition(occ3, l=10, seed=1)
        p2 = anatomize_partition(occ3, l=10, seed=2)
        assert any(not np.array_equal(g1.indices, g2.indices)
                   for g1, g2 in zip(p1, p2))

    def test_ineligible_table_rejected(self):
        table = make_table([0] * 10 + [1])
        with pytest.raises(EligibilityError):
            anatomize_partition(table, l=2)

    def test_boundary_eligibility_accepted(self):
        """Exactly n/l copies of one value is still eligible."""
        table = make_table([0] * 5 + [1, 2, 3, 4, 5])  # n=10, l=2
        partition = anatomize_partition(table, l=2, seed=0)
        assert partition.is_l_diverse(2)

    def test_l_equals_1(self):
        table = make_table([0, 0, 0, 0])
        partition = anatomize_partition(table, l=1, seed=0)
        assert partition.m == 4
        assert all(g.size == 1 for g in partition)

    def test_l_equals_n(self):
        table = make_table(list(range(6)))
        partition = anatomize_partition(table, l=6, seed=0)
        assert partition.m == 1
        assert partition[0].size == 6

    def test_skewed_but_eligible_distribution(self):
        """Heavily skewed sensitive values at the eligibility edge."""
        codes = [0] * 25 + [1] * 25 + list(range(2, 52))  # n=100, l=4
        table = make_table(codes)
        partition = anatomize_partition(table, l=4, seed=0)
        assert partition.is_l_diverse(4)

    def test_none_seed_runs(self, occ3):
        partition = anatomize_partition(occ3, l=10, seed=None)
        assert partition.is_l_diverse(10)

    def test_achieves_theorem4_rce(self):
        """The algorithm's RCE matches the Theorem 4 closed form for
        balanced inputs (both divisible and non-divisible n)."""
        for n, l in [(20, 4), (23, 4), (60, 5), (61, 5)]:
            codes = list(np.resize(np.arange(l + 3), n))
            table = make_table(codes)
            partition = anatomize_partition(table, l=l, seed=0)
            assert anatomy_rce(partition) == pytest.approx(
                anatomize_rce_formula(n, l))

    def test_signature_has_no_method(self, balanced_table):
        with pytest.raises(TypeError):
            anatomize_partition(balanced_table, 5, method="heap")
        with pytest.raises(TypeError):
            anatomize(balanced_table, 5, method="heap")


class TestPublication:
    def test_qit_row_count(self, occ3_published, occ3):
        assert occ3_published.qit.n == len(occ3)

    def test_st_counts_sum_to_n(self, occ3_published, occ3):
        assert int(occ3_published.st.counts.sum()) == len(occ3)

    def test_breach_bound_at_most_1_over_l(self, occ3_published):
        assert occ3_published.breach_probability_bound() <= 0.1 + 1e-12

    def test_partition_attached(self, occ3_published):
        assert occ3_published.partition is not None
        assert occ3_published.partition.is_l_diverse(10)

    def test_qit_preserves_qi_multiset(self, occ3):
        """The QIT holds exactly the microdata's QI rows (as a
        multiset)."""
        published = anatomize(occ3, l=10, seed=0)
        original = sorted(map(tuple, occ3.qi_matrix().tolist()))
        published_rows = sorted(map(tuple,
                                    published.qit.qi_codes.tolist()))
        assert original == published_rows

    def test_balanced_table(self, balanced_table):
        published = anatomize(balanced_table, l=5, seed=0)
        assert published.partition.is_l_diverse(5)
        assert all(g.size == 5 for g in published.partition)


class TestBucketHeapBehaviour:
    def test_largest_bucket_priority_leaves_few_residues(self):
        """With a worst-case-eligible distribution, group creation must
        still terminate with < l residues (Property 1); residue
        assignment absorbs them."""
        schema = Schema([Attribute("A", range(10))],
                        Attribute("S", range(30)))
        # one value with exactly n/l copies plus a long tail
        n, l = 60, 3
        codes = [0] * 20 + [1] * 20 + list(np.resize(np.arange(2, 30),
                                                     20))
        table = Table(schema, {
            "A": np.zeros(n, dtype=np.int32),
            "S": np.asarray(codes, dtype=np.int32)})
        partition = anatomize_partition(table, l=l, seed=4)
        assert partition.is_l_diverse(l)
        assert sum(g.size for g in partition) == n

    def test_nonempty_count_maintained_incrementally(self):
        """The heap's non-empty count must track decrements exactly (it
        is read every loop iteration, so it is kept as a counter rather
        than recounted)."""
        heap = _BucketHeap({0: 3, 1: 2, 2: 1, 3: 0})
        assert heap.nonempty_count == 3
        heap.pop_largest(2)          # sizes: 2, 1, 1
        assert heap.nonempty_count == 3
        heap.pop_largest(3)          # sizes: 1, 0, 0
        assert heap.nonempty_count == 1
        heap.pop_largest(1)          # sizes: 0
        assert heap.nonempty_count == 0
        assert heap.size(0) == 0

    def test_equal_sizes_pop_in_mapping_order(self):
        """Ties between equal sizes go to the bucket that comes first in
        the mapping's iteration order (ascending codes, as
        ``anatomize`` builds it)."""
        heap = _BucketHeap({0: 2, 1: 1, 2: 2, 3: 2, 4: 1})
        assert heap.pop_largest(2) == [0, 2]     # sizes: 1, 1, 1, 2, 1
        assert heap.pop_largest(3) == [3, 0, 1]  # sizes: 0, 0, 1, 1, 1
        assert heap.pop_largest(3) == [2, 3, 4]
        assert heap.nonempty_count == 0

    def test_ties_follow_mapping_order_not_code_order(self):
        """The incremental anatomizer hands the heap its buffer in
        first-arrival order, so ties must not fall back to codes."""
        heap = _BucketHeap({7: 2, 3: 2, 5: 2, 1: 1, 9: 2})
        assert heap.pop_largest(2) == [7, 3]     # sizes: 1, 1, 2, 1, 2
        assert heap.pop_largest(3) == [5, 9, 7]  # sizes: 0, 1, 1, 1, 1
        assert heap.pop_largest(4) == [3, 5, 1, 9]
        assert heap.nonempty_count == 0


class TestFastVsHeap:
    """Figure 3 on a grid of ``(n, l)`` cases where the group-size
    multiset is forced."""

    # (n, l) pairs with every sensitive count <= m - r, so residues can
    # always spread to distinct groups and the size multiset is forced
    # to {l+1: r, l: m-r} for any valid run.
    CASES = [(20, 4), (23, 3), (57, 5), (60, 3), (61, 5), (100, 10)]

    @staticmethod
    def _table(n, values=12, seed=0):
        return make_table(list(np.resize(np.arange(values), n)),
                          seed=seed)

    @pytest.mark.parametrize("n,l", CASES)
    def test_same_group_size_multiset(self, n, l):
        partition = anatomize_partition(self._table(n), l, seed=9)
        r = n % l
        sizes = sorted(g.size for g in partition)
        assert sizes.count(l + 1) == r
        assert sizes.count(l) == n // l - r

    @pytest.mark.parametrize("n,l", CASES)
    def test_both_methods_property_3(self, n, l):
        partition = anatomize_partition(self._table(n), l, seed=2)
        assert partition.is_l_diverse(l)
        assert partition.m == n // l
        for g in partition:
            codes = g.sensitive_codes()
            assert len(np.unique(codes)) == len(codes)
        rows = np.sort(np.concatenate([g.indices for g in partition]))
        assert np.array_equal(rows, np.arange(n))


def test_make_balanced_table_helper(tiny_schema):
    t = make_balanced_table(tiny_schema, 25, seed=0)
    hist = t.sensitive_histogram()
    assert sum(hist.values()) == 25
    assert max(hist.values()) - min(hist.values()) <= 1
