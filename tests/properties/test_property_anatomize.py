"""Property-based tests for Anatomize (Figure 3) over random microdata.

Hypothesis generates arbitrary eligible tables; the properties are the
paper's Properties 1-3, Corollary 1, and Theorem 4 — they must hold for
*every* input, not just the fixtures.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.anatomize import anatomize, anatomize_partition
from repro.core.diversity import max_feasible_l
from repro.core.incremental import IncrementalAnatomizer
from repro.core.privacy import verify_tuple_level_guarantee
from repro.core.rce import (
    anatomize_rce_formula,
    anatomy_rce,
    rce_lower_bound,
)
from repro.dataset.schema import Attribute, Schema
from repro.dataset.table import Table
from repro.exceptions import EligibilityError


def build_table(sensitive_codes: list[int]) -> Table:
    schema = Schema([Attribute("A", range(32))],
                    Attribute("S", range(32)))
    n = len(sensitive_codes)
    rng = np.random.default_rng(n)  # deterministic per size
    return Table(schema, {
        "A": rng.integers(0, 32, n).astype(np.int32),
        "S": np.asarray(sensitive_codes, dtype=np.int32),
    })


# A strategy for (sensitive codes, l) pairs where l is feasible.
@st.composite
def eligible_instance(draw):
    n = draw(st.integers(min_value=4, max_value=120))
    codes = draw(st.lists(st.integers(min_value=0, max_value=31),
                          min_size=n, max_size=n))
    table = build_table(codes)
    feasible = int(max_feasible_l(table))
    if feasible < 2:
        l = 1
    else:
        l = draw(st.integers(min_value=2, max_value=min(feasible, 10)))
    return codes, l


@settings(max_examples=60, deadline=None)
@given(eligible_instance())
def test_partition_structure_properties(instance):
    codes, l = instance
    table = build_table(codes)
    partition = anatomize_partition(table, l, seed=0)

    # Disjoint cover of the table.
    rows = np.sort(np.concatenate([g.indices for g in partition]))
    assert np.array_equal(rows, np.arange(len(table)))

    # floor(n/l) groups, each of size >= l; the residues (n mod l of
    # them) are distributed among groups, possibly several to one group.
    assert partition.m == len(table) // l
    assert all(g.size >= l for g in partition)
    assert sum(g.size - l for g in partition) == len(table) % l

    # Property 3: distinct sensitive values per group.
    for g in partition:
        values = g.sensitive_codes()
        assert len(np.unique(values)) == len(values)

    # Definition 2 holds.
    assert partition.is_l_diverse(l)


@settings(max_examples=60, deadline=None)
@given(eligible_instance())
def test_theorem_4_rce_exact(instance):
    codes, l = instance
    table = build_table(codes)
    partition = anatomize_partition(table, l, seed=0)
    measured = anatomy_rce(partition)
    assert measured == pytest.approx(anatomize_rce_formula(len(table), l))
    assert measured >= rce_lower_bound(len(table), l) - 1e-9


@settings(max_examples=40, deadline=None)
@given(eligible_instance())
def test_corollary_1_breach_bound(instance):
    codes, l = instance
    table = build_table(codes)
    published = anatomize(table, l, seed=0)
    assert published.breach_probability_bound() <= 1.0 / l + 1e-12
    assert verify_tuple_level_guarantee(published, l)


def loop_breach_bound(published) -> float:
    """Corollary 1 as one Python pass over the groups' distributions:
    the reference the vectorized bound must match bit for bit."""
    worst = 0.0
    for gid in range(1, published.st.group_count() + 1):
        worst = max(worst,
                    max(published.st.group_distribution(gid).values()))
    return worst


@settings(max_examples=40, deadline=None)
@given(eligible_instance())
def test_breach_bound_matches_group_loop(instance):
    codes, l = instance
    published = anatomize(build_table(codes), l, seed=0)
    assert published.breach_probability_bound() == \
        loop_breach_bound(published)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=31), max_size=120),
       st.integers(min_value=2, max_value=6))
def test_incremental_breach_bound_matches_group_loop(codes, l):
    schema = build_table([]).schema
    inc = IncrementalAnatomizer(schema, l=l, seed=0)
    inc.insert_codes([(i % 32, c) for i, c in enumerate(codes)])
    for version in range(1, inc.version + 1):
        published = inc.publish(at_version=version)
        assert published.breach_probability_bound() == \
            loop_breach_bound(published)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=3),
                min_size=5, max_size=60),
       st.integers(min_value=2, max_value=10))
def test_ineligible_inputs_always_rejected(codes, l):
    """Whenever the eligibility condition fails, Anatomize must raise
    EligibilityError — never return a weaker partition."""
    table = build_table(codes)
    feasible = max_feasible_l(table)
    if l > feasible or l > len(table):
        with pytest.raises(EligibilityError):
            anatomize_partition(table, l, seed=0)
    else:
        partition = anatomize_partition(table, l, seed=0)
        assert partition.is_l_diverse(l)


@settings(max_examples=30, deadline=None)
@given(eligible_instance(), st.integers(min_value=0, max_value=2**16))
def test_privacy_independent_of_seed(instance, seed):
    """The privacy guarantee may not depend on the algorithm's random
    choices."""
    codes, l = instance
    table = build_table(codes)
    partition = anatomize_partition(table, l, seed=seed)
    assert partition.is_l_diverse(l)
