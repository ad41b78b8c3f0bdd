"""Property-based tests for the vectorized query builder.

The contract under test: ``CountQuery.many(schema, specs)`` is
``[CountQuery(schema, *spec) for spec in specs]`` — the same membership
rows, the same fingerprints, bit-identical exact-mode answers from all
three evaluators — and it raises exactly when some spec alone raises,
with the same error class.  Specs mix unconstrained attributes,
duplicate codes, shuffled orders and invalid codes.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query.predicates import CountQuery, query_fingerprint

from tests.properties.test_property_batch import (
    ANA,
    D_S,
    D_X,
    D_Y,
    EXACT,
    GEN,
    TABLE,
)

SCHEMA = TABLE.schema
#: Codes no predicate may accept: out of the domain or not an integer.
INVALID = st.one_of(st.integers(-3, -1), st.integers(max(D_X, D_Y, D_S),
                                                     max(D_X, D_Y, D_S) + 3),
                    st.just(True), st.just(1.0), st.just("1"),
                    st.just(None))


def codes(size):
    """Valid codes with duplicates in any order; rarely an invalid one
    or an empty list."""
    valid = st.lists(st.integers(0, size - 1), min_size=1, max_size=2 * size)
    return st.one_of(valid, valid, valid, valid, valid, valid,
                     st.lists(st.one_of(st.integers(0, size - 1), INVALID),
                              min_size=1, max_size=4),
                     st.just([]))


@st.composite
def specs(draw):
    qi = {}
    for name, size in (("X", D_X), ("Y", D_Y)):
        if draw(st.booleans()):
            qi[name] = draw(codes(size))
    if draw(st.integers(0, 15)) == 0:
        qi[draw(st.sampled_from(["S", "Z"]))] = [0]
    return qi, draw(codes(D_S))


def outcome(build):
    try:
        return build(), None
    except Exception as exc:  # the class is what is compared
        return None, type(exc)


@settings(max_examples=150, deadline=None)
@given(st.lists(specs(), max_size=12))
def test_builder_agrees_with_per_spec_construction(workload):
    batch, batch_error = outcome(lambda: CountQuery.many(SCHEMA, workload))
    singles, errors = [], []
    for spec in workload:
        query, error = outcome(lambda: CountQuery(SCHEMA, *spec))
        singles.append(query)
        if error is not None:
            errors.append(error)
    if errors:
        assert batch_error is errors[0]
        return
    assert batch_error is None
    for q, single, (qi, sensitive) in zip(batch, singles, workload):
        assert np.array_equal(q.row, single.row)
        assert query_fingerprint(q) == query_fingerprint(single)
        # the row holds exactly the accepted code sets
        assert q.qi_predicates == {name: frozenset(c)
                                   for name, c in qi.items()}
        assert q.sensitive_values == frozenset(sensitive)
        canonical = CountQuery(
            SCHEMA, {name: sorted(set(c)) for name, c in qi.items()},
            sorted(set(sensitive)))
        assert query_fingerprint(q) == query_fingerprint(canonical)
    for evaluator in (EXACT, ANA, GEN):
        assert np.array_equal(evaluator.estimate_workload(batch),
                              evaluator.estimate_workload(singles))
        assert [evaluator.estimate(q).hex() for q in batch] \
            == [evaluator.estimate(q).hex() for q in singles]
