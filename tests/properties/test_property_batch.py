"""Property-based tests for the batch query engine.

The contract under test: for *any* workload, ``estimate_workload``
returns bit for bit what the per-query ``estimate`` loop returns, for
all three evaluators.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.anatomize import anatomize
from repro.dataset.schema import Attribute, Schema
from repro.dataset.table import Table
from repro.generalization.mondrian import mondrian
from repro.query.estimators import (
    AnatomyEstimator,
    ExactEvaluator,
    GeneralizationEstimator,
)
from repro.query.predicates import CountQuery

D_X, D_Y, D_S = 12, 8, 6


def build_table(n, seed):
    schema = Schema(
        [Attribute("X", range(D_X)), Attribute("Y", range(D_Y))],
        Attribute("S", range(D_S)),
    )
    rng = np.random.default_rng(seed)
    return Table(schema, {
        "X": rng.integers(0, D_X, n).astype(np.int32),
        "Y": rng.integers(0, D_Y, n).astype(np.int32),
        "S": np.resize(np.arange(D_S), n).astype(np.int32),
    })


@st.composite
def query_strategy(draw, schema):
    x_codes = draw(st.sets(st.integers(0, D_X - 1), min_size=1,
                           max_size=D_X))
    y_codes = draw(st.sets(st.integers(0, D_Y - 1), min_size=1,
                           max_size=D_Y))
    s_codes = draw(st.sets(st.integers(0, D_S - 1), min_size=1,
                           max_size=D_S))
    predicates = {}
    if draw(st.booleans()):
        predicates["X"] = x_codes
    if draw(st.booleans()):
        predicates["Y"] = y_codes
    return CountQuery(schema, predicates, s_codes)


TABLE = build_table(240, seed=1)
PUBLISHED = anatomize(TABLE, l=3, seed=0)
GENERALIZED = mondrian(TABLE, l=3)
EXACT = ExactEvaluator(TABLE)
ANA = AnatomyEstimator(PUBLISHED)
GEN = GeneralizationEstimator(GENERALIZED)


@settings(max_examples=60, deadline=None)
@given(st.lists(query_strategy(TABLE.schema), min_size=1, max_size=24))
def test_batch_exact_mode_is_bit_identical(workload):
    for evaluator in (EXACT, ANA, GEN):
        reference = np.array([evaluator.estimate(q) for q in workload])
        batch = evaluator.estimate_workload(workload)
        assert np.array_equal(batch, reference)


@settings(max_examples=40, deadline=None)
@given(st.lists(query_strategy(TABLE.schema), min_size=1, max_size=16),
       st.integers(min_value=20, max_value=120))
def test_batch_matches_per_query_across_tables(workload, n):
    """The bit-identity holds for anatomy over arbitrary table sizes
    (residue groups of size l+1 included), reusing one encoding."""
    table = build_table(n, seed=n)
    evaluator = AnatomyEstimator(anatomize(table, l=2, seed=0))
    encoding = evaluator.encode(workload)
    reference = np.array([evaluator.estimate(q) for q in workload])
    assert np.array_equal(evaluator.estimate_workload(encoding),
                          reference)
