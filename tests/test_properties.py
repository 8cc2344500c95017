"""Property tests: the vectorized OT core and score map against loop oracles."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import wasserstein_distance

from fairpot.ot import (
    EmpiricalMeasure,
    barycentric_projection,
    plan_cost,
    solve_ot_1d,
    wasserstein1_distance,
)
from fairpot.transport import build_score_map

import oracles

# A small pool of repeated values forces duplicate supports and tie groups.
POOL = (0.0, 0.1, 0.25, 0.5, 0.75, 1.0)
values = st.one_of(
    st.sampled_from(POOL), st.floats(-5.0, 5.0, allow_nan=False, allow_subnormal=False)
)
supports = st.lists(values, min_size=1, max_size=40)



def summation_tol(k, scale):
    """Bound on how far two summation orders of a k-term (weighted) mean of
    values up to ``scale`` in magnitude can drift apart: the vectorized sums
    and the loop oracle's may differ in their last bits."""
    return 2 * k * np.finfo(float).eps * scale


@st.composite
def measures(draw, max_size=40):
    support = np.array(draw(st.lists(values, min_size=1, max_size=max_size)))
    if draw(st.booleans()):
        return EmpiricalMeasure.uniform(support)
    counts = draw(st.lists(st.integers(1, 9), min_size=len(support), max_size=len(support)))
    weights = np.array(counts, dtype=float)
    return EmpiricalMeasure(support=support, weights=weights / weights.sum())


@given(supports, supports)
def test_uniform_plan_equals_cell_walk(zs, zt):
    plan = solve_ot_1d(EmpiricalMeasure.uniform(zs), EmpiricalMeasure.uniform(zt))
    src, tgt, mass = oracles.loop_uniform_plan(zs, zt)
    assert np.array_equal(plan.source_idx, src)
    assert np.array_equal(plan.target_idx, tgt)
    assert np.array_equal(plan.masses, mass)


@given(measures(max_size=8), measures(max_size=8))
def test_plan_matches_lp_oracle(src, tgt):
    plan = solve_ot_1d(src, tgt)
    lp_cost, _ = oracles.lp_transport(src.support, src.weights, tgt.support, tgt.weights)
    assert abs(plan_cost(plan, src.support, tgt.support) - lp_cost) <= 1e-9


@given(measures(), measures())
def test_projection_matches_row_loop(src, tgt):
    plan = solve_ot_1d(src, tgt)
    fast = barycentric_projection(plan, tgt.support)
    ref = oracles.loop_barycentric_projection(
        plan.source_idx, plan.target_idx, plan.masses, tgt.support, len(src)
    )
    for i in range(len(src)):
        coupled = tgt.support[plan.target_idx[plan.source_idx == i]]
        if len(coupled) == 1:
            assert fast[i] == ref[i]
        else:
            tol = summation_tol(len(coupled), np.max(np.abs(coupled)))
            assert abs(fast[i] - ref[i]) <= tol
            assert coupled.min() <= fast[i] <= coupled.max()


@given(
    st.lists(
        st.tuples(st.sampled_from(POOL), st.floats(0.0, 1.0, allow_subnormal=False)),
        min_size=1,
        max_size=60,
    )
)
def test_score_map_matches_tie_merge(pairs):
    x, y = (np.array(v) for v in zip(*pairs))
    score_map = build_score_map(x, y)
    knots_x, knots_y, sizes = oracles.loop_tie_merge(x, y)
    assert np.array_equal(score_map.knots_x, knots_x)
    small = sizes <= 2
    assert np.array_equal(score_map.knots_y[small], knots_y[small])
    assert np.all(np.abs(score_map.knots_y - knots_y) <= summation_tol(sizes, np.max(y)))


@given(measures(), measures())
def test_w1_matches_scipy(p, q):
    expected = wasserstein_distance(p.support, q.support, p.weights, q.weights)
    assert abs(wasserstein1_distance(p, q) - expected) <= 1e-12
