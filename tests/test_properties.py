"""Property tests: the vectorized OT core, score map, post-logit scale
search, sigmoid and whole-set top region against loop oracles, the rank
metrics against brute-force pair counts, the fairpot map on record subsets,
and the inverse normal CDF against scipy."""

import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.special import ndtri
from scipy.stats import wasserstein_distance

from fairpot._util import sigmoid
from fairpot.baselines import DEFAULT_SCALE_GRID, fit_post_logit
from fairpot.datagen import _ndtri
from fairpot.metrics import (
    ScoreSet,
    auc,
    pauc,
    pxauc,
    pxauc_disparity,
    top_alpha_region,
    xauc,
    xauc_disparity,
)
from fairpot.ot import (
    EmpiricalMeasure,
    barycentric_projection,
    plan_cost,
    solve_ot_1d,
    wasserstein1_distance,
)
from fairpot.transport import build_score_map, fit_and_map

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


def labeled_set(scores, labels, groups):
    return ScoreSet(scores=np.array(scores, dtype=float), labels=labels, groups=list(groups))


@st.composite
def labeled_sets(draw, max_size=30):
    n = draw(st.integers(1, max_size))
    records = st.lists(
        st.tuples(
            st.one_of(st.sampled_from(POOL), st.floats(0.0, 1.0, allow_subnormal=False)),
            st.integers(0, 1),
            st.sampled_from("ab"),
        ),
        min_size=n,
        max_size=n,
    )
    scores, labels, groups = zip(*draw(records))
    return labeled_set(scores, labels, groups)


scale_grids = st.one_of(
    st.just(DEFAULT_SCALE_GRID),
    st.lists(
        st.one_of(st.sampled_from((0.1, 0.5, 1.0, 2.0, 10.0)), st.floats(0.01, 20.0)),
        min_size=1,
        max_size=8,
    ),
)


@given(labeled_sets(), scale_grids, st.sampled_from((0.0, -1.0, 0.5)))
# tied scores across groups and classes
@example(labeled_set([0.5, 0.5, 0.5, 0.5, 0.25, 0.75], [1, 0, 1, 0, 1, 0], "aabbab"),
         DEFAULT_SCALE_GRID, 0.0)
# group b has no negatives: the a->b xAUC is 0.0 by convention
@example(labeled_set([0.9, 0.2, 0.6, 0.4], [1, 0, 1, 1], "aabb"), DEFAULT_SCALE_GRID, 0.0)
# single-record groups
@example(labeled_set([0.7, 0.3], [1, 0], "ab"), DEFAULT_SCALE_GRID, -1.0)
# sigmoid(0) = 0.5 ties group b's rescaled 0.0 scores with group a's 0.5,
# among the b negatives, then among the b positives
@example(labeled_set([0.9, 0.75, 0.0, 0.5, 0.0, 0.5, 0.0], [0, 1, 0, 1, 0, 1, 1], "aaaabbb"),
         DEFAULT_SCALE_GRID, 0.0)
@example(labeled_set([0.0, 0.1, 0.5, 0.9, 0.5, 0.25, 0.25], [1, 1, 0, 1, 0, 0, 1], "bbaabbb"),
         DEFAULT_SCALE_GRID, 0.0)
# unsorted grid with duplicate scales
@example(labeled_set([0.8, 0.1, 0.45, 0.6, 0.3, 0.55], [1, 0, 1, 0, 0, 1], "aaabbb"),
         (2.0, 0.5, 2.0, 1.0, 0.5), 0.0)
def test_post_logit_fit_equals_loop(train, grid, offset):
    try:
        expected = oracles.loop_fit_post_logit(train, grid, offset)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            fit_post_logit(train, grid, offset)
        return
    assert fit_post_logit(train, grid, offset) == expected


def bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.uint64)


# Both signs of zero, infinities, and the edges where exp under- or overflows.
EDGES = (0.0, -0.0, np.inf, -np.inf, 745.0, -745.0, 746.0, -746.0, 709.8, -709.8, 1e-300, -1e-300)
logits = st.one_of(st.sampled_from(EDGES), st.floats(allow_nan=False))


@given(st.lists(logits, max_size=60))
@example(list(EDGES))
def test_sigmoid_equals_masked_sigmoid(xs):
    got, expected = sigmoid(np.array(xs)), oracles.masked_sigmoid(np.array(xs))
    assert np.array_equal(bits(got), bits(expected))


@given(logits)
def test_sigmoid_scalar_equals_masked_sigmoid(x):
    got, expected = sigmoid(x), oracles.masked_sigmoid(x)
    assert type(got) is type(expected) is float
    assert bits(got) == bits(expected)


@given(labeled_sets(), st.sampled_from((1.0, 0.999, 0.95, 0.5, 0.3)))
# ties at the lowest score: the threshold comes from the last of them
@example(labeled_set([0.2, 0.5, 0.2, 0.9, 0.2], [1, 0, 0, 1, 1], "ababa"), 1.0)
# a single record
@example(labeled_set([0.4], [1], "b"), 1.0)
# zeros of both signs tie; the sign of the one ranked last is kept
@example(labeled_set([0.0, 0.3, -0.0], [0, 1, 1], "aab"), 1.0)
@example(labeled_set([-0.0, 0.3, 0.0], [0, 1, 1], "aab"), 1.0)
def test_top_alpha_region_equals_sorting_path(s, alpha):
    got, expected = top_alpha_region(s, alpha), oracles.sorted_top_alpha_region(s, alpha)
    assert (got.alpha, got.n_alpha) == (expected.alpha, expected.n_alpha)
    assert bits(got.threshold) == bits(expected.threshold)
    assert got.member_indices.dtype == expected.member_indices.dtype
    assert np.array_equal(got.member_indices, expected.member_indices)


# Tied scores within and across classes and groups.
TIED = labeled_set([0.5, 0.5, 0.5, 0.5, 0.25, 0.75, 0.25], [1, 0, 1, 0, 1, 0, 0], "aabbabb")
# One class only.
ALL_POSITIVE = labeled_set([0.9, 0.2, 0.6], [1, 1, 1], "abb")
ALL_NEGATIVE = labeled_set([0.1, 0.7], [0, 0], "ba")
# One group only.
ONLY_B = labeled_set([0.3, 0.8, 0.3, 0.6], [1, 0, 0, 1], "bbbb")
# A single record.
SINGLE = labeled_set([0.4], [1], "a")


@given(labeled_sets(), st.sampled_from((1.0, 0.999, 0.5, 0.3, 0.01)))
@example(TIED, 1.0)
@example(TIED, 0.5)
@example(ALL_POSITIVE, 1.0)
@example(ALL_NEGATIVE, 0.5)
@example(ONLY_B, 1.0)
@example(ONLY_B, 0.5)
@example(SINGLE, 1.0)
def test_rank_metrics_equal_brute_force(s, alpha):
    assert bits(auc(s)) == bits(oracles.brute_auc(s))
    for g, h in (("a", "b"), ("b", "a")):
        assert bits(xauc(s, g, h)) == bits(oracles.brute_xauc(s, g, h))
    assert bits(xauc_disparity(s)) == bits(oracles.brute_xauc_disparity(s))
    region = top_alpha_region(s, alpha)
    members = region.member_indices
    assert bits(pauc(s, region)) == bits(oracles.brute_pauc(s, members))
    for g, h in (("a", "b"), ("b", "a")):
        assert bits(pxauc(s, region, g, h)) == bits(oracles.brute_pxauc(s, members, g, h))
    assert bits(pxauc_disparity(s, region)) == bits(oracles.brute_pxauc_disparity(s, members))


@st.composite
def draws(draw, n):
    """Indices into ``n`` records, with repeats, as a bootstrap draw has."""
    return np.array(draw(st.lists(st.integers(0, n - 1), max_size=2 * n)), dtype=np.int64)


@given(
    labeled_sets(),
    labeled_sets().flatmap(lambda test: st.tuples(st.just(test), draws(len(test)))),
    st.sampled_from(("global", "partial")),
    st.sampled_from((1.0, 0.5, 0.3)),
    st.sampled_from(("b_to_a", "a_to_b")),
)
# train and test share tied scores; the draw repeats records and skips others
@example(
    labeled_set([0.5, 0.5, 0.25, 0.25, 0.75, 0.5], [1, 0, 1, 0, 1, 0], "aabbab"),
    (labeled_set([0.5, 0.25, 0.25, 1.0, 0.0, 0.5], [1, 0, 1, 0, 1, 0], "babbab"),
     np.array([2, 2, 0, 5, 5, 3])),
    "global", 1.0, "b_to_a",
)
@example(
    labeled_set([0.5, 0.5, 0.25, 0.25, 0.75, 0.5], [1, 0, 1, 0, 1, 0], "aabbab"),
    (labeled_set([0.5, 0.25, 0.25, 1.0, 0.0, 0.5], [1, 0, 1, 0, 1, 0], "babbab"),
     np.array([4, 1, 1, 2])),
    "partial", 0.5, "a_to_b",
)
def test_fairpot_map_commutes_with_subsets(train, test_and_draw, mode, alpha, direction):
    """Mapping the whole test set and then taking the records at ``idx``
    equals mapping those records, bit for bit, for every lambda: each record's
    new score depends only on its own score and group."""
    test, idx = test_and_draw
    lambdas = (0.0, 1e-15, 0.1, 0.5, 0.9, 1.0)
    try:
        whole = fit_and_map(train, test, lambdas, mode, alpha, direction)
    except ValueError as exc:
        # the fit reads the training set only, so it fails the same way
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            fit_and_map(train, test.subset(idx), lambdas, mode, alpha, direction)
        return
    part = fit_and_map(train, test.subset(idx), lambdas, mode, alpha, direction)
    assert [lam for lam, _ in whole] == [lam for lam, _ in part] == list(lambdas)
    for (_, mapped), (_, mapped_part) in zip(whole, part):
        sub = mapped.subset(idx)
        assert np.array_equal(bits(sub.scores), bits(mapped_part.scores))
        assert np.array_equal(sub.labels, mapped_part.labels)
        assert np.array_equal(sub.groups, mapped_part.groups)


EXP_M2 = np.exp(-2.0)
# the central/tail switches at exp(-2) and 1 - exp(-2), the x = 8 switch at
# exp(-32), the smallest draw 2^-54, and the ends of the double range in (0, 1)
NDTRI_EDGES = [
    v
    for edge in (EXP_M2, 1.0 - EXP_M2, np.exp(-32.0), 0.5)
    for v in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0))
] + [2.0**-54, 1e-300, 5e-324, np.nextafter(1.0, 0.0)]
probabilities = st.one_of(
    st.sampled_from(NDTRI_EDGES),
    st.floats(2.0**-54, 1.0, exclude_max=True),
    # deep tail: sqrt(-2 log y) >= 8
    st.floats(5e-324, 1.3e-14),
)


@given(st.lists(probabilities, min_size=1, max_size=60))
@example(NDTRI_EDGES)
def test_ndtri_equals_scipy(ys):
    y = np.array(ys)
    assert np.array_equal(bits(_ndtri(y)), bits(ndtri(y)))


def test_ndtri_equals_scipy_on_a_million_draws():
    rng = np.random.default_rng(20240611)
    y = np.concatenate([
        rng.random(1_000_000),
        # the deep tail, log-uniform in [1e-320, 1.3e-14]
        np.exp(rng.uniform(np.log(1e-320), np.log(1.3e-14), 100_000)),
    ])
    y[y == 0.0] = 2.0**-54
    assert np.array_equal(_ndtri(y).view(np.int64), ndtri(y).view(np.int64))
