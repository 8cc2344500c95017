"""Property tests: the vectorized OT core, score map, post-logit scale
search, sigmoid, top-k mask and top region against loop oracles, the wasserstein
baseline's quantile maps against their np.unique form, the rank metrics against
brute-force pair counts, the transported index sets and the score map psi
across lambda, the fit on a stably sorted moving cloud, the fairpot map on
record subsets, and the inverse normal CDF against scipy."""

import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.special import ndtri
from scipy.stats import wasserstein_distance

from fairpot._util import ceil_count, sigmoid, top_mask
from fairpot.baselines import DEFAULT_SCALE_GRID, _group_quantile_maps, fit_post_logit
from fairpot.datagen import _ndtri, fit_logistic_scorer
from fairpot.metrics import (
    ScoreSet,
    TopAlphaRegion,
    auc,
    evaluate_cells,
    pauc,
    pxauc,
    pxauc_disparity,
    region_cells,
    select_region,
    top_alpha_region,
    xauc,
    xauc_disparity,
)
from fairpot.ot import (
    TransportPlan,
    barycentric_projection,
    plan_cost,
    solve_ot_1d,
    wasserstein1_distance,
)
from fairpot.transport import apply_phi, apply_psi, build_score_map, fit_and_map, fit_transport

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
    """A score cloud, half the time with each point repeated 1 to 9 times: a
    measure with integer multiplicities is the uniform one over its repeated
    support."""
    support = np.array(draw(st.lists(values, min_size=1, max_size=max_size)))
    if draw(st.booleans()):
        return support
    counts = draw(st.lists(st.integers(1, 9), min_size=len(support), max_size=len(support)))
    return np.repeat(support, counts)


@given(supports, supports)
def test_uniform_plan_equals_cell_walk(zs, zt):
    plan = solve_ot_1d(zs, zt)
    src, tgt, mass = oracles.loop_uniform_plan(zs, zt)
    assert np.array_equal(plan.source_idx, src)
    assert np.array_equal(plan.target_idx, tgt)
    assert np.array_equal(plan.masses, mass)


@given(measures(max_size=8), measures(max_size=8))
def test_plan_matches_lp_oracle(src, tgt):
    plan = solve_ot_1d(src, tgt)
    lp_cost, _ = oracles.lp_transport(src, tgt)
    assert abs(plan_cost(plan, src, tgt) - lp_cost) <= 1e-9


@given(measures(), measures())
def test_projection_matches_row_loop(src, tgt):
    plan = solve_ot_1d(src, tgt)
    fast = barycentric_projection(plan, tgt)
    ref = oracles.loop_barycentric_projection(
        plan.source_idx, plan.target_idx, plan.masses, tgt, len(src)
    )
    for i in range(len(src)):
        coupled = tgt[plan.target_idx[plan.source_idx == i]]
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
    for knot_x, knot_y in zip(knots_x, score_map.knots_y):
        tied = y[x == knot_x]
        assert tied.min() <= knot_y <= tied.max()


@given(measures(), measures())
def test_w1_matches_scipy(p, q):
    expected = wasserstein_distance(p, q)
    assert abs(wasserstein1_distance(p, q) - expected) <= 1e-12


def permuted(plan, order) -> TransportPlan:
    """``plan`` with its triples taken in ``order``."""
    return TransportPlan(
        source_idx=plan.source_idx[order],
        target_idx=plan.target_idx[order],
        masses=plan.masses[order],
        source_n=plan.source_n,
        target_n=plan.target_n,
    )


def test_projection_ignores_the_order_of_the_triples():
    rng = np.random.default_rng(60)
    zs, zt = np.round(rng.random(300), 2), np.round(rng.random(200), 2)
    solved = solve_ot_1d(zs, zt)
    expected = bits(barycentric_projection(solved, zt))
    for _ in range(3):
        shuffled = permuted(solved, rng.permutation(len(solved.masses)))
        assert np.array_equal(bits(barycentric_projection(shuffled, zt)), expected)
    # A hand-built plan: each triple of the solved plan split into two to
    # four, so every row repeats (source, target) pairs. Summed in another
    # order, a repeated pair's masses can round differently; the projection
    # takes them in plan order, as a two-key lexsort does.
    pieces = rng.integers(2, 5, size=len(solved.masses))
    shares = rng.random(pieces.sum()) + 0.5
    sums = np.add.reduceat(shares, np.cumsum(pieces) - pieces)
    hand = TransportPlan(
        source_idx=np.repeat(solved.source_idx, pieces),
        target_idx=np.repeat(solved.target_idx, pieces),
        masses=np.repeat(solved.masses / sums, pieces) * shares,
        source_n=solved.source_n,
        target_n=solved.target_n,
    )
    for _ in range(3):
        shuffled = permuted(hand, rng.permutation(len(hand.masses)))
        by_pair = np.lexsort((shuffled.target_idx, shuffled.source_idx))
        assert np.array_equal(
            bits(barycentric_projection(shuffled, zt)),
            bits(barycentric_projection(permuted(shuffled, by_pair), zt)),
        )


@pytest.mark.parametrize("n, m", [(1000, 3000), (10, 5000), (5000, 7)])
def test_uniform_plan_equals_cell_walk_on_unequal_shapes(n, m):
    rng = np.random.default_rng(n + m)
    zs, zt = rng.integers(0, 50, size=n) / 50, rng.integers(0, 50, size=m) / 50  # ties
    plan = solve_ot_1d(zs, zt)
    src, tgt, mass = oracles.loop_uniform_plan(zs, zt)
    assert np.array_equal(plan.source_idx, src)
    assert np.array_equal(plan.target_idx, tgt)
    assert np.array_equal(bits(plan.masses), bits(mass))


def test_score_map_ignores_the_order_of_the_pairs():
    # Transported scores in 1/1024 steps sum exactly in any order, so every
    # tie group's mean is one value however its pairs are ordered.
    rng = np.random.default_rng(62)
    x = rng.integers(0, 40, size=500) / 40
    y = rng.integers(0, 1025, size=500) / 1024
    by_x = np.argsort(x, kind="stable")
    expected = build_score_map(x[by_x], y[by_x])
    assert len(expected) == 40
    for _ in range(3):
        order = rng.permutation(len(x))
        score_map = build_score_map(x[order], y[order])
        assert np.array_equal(bits(score_map.knots_x), bits(expected.knots_x))
        assert np.array_equal(bits(score_map.knots_y), bits(expected.knots_y))


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


@given(
    st.lists(
        st.one_of(st.sampled_from((0.0, -0.0, 0.25, 0.5, 1.0)), st.floats(0.0, 1.0)),
        min_size=1,
        max_size=40,
    )
)
@example([0.5])  # one score: level 0.5
@example([0.0, -0.0, 0.5, -0.0, 0.0])  # both signs of zero are one tie group
def test_quantile_maps_equal_unique_form(scores):
    scores = np.array(scores)
    to_level, to_score = _group_quantile_maps(scores)
    ref_level, ref_score = oracles.unique_quantile_maps(scores)
    probes = np.linspace(-0.5, 1.5, 41)
    queries = np.concatenate((scores, probes))
    assert np.array_equal(bits(to_level(queries)), bits(ref_level(queries)))
    levels = np.concatenate((ref_level(scores), probes))
    assert np.array_equal(bits(to_score(levels)), bits(ref_score(levels)))


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


# Scores 0 (of either sign), 0.5 and 1: ties at the
# threshold of nearly every region.
tied_sets = st.lists(
    st.tuples(st.sampled_from((0.0, -0.0, 0.5, 1.0)), st.integers(0, 1), st.sampled_from("ab")),
    min_size=1,
    max_size=40,
).map(lambda records: labeled_set(*zip(*records)))


@given(
    st.one_of(labeled_sets(), tied_sets),
    st.sampled_from((1.0, 0.999, 0.95, 0.7, 0.5, 0.3, 0.05)),
)
# ties at the lowest score: the threshold comes from the last of them
@example(labeled_set([0.2, 0.5, 0.2, 0.9, 0.2], [1, 0, 0, 1, 1], "ababa"), 1.0)
# a single record
@example(labeled_set([0.4], [1], "b"), 1.0)
# zeros of both signs tie; the sign of the one ranked last is kept
@example(labeled_set([0.0, 0.3, -0.0], [0, 1, 1], "aab"), 1.0)
@example(labeled_set([-0.0, 0.3, 0.0], [0, 1, 1], "aab"), 1.0)
# the region ends inside a run of ties, of both signs of zero, or of one score
@example(labeled_set([0.0, -0.0, 0.3, 0.0, -0.0, 0.0], [0, 1, 1, 0, 0, 1], "aabbab"), 0.5)
@example(labeled_set([-0.0, 0.0, 0.3, -0.0, 0.0, 0.0], [0, 1, 1, 0, 0, 1], "aabbab"), 0.5)
@example(labeled_set([0.5] * 9 + [0.75], [0, 1] * 5, "ab" * 5), 0.3)
@example(labeled_set([0.5] * 10, [0, 1] * 5, "ab" * 5), 0.7)
def test_top_alpha_region_equals_sorting_path(s, alpha):
    got, expected = top_alpha_region(s, alpha), oracles.sorted_top_alpha_region(s, alpha)
    assert (got.alpha, got.n_alpha) == (expected.alpha, expected.n_alpha)
    assert bits(got.threshold) == bits(expected.threshold)
    assert got.member_indices.dtype == expected.member_indices.dtype
    assert np.array_equal(got.member_indices, expected.member_indices)


# Both signs of zero and the infinities, among any other values.
top_values = st.one_of(
    st.sampled_from((0.0, -0.0, 0.5, 1.0, np.inf, -np.inf)), st.floats(allow_nan=False)
)


@given(st.lists(top_values, max_size=40))
@example([])
@example([0.5] * 7)  # all equal
@example([0.0, -0.0, 0.0, -0.0])  # one tie group of both signs
@example([-0.0, 0.3, 0.0, 0.3, -0.0, np.inf, -np.inf, 0.3])
def test_top_mask_equals_stable_descending_sort(xs):
    x = np.array(xs, dtype=float)
    for k in range(len(x) + 1):
        expected = np.zeros(len(x), dtype=bool)
        expected[oracles.sorted_top_positions(x, k)] = True
        assert np.array_equal(top_mask(x, k), expected)


@st.composite
def draws(draw, n, min_size=0):
    """Indices into ``n`` records, with repeats, as a bootstrap draw has."""
    indices = st.lists(st.integers(0, n - 1), min_size=min_size, max_size=2 * n)
    return np.array(draw(indices), dtype=np.int64)


@given(
    st.one_of(labeled_sets(), tied_sets).flatmap(
        lambda s: st.tuples(st.just(s), draws(len(s), min_size=1))
    ),
    st.sampled_from((1.0, 0.999, 0.7, 0.5, 0.3, 0.05)),
)
# the draw repeats tied records of both signs of zero, across the threshold
@example((labeled_set([0.0, -0.0, 0.5, 0.0], [0, 1, 1, 0], "abab"), np.array([3, 1, 1, 0, 2, 3])),
         0.5)
@example((labeled_set([0.5, 0.5, 0.25], [1, 0, 1], "abb"), np.array([2, 1, 0, 1, 0])), 0.3)
def test_select_region_equals_the_sorted_region_of_the_draw(s_and_draw, alpha):
    s, draw = s_and_draw
    expected = draw[oracles.sorted_top_alpha_region(s.subset(draw), alpha).member_indices]
    got = select_region(s, "partial", alpha, draw)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)


@given(
    st.one_of(labeled_sets(), tied_sets).flatmap(
        lambda s: st.tuples(st.just(s), draws(len(s), min_size=1))
    ),
    st.sampled_from(("global", "partial")),
)
def test_evaluate_cells_reads_int32_positions_as_int64_ones(s_and_draw, mode):
    s, draw = s_and_draw
    narrow, wide = (region_cells(s, draw.astype(dtype)) for dtype in (np.int32, np.int64))
    assert {idx.dtype for idx in narrow.values()} == {np.dtype(np.int32)}
    assert np.array_equal(
        bits(evaluate_cells(narrow, s.scores, mode)), bits(evaluate_cells(wide, s.scores, mode))
    )


# Tied scores within and across classes and groups.
TIED = labeled_set([0.5, 0.5, 0.5, 0.5, 0.25, 0.75, 0.25], [1, 0, 1, 0, 1, 0, 0], "aabbabb")
# One class only.
ALL_POSITIVE = labeled_set([0.9, 0.2, 0.6], [1, 1, 1], "abb")
ALL_NEGATIVE = labeled_set([0.1, 0.7], [0, 0], "ba")
# One group only.
ONLY_B = labeled_set([0.3, 0.8, 0.3, 0.6], [1, 0, 0, 1], "bbbb")
# A single record.
SINGLE = labeled_set([0.4], [1], "a")


def assert_region_metrics_equal_brute_force(s, region):
    members = region.member_indices
    assert bits(pauc(s, region)) == bits(oracles.brute_pauc(s, members))
    for g, h in (("a", "b"), ("b", "a")):
        assert bits(pxauc(s, region, g, h)) == bits(oracles.brute_pxauc(s, members, g, h))
    assert bits(pxauc_disparity(s, region)) == bits(oracles.brute_pxauc_disparity(s, members))


def any_region(s, picks) -> TopAlphaRegion:
    """Region of the records whose pick is set, the picks cycled over ``s``."""
    members = np.flatnonzero(np.resize(np.array(picks, dtype=bool), len(s)))
    return TopAlphaRegion(alpha=1.0, n_alpha=len(members), threshold=0.0, member_indices=members)


@given(
    labeled_sets(),
    st.sampled_from((1.0, 0.999, 0.5, 0.3, 0.01)),
    st.lists(st.booleans(), min_size=1, max_size=30),
    st.sampled_from("ab"),
)
@example(TIED, 1.0, [True, False], "b")
@example(TIED, 0.5, [False, True, True], "a")
@example(ALL_POSITIVE, 1.0, [True], "a")
@example(ALL_NEGATIVE, 0.5, [False, True], "b")
@example(ONLY_B, 1.0, [True, True, False], "b")
@example(ONLY_B, 0.5, [False], "a")
@example(SINGLE, 1.0, [True], "a")
def test_rank_metrics_equal_brute_force(s, alpha, picks, flipped):
    """Every metric equals brute force: on the set, on its top region, on any
    strict sub-region, and as the sweep evaluates a mapped set, where the
    region's records keep the unmapped set's labels and groups and take the
    mapped scores."""
    assert bits(auc(s)) == bits(oracles.brute_auc(s))
    for g, h in (("a", "b"), ("b", "a")):
        assert bits(xauc(s, g, h)) == bits(oracles.brute_xauc(s, g, h))
    assert bits(xauc_disparity(s)) == bits(oracles.brute_xauc_disparity(s))
    assert_region_metrics_equal_brute_force(s, top_alpha_region(s, alpha))
    region = any_region(s, picks)
    assert_region_metrics_equal_brute_force(s, region)
    # every record, in reverse order
    reverse = np.arange(len(s))[::-1]
    assert_region_metrics_equal_brute_force(
        s, TopAlphaRegion(alpha=1.0, n_alpha=len(s), threshold=0.0, member_indices=reverse)
    )

    # one group's scores reversed, which reorders them and keeps their ties
    mapped = s.replace_group_scores(flipped, 1.0 - s.group_scores(flipped))
    members = region.member_indices
    expected = mapped.subset(members)

    def evaluated(mode):
        return bits(evaluate_cells(region_cells(s, members), mapped.scores, mode))

    if len(members):
        everything = np.arange(len(members))
        assert np.array_equal(evaluated("partial"), bits(
            (oracles.brute_pauc(expected, everything),
             oracles.brute_pxauc_disparity(expected, everything))
        ))
    assert np.array_equal(evaluated("global"), bits(
        (oracles.brute_auc(expected), oracles.brute_xauc_disparity(expected))
    ))


unit_scores = st.lists(
    st.one_of(st.sampled_from(POOL), st.floats(0.0, 1.0, allow_subnormal=False)),
    min_size=1,
    max_size=40,
)
lambda_grids = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6).map(sorted)


@given(unit_scores, unit_scores, lambda_grids)
def test_transported_index_sets_nest_in_lambda(a, b, lambdas):
    plan = fit_transport(a, b)
    previous = set()
    for lam in lambdas:
        moved = set(apply_phi(b, plan, a, lam).transported_index_set.tolist())
        assert previous <= moved
        previous = moved


tied_unit_scores = st.lists(
    st.one_of(st.sampled_from((0.0, -0.0, 0.5, 1.0)), st.floats(0.0, 1.0, allow_subnormal=False)),
    min_size=1,
    max_size=40,
)


@given(unit_scores, tied_unit_scores, st.floats(0.0, 1.0))
@example([0.2, 0.9], [0.0, 0.5, -0.0, 0.5, 0.0], 0.5)
@example([0.1], [0.5, 0.5, 0.5], 0.4)
def test_apply_phi_moves_the_sorted_top(a, b, lam):
    """The moved records are the first ceil(lam * n_b) of a stable
    descending sort of b; they take their projections, the rest keep their
    scores, bit for bit."""
    a, b = np.array(a), np.array(b)
    plan = fit_transport(a, b)
    result = apply_phi(b, plan, a, lam)
    top = oracles.sorted_top_positions(b, ceil_count(lam, len(b)))
    assert result.transported_index_set.dtype == top.dtype
    assert np.array_equal(result.transported_index_set, top)
    expected = b.copy()
    expected[top] = barycentric_projection(plan, a)[top]
    assert np.array_equal(bits(result.transported_scores), bits(expected))


@given(tied_unit_scores, tied_unit_scores)
@example([0.2, -0.0, 0.9, 0.0], [0.0, 0.5, -0.0, 0.5, 0.0, -0.0])
def test_a_fit_on_the_stably_sorted_cloud_is_the_fit_in_its_order(a, b):
    """Fitted on b stably sorted, the projection and each top-k mask are the
    unsorted cloud's taken in that order, bit for bit: tied scores, zeros of
    both signs included, keep their record order. ``fit_and_map`` reads its
    moving cloud in this one order."""
    a, b = np.array(a), np.array(b)
    order = np.argsort(b, kind="stable")
    sorted_b = np.sort(b, kind="stable")
    assert np.array_equal(bits(sorted_b), bits(b[order]))
    expected = barycentric_projection(solve_ot_1d(b, a), a)[order]
    got = barycentric_projection(solve_ot_1d(sorted_b, a), a)
    assert np.array_equal(bits(got), bits(expected))
    for k in range(len(b) + 1):
        assert np.array_equal(top_mask(sorted_b, k), top_mask(b, k)[order])


def psi(a, b, lam):
    """Score map of the group-b training scores moved by ``lam`` onto ``a``."""
    return build_score_map(b, apply_phi(b, fit_transport(a, b), a, lam).transported_scores)


@given(unit_scores, unit_scores, st.floats(0.0, 1.0), unit_scores)
@example([0.5, 0.25], [0.75, 0.75, 0.1], 1.0, [0.0, 0.05, 0.1, 0.75, 0.8, 1.0])
def test_psi_clamps_outside_the_knot_range(a, b, lam, queries):
    score_map = psi(a, b, lam)
    q = np.array(queries)
    out = apply_psi(score_map, q)
    below, above = q < score_map.knots_x[0], q > score_map.knots_x[-1]
    assert np.array_equal(bits(out[below]), bits(np.full(below.sum(), score_map.knots_y[0])))
    assert np.array_equal(bits(out[above]), bits(np.full(above.sum(), score_map.knots_y[-1])))


@given(unit_scores, unit_scores, unit_scores)
# three copies of 0.1 average to 0.10000000000000002
@example([0.0], [0.1, 0.1, 0.1, 0.6], [0.05, 0.1, 0.3])
def test_psi_is_the_identity_at_lambda_zero(a, b, queries):
    """Every knot maps to itself exactly, a tie group's knot too, whose mean
    of equal copies may round off their value but is clamped back to it.
    (The sweep applies no psi at lambda 0, so its output is exact there.)"""
    score_map = psi(a, b, 0.0)
    x, y = score_map.knots_x, score_map.knots_y
    assert np.array_equal(bits(y), bits(x))
    assert np.array_equal(bits(apply_psi(score_map, x)), bits(x))
    # between knots, interpolation on the line y = x rounds by an ulp at most
    q = np.clip(np.array(queries), x[0], x[-1])
    assert np.all(np.abs(apply_psi(score_map, q) - q) <= np.spacing(q))


@given(unit_scores, unit_scores, unit_scores)
@example([0.1, 0.9], [0.3, 0.3, 0.3, 0.6], [0.0, 0.3, 0.45, 0.6, 1.0])
# the tie group's mean at 0.0 rounds one ulp above the knot at 0.1
@example([0.1], [0.0, 0.0, 0.0, 0.1], [0.0, 0.1])
def test_psi_is_nondecreasing_at_lambda_one(a, b, queries):
    """At lambda 1 every knot is the monotone projection of its training
    score, a tie group's knot the mean of its projections clamped to their
    range: the knots, and psi on sorted queries, are nondecreasing."""
    score_map = psi(a, b, 1.0)
    assert np.all(np.diff(score_map.knots_y) >= 0)
    assert np.all(np.diff(apply_psi(score_map, np.sort(queries))) >= 0)


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


@given(st.lists(st.sampled_from((0.0, -0.0, 1.0, np.nan)), max_size=6))
def test_label_check_counts_values_as_np_unique_does(labels):
    y = np.array(labels, dtype=float)
    x = np.zeros((len(y), 0))  # no features: the fit is its intercept alone
    if len(np.unique(y)) < 2:
        with pytest.raises(ValueError, match="both label classes"):
            fit_logistic_scorer(x, y)
    else:
        fit_logistic_scorer(x, y)
