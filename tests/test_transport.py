"""Tests for partial transport, the interpolation map, and the sweep."""

from functools import cached_property

import numpy as np
import pytest

from fairpot import metrics
from fairpot._util import ceil_count
from fairpot.ot import barycentric_projection
from fairpot.transport import (
    ScoreMap,
    apply_psi,
    build_score_map,
    evaluate_grid,
    fit_and_map,
    fit_transport,
    sweep,
)

import oracles


@pytest.fixture
def small_groups():
    rng = np.random.default_rng(42)
    return rng.random(9), rng.random(6)  # a-scores, b-scores


def random_split_sets(seed, n_train=120, n_test=40):
    rng = np.random.default_rng(seed)
    train = oracles.random_score_set(rng, n_train)
    test = oracles.random_score_set(rng, n_test)
    return train, test


class TestFitTransport:
    def test_identical_groups_zero_cost(self):
        scores = np.array([0.2, 0.5, 0.8])
        plan = fit_transport(scores, scores)
        assert np.array_equal(barycentric_projection(plan, scores), scores)

    def test_shifted_equal_sizes_monotone_match(self):
        a = np.array([0.5, 0.3, 0.7])
        b = a - 0.2
        plan = fit_transport(a, b)
        assert np.array_equal(barycentric_projection(plan, a), a)

    def test_unequal_sizes_against_lp(self, small_groups):
        a, b = small_groups
        a, b = a[:6], b[:4]
        plan = fit_transport(a, b)
        lp_cost, _ = oracles.lp_transport(b, a)
        assert oracles.plan_cost(plan, b, a) == pytest.approx(lp_cost, abs=1e-9)

    def test_empty_group_named_in_error(self):
        with pytest.raises(ValueError, match="group a"):
            fit_transport([], [0.5])
        with pytest.raises(ValueError, match="group b"):
            fit_transport([0.5], [])


class TestApplyPhi:
    """Phi, the top-lambda move, as the sweep applies it: the records of one
    tie-free set, mapped as its own test set (``oracles.moved_by_the_sweep``)."""

    def test_lambda_zero_identity(self, small_groups):
        a, b = small_groups
        assert np.array_equal(oracles.moved_by_the_sweep(a, b, 0.0), b)

    def test_lambda_one_full_projection(self, small_groups):
        a, b = small_groups
        projected = barycentric_projection(fit_transport(a, b), a)
        assert np.array_equal(oracles.moved_by_the_sweep(a, b, 1.0), projected)

    def test_half_of_four_moves_top_two(self):
        b = np.array([0.4, 0.9, 0.1, 0.6])
        a = np.array([0.2, 0.3, 0.7, 0.8])
        moved = oracles.moved_by_the_sweep(a, b, 0.5)
        assert np.flatnonzero(moved != b).tolist() == [1, 3]  # the two highest b scores
        projected = barycentric_projection(fit_transport(a, b), a)
        assert np.array_equal(moved[[1, 3]], projected[[1, 3]])

    def test_index_sets_nest_as_lambda_grows(self, small_groups):
        a, b = small_groups
        previous = set()
        for lam in np.linspace(0, 1, 11):
            moved = oracles.moved_by_the_sweep(a, b, float(lam))
            current = set(np.flatnonzero(moved != b))
            assert len(current) == ceil_count(lam, len(b))
            assert previous <= current
            previous = current

    def test_transported_order_matches_original_order(self, small_groups):
        a, b = small_groups
        moved = oracles.moved_by_the_sweep(a, b, 0.7)
        idx = np.flatnonzero(moved != b)
        original_order = np.argsort(-b[idx], kind="stable")
        moved_order = np.argsort(-moved[idx], kind="stable")
        assert np.array_equal(original_order, moved_order)

    def test_hull_containment(self, small_groups):
        a, b = small_groups
        moved = oracles.moved_by_the_sweep(a, b, 1.0)
        assert moved.min() >= a.min()
        assert moved.max() <= a.max()

    def test_lambda_domain(self, small_groups):
        with pytest.raises(ValueError, match="lambda values must lie in"):
            oracles.moved_by_the_sweep(*small_groups, 1.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, small_groups, bad):
        # a set that the sweep maps holds no non-finite score for the move to meet
        a, b = small_groups
        b = b.copy()
        b[2] = bad
        with pytest.raises(ValueError, match=r"^scores must be finite and in \[0, 1\]$"):
            oracles.moved_by_the_sweep(a, b, 0.5)


class TestScoreMap:
    def test_identity_pairs(self):
        xs = np.array([0.1, 0.5, 0.9])
        m = build_score_map(xs, xs)
        assert np.array_equal(apply_psi(m, xs), xs)

    def test_linear_interpolation(self):
        m = build_score_map([0.0, 1.0], [0.0, 0.5])
        assert apply_psi(m, [0.5])[0] == 0.25

    def test_duplicate_originals_collapse_to_mean(self):
        m = build_score_map([0.7, 0.7], [0.6, 0.8])
        assert len(m) == 1
        assert apply_psi(m, [0.7])[0] == pytest.approx(0.7)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_score_map([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            build_score_map([0.1, 0.2], [0.3])

    def test_nan_original_scores_rejected(self):
        # NaN compares unequal to itself, so each NaN would become a knot
        with pytest.raises(ValueError, match="^knot x-values must not be nan$"):
            build_score_map([np.nan, 0.5, np.nan], [0.1, 0.2, 0.3])

    def test_single_nan_knot_rejected(self):
        with pytest.raises(ValueError, match="^knot x-values must not be nan$"):
            ScoreMap(knots_x=[np.nan], knots_y=[0.2])


class TestApplyPsi:
    def test_knot_hit_is_exact(self, small_groups):
        a, b = small_groups
        phi = oracles.phi(a, b, 0.6)
        m = build_score_map(b, phi)
        assert np.array_equal(apply_psi(m, b), phi)

    def test_knot_hit_is_exact_where_the_slope_overflows(self):
        # (0.7 - 0.2) / 5e-324 overflows to inf, so a hit on the first knot
        # must not be computed as y + slope * 0, which is nan
        knots_y = np.array([0.2, 0.7, 0.9])
        m = build_score_map([0.0, 5e-324, 1.0], knots_y)
        assert list(m.knots_x) == [0.0, 5e-324, 1.0]
        queries = np.array([0.0, -0.0, 5e-324, 1.0])
        got = apply_psi(m, queries)
        assert got.tobytes() == knots_y[[0, 0, 1, 2]].tobytes()

    def test_clamps_above_training_range(self):
        m = build_score_map([0.2, 0.6], [0.3, 0.4])
        assert apply_psi(m, [0.95])[0] == 0.4

    def test_clamps_below_training_range(self):
        m = build_score_map([0.2, 0.6], [0.3, 0.4])
        assert apply_psi(m, [0.01])[0] == 0.3

    def test_midpoint_is_mean_of_neighbors(self):
        m = build_score_map([0.2, 0.6], [0.3, 0.5])
        assert apply_psi(m, [0.4])[0] == pytest.approx(0.4)


class TestSweep:
    def test_lambda_zero_equals_unadjusted(self):
        train, test = random_split_sets(900)
        points = sweep(train, test, [0.0])
        assert points[0].accuracy == metrics.auc(test)
        assert points[0].disparity == metrics.xauc_disparity(test)

    def test_lambda_zero_equals_unadjusted_partial(self):
        train, test = random_split_sets(901)
        points = sweep(train, test, [0.0], mode="partial", alpha=0.4)
        region = metrics.top_alpha_region(test, 0.4)
        sub = test.subset(region.member_indices)
        whole = metrics.top_alpha_region(sub, 1.0)
        assert points[0].accuracy == metrics.pauc(sub, whole)
        assert points[0].disparity == metrics.pxauc_disparity(sub, whole)

    def test_alpha_one_matches_global_pointwise(self):
        train, test = random_split_sets(902)
        lams = [0.0, 0.2, 0.5, 0.8, 1.0]
        global_points = sweep(train, test, lams, mode="global")
        partial_points = sweep(train, test, lams, mode="partial", alpha=1.0)
        for g, p in zip(global_points, partial_points):
            assert g.accuracy == p.accuracy
            assert g.disparity == p.disparity

    def test_full_pipeline_reconstruction_keeps_reference_untouched(self):
        # rebuild the lambda=1 evaluation by hand with group-a scores frozen;
        # matching metrics bit for bit proves sweep never moves the reference
        train, test = random_split_sets(903)
        points = sweep(train, test, [1.0])
        phi = oracles.phi(train.group_scores("a"), train.group_scores("b"), 1.0)
        m = build_score_map(train.group_scores("b"), phi)
        merged = test.replace_group_scores("b", apply_psi(m, test.group_scores("b")))
        assert np.array_equal(merged.group_scores("a"), test.group_scores("a"))
        assert points[0].accuracy == metrics.auc(merged)
        assert points[0].disparity == metrics.xauc_disparity(merged)

    def test_both_directions_share_lambda_zero_anchor(self):
        train, test = random_split_sets(904)
        fwd = sweep(train, test, [0.0, 1.0], direction="b_to_a")
        rev = sweep(train, test, [0.0, 1.0], direction="a_to_b")
        assert fwd[0].accuracy == rev[0].accuracy == metrics.auc(test)
        assert fwd[0].disparity == rev[0].disparity == metrics.xauc_disparity(test)

    def test_result_independent_of_lambda_order(self):
        train, test = random_split_sets(905)
        lams = [0.0, 0.3, 0.6, 1.0]
        forward = {p.lam: (p.accuracy, p.disparity) for p in sweep(train, test, lams)}
        backward = {p.lam: (p.accuracy, p.disparity) for p in sweep(train, test, lams[::-1])}
        assert forward == backward

    def test_partial_region_membership_fixed_pre_transport(self):
        train, test = random_split_sets(906)
        alpha = 0.5
        points = sweep(train, test, [1.0], mode="partial", alpha=alpha)
        # recompute by hand with fixed membership
        train_region = metrics.top_alpha_region(train, alpha)
        test_region = metrics.top_alpha_region(test, alpha)
        train_sub = train.subset(train_region.member_indices)
        test_sub = test.subset(test_region.member_indices)
        a, b = train_sub.group_scores("a"), train_sub.group_scores("b")
        m = build_score_map(b, oracles.phi(a, b, 1.0))
        merged = test_sub.replace_group_scores("b", apply_psi(m, test_sub.group_scores("b")))
        whole = metrics.top_alpha_region(merged, 1.0)
        assert points[0].accuracy == metrics.pauc(merged, whole)
        assert points[0].disparity == metrics.pxauc_disparity(merged, whole)

    def test_missing_group_rejected(self):
        train, test = random_split_sets(907)
        only_a = train.subset(np.flatnonzero(train.group_mask("a")))
        with pytest.raises(ValueError):
            sweep(only_a, test, [0.0])

    def test_bad_lambda_rejected(self):
        train, test = random_split_sets(908)
        with pytest.raises(ValueError):
            sweep(train, test, [0.0, 1.2])

    def test_empty_lambdas_rejected(self):
        # as ExperimentConfig rejects them, and before the test set's groups
        # are checked
        train, test = random_split_sets(911)
        only_a = test.subset(np.flatnonzero(test.group_mask("a")))
        with pytest.raises(ValueError, match="^lambdas must be non-empty$"):
            sweep(train, only_a, [])

    def test_bad_mode_rejected(self):
        train, test = random_split_sets(909)
        with pytest.raises(ValueError):
            sweep(train, test, [0.0], mode="windowed")

    def test_partial_requires_alpha(self):
        train, test = random_split_sets(910)
        with pytest.raises(ValueError):
            sweep(train, test, [0.0], mode="partial")


@pytest.mark.parametrize("mode", ["global", "partial"])
def test_mapped_sets_are_rebuilt_bit_for_bit_on_every_pass(mode):
    # tests that walk a fit_and_map result twice rely on this: a spent
    # generator would make their second pass check nothing
    train, test = random_split_sets(905)
    lambdas = [0.0, 0.3, 0.6, 1.0]
    mapped = fit_and_map(train, test, lambdas, mode, 0.5)
    assert len(mapped) == len(lambdas)
    first = [(lam, s.scores.copy()) for lam, s in mapped]
    second = list(mapped)
    assert [lam for lam, _ in first] == [lam for lam, _ in second] == lambdas
    for (_, scores), (_, s) in zip(first, second):
        assert scores.view(np.uint64).tolist() == s.scores.view(np.uint64).tolist()
        assert s.is_pos is test.is_pos and s.in_group_a is test.in_group_a
    assert second[0][1] is test  # lambda 0 maps nothing


@pytest.mark.parametrize("mode", ["global", "partial"])
@pytest.mark.parametrize("drawn", [False, True])
def test_cells_are_taken_once_per_evaluation(monkeypatch, mode, drawn):
    """Mapping holds no cells; evaluating every lambda takes the evaluated
    records' cells once, and no evaluated set computes cells of its own: the
    test set's, when the region is every record, or none."""
    train, test = random_split_sets(903)
    mapped = fit_and_map(train, test, [0.0, 0.3, 0.6, 1.0], mode, 0.5)
    assert all("cells" not in s.__dict__ for _, s in mapped)
    draw = np.random.default_rng(904).integers(0, len(test), size=len(test)) if drawn else None
    whole = mode == "global" and not drawn
    taken, computed = [], []
    region_cells = metrics.region_cells
    monkeypatch.setattr(
        metrics, "region_cells", lambda s, r: taken.append(s) or region_cells(s, r)
    )
    cells = metrics.ScoreSet.cells.func
    counted = cached_property(lambda s: computed.append(s) or cells(s))
    counted.__set_name__(metrics.ScoreSet, "cells")
    monkeypatch.setattr(metrics.ScoreSet, "cells", counted)
    [points] = evaluate_grid(test, mapped, mode, 0.5, draw=lambda rep: draw)
    assert len(points) == 4
    assert len(taken) == 1 and taken[0] is test
    assert computed == ([test] if whole else [])


def reference_sweep(train, test, lambdas, mode, alpha, direction):
    """Sweep rebuilt per lambda, in record order, from the oracle's phi, the
    score map and psi, its regions taken by a stable sort.

    Returns the evaluated test set and the (accuracy, disparity) per lambda.
    """
    moving, reference = ("b", "a") if direction == "b_to_a" else ("a", "b")
    if mode == "partial":
        train = train.subset(oracles.sorted_top_alpha_region(train, alpha).member_indices)
        test = test.subset(oracles.sorted_top_alpha_region(test, alpha).member_indices)
    mov, ref = train.group_scores(moving), train.group_scores(reference)
    evaluated, values = [], []
    for lam in lambdas:
        transformed = test.group_scores(moving)
        if lam != 0.0:
            score_map = build_score_map(mov, oracles.phi(ref, mov, lam))
            transformed = apply_psi(score_map, transformed)
        merged = test.replace_group_scores(moving, transformed)
        evaluated.append(merged)
        if mode == "global":
            values.append((metrics.auc(merged), metrics.xauc_disparity(merged)))
        else:
            whole = oracles.sorted_top_alpha_region(merged, 1.0)
            values.append((metrics.pauc(merged, whole), metrics.pxauc_disparity(merged, whole)))
    return evaluated, values


def records(s):
    """A set's labels, groups and scores, its records ordered by label,
    group and score."""
    order = np.lexsort((s.scores, s.groups, s.labels))
    return s.labels[order], s.groups[order], s.scores[order]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("direction", ["b_to_a", "a_to_b"])
@pytest.mark.parametrize("mode", ["global", "partial"])
def test_sweep_equals_per_lambda_pipeline_with_ties(mode, direction, seed, monkeypatch):
    # a small score pool ties many train and test scores, inside and across groups,
    # zeros of both signs among them; lambda 1e-15 moves no score but still sends
    # test scores through the clamped map
    rng = np.random.default_rng(950 + seed)
    pool = np.append([0.0, -0.0, 1.0], rng.random(25))
    train = oracles.random_score_set(rng, 300, score_pool=pool)
    test = oracles.random_score_set(rng, 200, score_pool=np.append(pool[:15], rng.random(10)))
    lams = [0.0, 1e-15, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]
    alpha = 0.6 if mode == "partial" else None

    # record the records each lambda is evaluated on; the sweep evaluates a
    # region's records cell by cell, so they are compared in one fixed order
    seen = []
    first_metric = "auc" if mode == "global" else "pauc"
    evaluate = getattr(metrics, first_metric)

    def recording(s, *rest):
        seen.append(records(s))
        return evaluate(s, *rest)

    monkeypatch.setattr(metrics, first_metric, recording)
    points = sweep(train, test, lams, mode=mode, alpha=alpha, direction=direction)
    monkeypatch.undo()

    evaluated, values = reference_sweep(train, test, lams, mode, alpha, direction)
    assert len(seen) == len(evaluated)
    for got, want in zip(seen, evaluated):
        assert all(np.array_equal(g, w) for g, w in zip(got, records(want)))
    assert [(p.accuracy, p.disparity) for p in points] == values

    # and each mapped test set gives every record, in record order, the
    # reference chain's score bit for bit
    mapped = fit_and_map(train, test, lams, mode, alpha, direction)
    region = None if mode == "global" else oracles.sorted_top_alpha_region(test, alpha).member_indices
    assert len(mapped) == len(evaluated)
    for (lam, got), want in zip(mapped, evaluated):
        got = got if region is None else got.subset(region)
        assert got.scores.view(np.uint64).tolist() == want.scores.view(np.uint64).tolist(), lam
        assert np.array_equal(got.labels, want.labels) and np.array_equal(got.groups, want.groups)
