"""Tests for the sigmoid-rescaling and quantile-matching baselines."""

import numpy as np
import pytest

from fairpot.baselines import (
    DEFAULT_SCALE_GRID,
    PostLogitParams,
    apply_post_logit,
    fit_post_logit,
    wasserstein_fair,
)
from fairpot.metrics import GROUP_A, GROUP_B, ScoreSet, xauc_disparity
from fairpot.ot import wasserstein1_distance

import oracles


def make_set(scores, labels, groups):
    return ScoreSet(
        scores=np.asarray(scores, dtype=float),
        labels=np.asarray(labels),
        groups=np.asarray(groups),
    )


def group_auc(s: ScoreSet, group: str) -> float:
    from fairpot.metrics import auc

    return auc(s.subset(np.flatnonzero(s.group_mask(group))))


class TestApplyPostLogit:
    def test_sigmoid_at_zero(self):
        params = PostLogitParams(scale=1.0, offset=0.0)
        assert apply_post_logit(params, [0.0])[0] == 0.5

    def test_scale_offset_cancel(self):
        params = PostLogitParams(scale=2.0, offset=-1.0)
        assert apply_post_logit(params, [0.5])[0] == 0.5

    def test_monotone(self):
        params = PostLogitParams(scale=3.0, offset=0.2)
        rng = np.random.default_rng(8)
        s = np.sort(rng.random(30))
        out = apply_post_logit(params, s)
        assert np.all(np.diff(out) > 0)

    def test_output_open_unit_interval(self):
        params = PostLogitParams(scale=10.0, offset=0.0)
        out = apply_post_logit(params, [0.0, 1.0])
        assert np.all((out > 0) & (out < 1))


class TestFitPostLogit:
    def test_singleton_grid(self):
        rng = np.random.default_rng(21)
        train = oracles.random_score_set(rng, 50)
        params = fit_post_logit(train, grid=(1.0,))
        assert params.scale == 1.0

    def test_minimizer_verified_by_exhaustive_evaluation(self):
        rng = np.random.default_rng(22)
        train = oracles.random_score_set(rng, 80)
        grid = (0.5, 1.0, 2.0)
        params = fit_post_logit(train, grid=grid)
        scores_b = train.group_scores(GROUP_B)
        disparities = {}
        for scale in grid:
            cand = PostLogitParams(scale=scale, offset=0.0)
            tr = train.replace_group_scores(GROUP_B, apply_post_logit(cand, scores_b))
            disparities[scale] = xauc_disparity(tr)
        assert disparities[params.scale] == min(disparities.values())

    def test_already_fair_ties_take_smallest_scale(self):
        # no group-b negatives: every xauc term is 0 regardless of scale
        train = make_set([0.9, 0.1, 0.8], [1, 0, 1], ["a", "a", "b"])
        params = fit_post_logit(train, grid=(2.0, 0.5, 1.0))
        assert params.scale == 0.5

    def test_empty_grid_rejected(self):
        rng = np.random.default_rng(23)
        train = oracles.random_score_set(rng, 20)
        with pytest.raises(ValueError):
            fit_post_logit(train, grid=())

    def test_missing_group_rejected(self):
        train = make_set([0.9, 0.1], [1, 0], ["a", "a"])
        with pytest.raises(ValueError):
            fit_post_logit(train)

    def test_default_grid_shape(self):
        assert len(DEFAULT_SCALE_GRID) == 50
        assert DEFAULT_SCALE_GRID[0] == pytest.approx(0.1)
        assert DEFAULT_SCALE_GRID[-1] == pytest.approx(10.0)

    def test_within_group_auc_preserved_exactly(self):
        rng = np.random.default_rng(24)
        train = oracles.random_score_set(rng, 100)
        test = oracles.random_score_set(rng, 60)
        params = fit_post_logit(train)
        transformed = test.replace_group_scores(
            GROUP_B, apply_post_logit(params, test.group_scores(GROUP_B))
        )
        assert group_auc(transformed, GROUP_B) == group_auc(test, GROUP_B)


class TestWassersteinFair:
    def test_identical_group_distributions_nearly_fixed(self):
        rng = np.random.default_rng(31)
        base = rng.random(200)
        train = make_set(
            np.concatenate([base, base]),
            rng.integers(0, 2, 400),
            ["a"] * 200 + ["b"] * 200,
        )
        test_scores = rng.choice(base, size=100)
        test = make_set(test_scores, rng.integers(0, 2, 100), ["a", "b"] * 50)
        out = wasserstein_fair(train, test)
        np.testing.assert_allclose(out.scores, test.scores, atol=1e-12)

    def test_point_masses_meet_in_the_middle(self):
        train = make_set([0.0] * 4 + [1.0] * 4, [1, 0] * 4, ["a"] * 4 + ["b"] * 4)
        test = make_set([0.0, 1.0], [1, 0], ["a", "b"])
        out = wasserstein_fair(train, test)
        assert np.array_equal(out.scores, [0.5, 0.5])

    def test_rank_monotone_within_each_group(self):
        rng = np.random.default_rng(32)
        train = oracles.random_score_set(rng, 150)
        test = oracles.random_score_set(rng, 90)
        out = wasserstein_fair(train, test)
        for g in (GROUP_A, GROUP_B):
            before = test.group_scores(g)
            after = out.group_scores(g)
            order = np.argsort(before, kind="stable")
            assert np.all(np.diff(after[order]) >= 0)

    def test_reduces_w1_when_groups_differ(self):
        # separated group distributions: alignment must shrink the gap
        rng = np.random.default_rng(33)
        n = 150
        a_scores = np.clip(rng.normal(0.65, 0.1, n), 0, 1)
        b_scores = np.clip(rng.normal(0.35, 0.1, n), 0, 1)
        labels = rng.integers(0, 2, 2 * n)
        train = make_set(np.concatenate([a_scores, b_scores]), labels, ["a"] * n + ["b"] * n)
        a_test = np.clip(rng.normal(0.65, 0.1, 60), 0, 1)
        b_test = np.clip(rng.normal(0.35, 0.1, 60), 0, 1)
        test = make_set(
            np.concatenate([a_test, b_test]), rng.integers(0, 2, 120), ["a"] * 60 + ["b"] * 60
        )
        out = wasserstein_fair(train, test)
        pre = wasserstein1_distance(test.group_scores("a"), test.group_scores("b"))
        post = wasserstein1_distance(out.group_scores("a"), out.group_scores("b"))
        assert post < pre

    def test_labels_and_groups_unchanged(self):
        rng = np.random.default_rng(34)
        train = oracles.random_score_set(rng, 100)
        test = oracles.random_score_set(rng, 50)
        out = wasserstein_fair(train, test)
        assert np.array_equal(out.labels, test.labels)
        assert np.array_equal(out.groups, test.groups)

    def test_missing_group_rejected(self):
        rng = np.random.default_rng(35)
        train = oracles.random_score_set(rng, 50)
        only_a = make_set([0.5, 0.6], [1, 0], ["a", "a"])
        with pytest.raises(ValueError):
            wasserstein_fair(train, only_a)
