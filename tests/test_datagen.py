"""Tests for the synthetic cohort generator and the plumbing scorer."""

import hashlib

import numpy as np
import pytest

from fairpot._util import sigmoid
from fairpot.datagen import (
    SyntheticConfig,
    calibrate_intercept,
    fit_logistic_scorer,
    generate_synthetic,
    stream,
)

SEEDS = range(20)


class TestSyntheticConfig:
    def test_defaults(self):
        cfg = SyntheticConfig()
        assert cfg.n_samples == 3000
        assert cfg.n_features == 5
        assert (cfg.mean_a, cfg.mean_b) == (0.8, 0.1)
        assert (cfg.target_pos_rate_a, cfg.target_pos_rate_b) == (0.3, 0.1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_samples": 0},
            {"std": 0.0},
            {"target_pos_rate_a": 0.0},
            {"target_pos_rate_b": 1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SyntheticConfig(**kwargs)


class TestGenerateSynthetic:
    def test_even_group_split(self):
        cohort = generate_synthetic(SyntheticConfig(seed=0))
        assert int(np.sum(cohort.groups == "a")) == 1500
        assert int(np.sum(cohort.groups == "b")) == 1500

    def test_odd_sample_count_gives_extra_to_a(self):
        cohort = generate_synthetic(SyntheticConfig(n_samples=7, seed=1))
        assert int(np.sum(cohort.groups == "a")) == 4
        assert int(np.sum(cohort.groups == "b")) == 3

    def test_same_seed_bit_identical(self):
        first = generate_synthetic(SyntheticConfig(seed=5))
        second = generate_synthetic(SyntheticConfig(seed=5))
        assert np.array_equal(first.features, second.features)
        assert np.array_equal(first.labels, second.labels)
        assert np.array_equal(first.groups, second.groups)

    def test_different_seed_differs(self):
        first = generate_synthetic(SyntheticConfig(seed=5))
        second = generate_synthetic(SyntheticConfig(seed=6))
        assert not np.array_equal(first.features, second.features)

    def test_positive_rates_calibrated_over_seeds(self):
        rates_a, rates_b = [], []
        for seed in SEEDS:
            cohort = generate_synthetic(SyntheticConfig(seed=seed))
            rates_a.append(cohort.labels[cohort.groups == "a"].mean())
            rates_b.append(cohort.labels[cohort.groups == "b"].mean())
        assert abs(np.mean(rates_a) - 0.3) <= 0.03
        assert abs(np.mean(rates_b) - 0.1) <= 0.03

    def test_symmetric_config_statistically_indistinguishable(self):
        # same means and targets: groups are exchangeable across seeds
        rates_a, rates_b = [], []
        for seed in SEEDS:
            cfg = SyntheticConfig(
                mean_a=0.4, mean_b=0.4, target_pos_rate_a=0.2, target_pos_rate_b=0.2, seed=seed
            )
            cohort = generate_synthetic(cfg)
            rates_a.append(cohort.labels[cohort.groups == "a"].mean())
            rates_b.append(cohort.labels[cohort.groups == "b"].mean())
        # both estimate the same 0.2 target; means differ by sampling noise only
        assert abs(np.mean(rates_a) - np.mean(rates_b)) < 0.02

    def test_feature_shape(self):
        cohort = generate_synthetic(SyntheticConfig(n_samples=10, n_features=3, seed=2))
        assert cohort.features.shape == (10, 3)


class TestCalibrateIntercept:
    def test_hits_target_mean(self):
        rng = np.random.default_rng(0)
        linear = rng.normal(0, 2, size=500)
        for target in (0.1, 0.3, 0.7):
            c = calibrate_intercept(linear, target)
            assert abs(float(np.mean(sigmoid(linear + c))) - target) <= 1e-3


class TestStream:
    def test_streams_are_independent(self):
        a = stream(0, 0, 0).random(5)
        b = stream(0, 0, 1).random(5)
        c = stream(0, 1, 0).random(5)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_streams_reproducible(self):
        assert np.array_equal(stream(9, 2, 1).random(8), stream(9, 2, 1).random(8))


class TestLogisticScorer:
    def test_separable_two_points(self):
        scorer = fit_logistic_scorer(np.array([[0.0], [1.0]]), np.array([0, 1]))
        scores = scorer.score(np.array([[0.0], [1.0]]))
        assert scores[1] > scores[0]

    def test_zero_features_scores_constant(self):
        scorer = fit_logistic_scorer(np.empty((4, 0)), np.array([0, 1, 0, 1]))
        scores = scorer.score(np.empty((3, 0)))
        assert np.all(scores == sigmoid(scorer.intercept))

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            fit_logistic_scorer(np.array([[0.0], [1.0]]), np.array([1, 1]))

    @pytest.mark.parametrize(
        "labels",
        [[0, 0, 0], [1, 1, 1], [np.nan, np.nan, np.nan], [], [-0.0, 0.0, 0.0]],
        ids=["all_0", "all_1", "all_nan", "empty", "signed_zeros"],
    )
    def test_labels_without_two_values_rejected(self, labels):
        with pytest.raises(ValueError, match="^training data must contain both label classes$"):
            fit_logistic_scorer(np.zeros((len(labels), 1)), np.array(labels, dtype=float))

    @pytest.mark.parametrize(
        "labels", [[0, 1, 1], [1, 1, 0], [np.nan, 1.0, 1.0], [1.0, np.nan, np.nan]],
        ids=["0_first", "1_first", "nan_first", "nan_after"],
    )
    def test_labels_with_two_values_fit(self, labels):
        # np.unique counts a nan beside a number as two values, so the fit
        # runs, and its nan gradient makes nan weights
        y = np.array(labels, dtype=float)
        scorer = fit_logistic_scorer(np.array([[0.0], [1.0], [2.0]]), y)
        assert np.isnan(scorer.intercept) == bool(np.any(np.isnan(y)))

    def test_length_check_comes_before_the_label_check(self):
        with pytest.raises(ValueError, match="aligned with labels"):
            fit_logistic_scorer(np.zeros((3, 1)), np.array([1, 1]))

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(50, 4))
        y = rng.integers(0, 2, 50)
        s1 = fit_logistic_scorer(x, y)
        s2 = fit_logistic_scorer(x, y)
        assert np.array_equal(s1.weights, s2.weights)
        assert s1.intercept == s2.intercept

    def test_scores_in_open_interval(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(60, 3))
        y = (x[:, 0] > 0).astype(int)
        scorer = fit_logistic_scorer(x, y)
        scores = scorer.score(x)
        assert np.all((scores > 0) & (scores < 1))


class TestCohortScoringBehavior:
    def test_group_b_scores_below_group_a_on_defaults(self):
        from fairpot.cli import _synthetic_scored_split
        from fairpot.io import ExperimentConfig

        cfg = ExperimentConfig()
        means_a, means_b = [], []
        for seed in SEEDS:
            train, _ = _synthetic_scored_split(cfg, seed)
            means_a.append(train.group_scores("a").mean())
            means_b.append(train.group_scores("b").mean())
        assert np.mean(means_b) < np.mean(means_a)

    def test_scorer_beats_chance_on_cohort(self):
        from fairpot.cli import _synthetic_scored_split
        from fairpot.io import ExperimentConfig
        from fairpot.metrics import auc

        cfg = ExperimentConfig()
        aucs = []
        for seed in SEEDS:
            _, test = _synthetic_scored_split(cfg, seed)
            aucs.append(auc(test))
        assert all(a > 0.5 for a in aucs)


def sha256(arr) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


# Every default cohort holds 1500 group-a rows, then 1500 group-b rows.
GROUPS_SHA = "29b7b4229c3521d9a9eeb67858e46237dba1fa912f346ef6e7178b08040b99fc"
# seed: (features, labels) of generate_synthetic(SyntheticConfig(seed=seed))
COHORT_SHA = {
    0: ("1f354b895acbb6a4e1fc3ebb7fa3321e4892dc5526285983559a735850e94572",
        "f6dd00fd528b522f7ca56e6f65a5fd5c323a373acf956229fbf322d9317eeba2"),
    1: ("402f16b0bb0bc69dccae324c4ad2571eaa6591838be016cbf5472b60bacb9141",
        "3a5590d7a69a844bef32a81b66677b43de3826ab12c3d0f250271015194bf1b5"),
    7: ("91d6b6a89022f28eaea6f5cdfdcb33d2bb56a882f654d45093deae8106b19e96",
        "37677cce056b04b49d648572dc8ef8a87dcccf7a7c8f4b6ba170402394c40bba"),
    123: ("1112030d1eb7dfc6bce7c9730887e7b7a04c37eab35f19721f6003551e345915",
          "89761d64e9ed82c1d02a683c810426ab352e3246d6c0af83edcab42e9991e60d"),
}
# seed: (train scores, test scores) of cli._synthetic_scored_split(ExperimentConfig(), seed)
SPLIT_SHA = {
    0: ("a5472bd89426148fdecdc36747f4119028c4aefba903d0f3c4f787214b3d33ae",
        "b717b370130953437afe1ba70494019cca4923f155b115781d34d3d9bdb7553f"),
    1: ("1aaee3a67639f5ac549146a2e5f21961a37aa35311e5e1da2a6050da1f68580d",
        "e5830800d76f96596324e063a83fa1eab6215f2da7101fc71e0285052669a15a"),
    7: ("6ee1e8e70fa45ec4e0e3fa90a1f4dfe6bc61dbf7458f7ddf1a062f12fbc27f6d",
        "b7f0be9cb7e66ff5df0145385ad6fae6b82a70072a27e2a4eac63e86f3d0edcf"),
    123: ("64e2f26149002254ce54cef952c3d5eca0c1cfa76b52e03e1ac248b42b62d5f5",
          "a00f247035af7927f16203db7d67994f90d124b1e4545a4795d0e3add50be050"),
}


class TestCohortBytes:
    """The cohort and its scored split are pinned byte for byte, so a change
    to how Gaussians are drawn cannot silently move the paper's protocol."""

    @pytest.mark.parametrize("seed", sorted(COHORT_SHA))
    def test_cohort_bytes(self, seed):
        cohort = generate_synthetic(SyntheticConfig(seed=seed))
        assert (cohort.features.dtype, cohort.labels.dtype, cohort.groups.dtype) == (
            np.float64, np.int64, np.dtype("U1"))
        assert (sha256(cohort.features), sha256(cohort.labels)) == COHORT_SHA[seed]
        assert sha256(cohort.groups) == GROUPS_SHA

    @pytest.mark.parametrize("seed", sorted(SPLIT_SHA))
    def test_scored_split_bytes(self, seed):
        from fairpot.cli import _synthetic_scored_split
        from fairpot.io import ExperimentConfig

        train, test = _synthetic_scored_split(ExperimentConfig(), seed)
        assert (len(train), len(test)) == (2400, 600)
        assert (sha256(train.scores), sha256(test.scores)) == SPLIT_SHA[seed]
