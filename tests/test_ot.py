"""Tests for the 1D transport solver against an exact LP oracle."""

import numpy as np
import pytest
from scipy.stats import wasserstein_distance

from fairpot.ot import (
    TransportPlan,
    barycentric_projection,
    solve_ot_1d,
    wasserstein1_distance,
)

import oracles


def random_instance(rng, n, m, unit_range=True):
    lo, hi = (0.0, 1.0) if unit_range else (-5.0, 5.0)
    return rng.uniform(lo, hi, size=n), rng.uniform(lo, hi, size=m)



class TestSupportValidation:
    @pytest.mark.parametrize(
        "source, target, message",
        [
            ([], [0.5], "source support needs at least one point"),
            ([0.5], [], "target support needs at least one point"),
            ([[0.1, 0.2]], [0.5], "source support must be 1-dimensional"),
            ([0.5], 0.5, "target support must be 1-dimensional"),
            ([0.1, np.nan], [0.5], "source support points must be finite"),
            ([0.5], [np.inf, 0.2], "target support points must be finite"),
        ],
        ids=["empty", "empty-target", "2d", "0d-target", "nan", "inf-target"],
    )
    def test_bad_support_rejected(self, source, target, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            solve_ot_1d(source, target)
        with pytest.raises(ValueError, match=f"^{message}$"):
            wasserstein1_distance(source, target)


class TestTransportPlanValidation:
    def test_marginals_enforced(self):
        with pytest.raises(ValueError):
            TransportPlan(
                source_idx=np.array([0]),
                target_idx=np.array([0]),
                masses=np.array([0.7]),
                source_n=2,
                target_n=1,
            )

    def test_empty_side_rejected(self):
        with pytest.raises(ValueError, match="at least one source and one target point"):
            TransportPlan(
                source_idx=np.array([], dtype=np.int64),
                target_idx=np.array([], dtype=np.int64),
                masses=np.array([]),
                source_n=0,
                target_n=1,
            )

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            TransportPlan(
                source_idx=np.array([0, 0]),
                target_idx=np.array([0, 0]),
                masses=np.array([1.5, -0.5]),
                source_n=1,
                target_n=1,
            )


class TestSolveOt1d:
    def test_identical_supports_cost_zero(self):
        m = np.array([0.1, 0.5, 0.9])
        plan = solve_ot_1d(m, m)
        assert oracles.plan_cost(plan, m, m) == 0.0
        assert np.allclose(oracles.dense_plan(plan), np.eye(3) / 3.0)

    def test_two_to_three_split(self):
        # hand-checkable instance: monotone filling splits mass 1/3 and 1/6
        src = np.array([0.0, 1.0])
        tgt = np.array([0.0, 0.5, 1.0])
        plan = solve_ot_1d(src, tgt)
        expected = np.array([[2 / 6, 1 / 6, 0.0], [0.0, 1 / 6, 2 / 6]])
        assert np.array_equal(oracles.dense_plan(plan), expected)
        lp_cost, _ = oracles.lp_transport(src, tgt)
        assert oracles.plan_cost(plan, src, tgt) == pytest.approx(lp_cost, abs=1e-9)

    def test_unsorted_inputs_unpermuted(self):
        src = np.array([0.9, 0.1, 0.5])
        tgt = np.array([0.5, 0.9, 0.1])
        plan = solve_ot_1d(src, tgt)
        # matching equal values is the zero-cost optimum
        assert oracles.plan_cost(plan, src, tgt) == 0.0
        dense = oracles.dense_plan(plan)
        assert dense[0, 1] == pytest.approx(1 / 3)
        assert dense[1, 2] == pytest.approx(1 / 3)
        assert dense[2, 0] == pytest.approx(1 / 3)

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_lp_oracle(self, seed):
        rng = np.random.default_rng(200 + seed)
        n, m = int(rng.integers(1, 13)), int(rng.integers(1, 13))
        src, tgt = random_instance(rng, n, m, unit_range=bool(seed % 2))
        plan = solve_ot_1d(src, tgt)
        lp_cost, _ = oracles.lp_transport(src, tgt)
        assert oracles.plan_cost(plan, src, tgt) == pytest.approx(lp_cost, abs=1e-9)

    @pytest.mark.parametrize("seed", range(10))
    def test_marginals_tight(self, seed):
        rng = np.random.default_rng(300 + seed)
        src, tgt = random_instance(rng, int(rng.integers(1, 40)), int(rng.integers(1, 40)))
        plan = solve_ot_1d(src, tgt)
        dense = oracles.dense_plan(plan)
        assert np.max(np.abs(dense.sum(axis=1) - 1 / len(src))) <= 1e-10
        assert np.max(np.abs(dense.sum(axis=0) - 1 / len(tgt))) <= 1e-10
        assert np.all(dense >= 0)

    @pytest.mark.parametrize("seed", range(10))
    def test_monotone_support(self, seed):
        # no crossing pairs once both supports are sorted ascending
        rng = np.random.default_rng(400 + seed)
        src, tgt = random_instance(rng, 15, 11)
        plan = solve_ot_1d(src, tgt)
        src_rank = np.argsort(np.argsort(src))
        tgt_rank = np.argsort(np.argsort(tgt))
        cells = sorted(
            (src_rank[i], tgt_rank[j])
            for i, j in zip(plan.source_idx, plan.target_idx)
        )
        for (i1, j1), (i2, j2) in zip(cells, cells[1:]):
            if i1 < i2:
                assert j1 <= j2


    def test_repeated_points_act_as_weights(self):
        # masses 1/4, 3/4 on [0, 1] and 1/2, 1/2 on [0.2, 0.8]
        src = np.array([0.0, 1.0, 1.0, 1.0])
        tgt = np.array([0.2, 0.8])
        plan = solve_ot_1d(src, tgt)
        assert np.array_equal(oracles.dense_plan(plan).sum(axis=0), [0.5, 0.5])
        lp_cost, _ = oracles.lp_transport(src, tgt)
        assert oracles.plan_cost(plan, src, tgt) == pytest.approx(lp_cost, abs=1e-9)
        assert oracles.plan_cost(plan, src, tgt) == pytest.approx(0.25 * 0.04 + 0.25 * 0.64 + 0.5 * 0.04)


class TestBarycentricProjection:
    def test_identity_plan(self):
        m = np.array([0.3, 0.6, 0.9])
        plan = solve_ot_1d(m, m)
        assert np.array_equal(barycentric_projection(plan, m), m)

    def test_one_to_one_match(self):
        src = np.array([0.0, 1.0])
        tgt = np.array([10.0, 20.0])
        plan = solve_ot_1d(src, tgt)
        assert np.array_equal(barycentric_projection(plan, tgt), [10.0, 20.0])

    def test_two_to_three_averages(self):
        # row masses (1/3, 1/6) and (1/6, 1/3) average to 1/6 and 5/6
        src = np.array([0.0, 1.0])
        tgt = np.array([0.0, 0.5, 1.0])
        plan = solve_ot_1d(src, tgt)
        proj = barycentric_projection(plan, tgt)
        assert proj == pytest.approx([1 / 6, 5 / 6])

    def test_dimension_mismatch(self):
        src = np.array([0.0, 1.0])
        tgt = np.array([0.0, 0.5, 1.0])
        plan = solve_ot_1d(src, tgt)
        with pytest.raises(ValueError):
            barycentric_projection(plan, [0.0, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_target_rejected(self, bad):
        tgt = np.array([0.1, 0.4, 0.3, 0.8])
        plan = solve_ot_1d([0.2, 0.5, 0.9], tgt)
        tgt[2] = bad
        with pytest.raises(ValueError, match="^target support points must be finite$"):
            barycentric_projection(plan, tgt)

    def test_one_target_per_row_is_returned_exactly(self):
        # equal sizes couple each source row to one target, whose bits the
        # row returns whatever its mass-weighted mean rounds to
        rng = np.random.default_rng(7)
        tgt = np.concatenate(([0.0, -0.0, 5e-324, -5e-324, 0.1, 1 / 3], rng.uniform(-2, 2, 30)))
        tgt = rng.permutation(tgt)
        src = rng.uniform(0.0, 1.0, len(tgt))
        plan = solve_ot_1d(src, tgt)
        matched = np.empty_like(tgt)
        matched[np.argsort(src, kind="stable")] = tgt[np.argsort(tgt, kind="stable")]
        proj = barycentric_projection(plan, tgt)
        assert proj.view(np.uint64).tolist() == matched.view(np.uint64).tolist()

    @pytest.mark.parametrize("seed", range(8))
    def test_within_target_hull_and_monotone(self, seed):
        rng = np.random.default_rng(500 + seed)
        src, tgt = random_instance(rng, 20, 14)
        plan = solve_ot_1d(src, tgt)
        proj = barycentric_projection(plan, tgt)
        assert proj.min() >= tgt.min()
        assert proj.max() <= tgt.max()
        order = np.argsort(src, kind="stable")
        assert np.all(np.diff(proj[order]) >= 0)


class TestWasserstein1:
    def test_identical_measures(self):
        m = np.array([0.2, 0.4, 0.8])
        assert wasserstein1_distance(m, m) == 0.0

    def test_point_masses(self):
        a = np.array([0.0])
        b = np.array([1.0])
        assert wasserstein1_distance(a, b) == 1.0

    def test_shifted_pair(self):
        a = np.array([0.0, 1.0])
        b = np.array([0.5, 1.5])
        assert wasserstein1_distance(a, b) == pytest.approx(0.5)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_scipy(self, seed):
        rng = np.random.default_rng(600 + seed)
        n, m = int(rng.integers(1, 30)), int(rng.integers(1, 30))
        a = rng.uniform(-2, 2, size=n)
        b = rng.uniform(-2, 2, size=m)
        expected = wasserstein_distance(a, b)
        assert wasserstein1_distance(a, b) == pytest.approx(expected, abs=1e-12)

    def test_repeated_points_act_as_weights(self):
        # masses 3/4, 1/4 against 1/4, 3/4 on the same two points
        a = np.array([0.0, 0.0, 0.0, 1.0])
        b = np.array([0.0, 1.0, 1.0, 1.0])
        expected = wasserstein_distance([0.0, 1.0], [0.0, 1.0], [0.75, 0.25], [0.25, 0.75])
        assert wasserstein1_distance(a, b) == pytest.approx(expected, abs=1e-12)
        assert wasserstein1_distance(a, b) == 0.5
