"""Tests for non-dominated filtering."""

import numpy as np
import pytest

from fairpot.pareto import TradeoffPoint, pareto_frontier

import oracles


def random_points(rng, n, coarse=False):
    pts = []
    for i in range(n):
        if coarse:
            acc = float(rng.integers(0, 5)) / 4
            disp = float(rng.integers(0, 5)) / 4
        else:
            acc = float(rng.random())
            disp = float(rng.random())
        pts.append(
            TradeoffPoint(
                lam=float(rng.integers(0, 11)) / 10,
                accuracy=acc,
                disparity=disp,
                method_tag=rng.choice(["fairpot", "post-logit"]),
                replicate_id=int(rng.integers(0, 3)),
            )
        )
    return pts


class TestDominates:
    """The dominance rule of ``oracles.dominates``, which the frontier
    oracle and ``test_removed_points_are_dominated_by_a_survivor`` apply."""

    def test_strictly_better_both(self):
        assert oracles.dominates(TradeoffPoint(0, 0.9, 0.1), TradeoffPoint(0, 0.8, 0.2))

    def test_equal_points_do_not_dominate(self):
        p = TradeoffPoint(0, 0.9, 0.1)
        q = TradeoffPoint(1, 0.9, 0.1)
        assert not oracles.dominates(p, q) and not oracles.dominates(q, p)

    def test_one_axis_each_way_is_incomparable(self):
        p = TradeoffPoint(0, 0.9, 0.2)
        q = TradeoffPoint(0, 0.8, 0.1)
        assert not oracles.dominates(p, q) and not oracles.dominates(q, p)


class TestParetoFrontier:
    def test_empty(self):
        assert pareto_frontier([]) == []

    def test_single_point(self):
        p = TradeoffPoint(0.3, 0.7, 0.2)
        assert pareto_frontier([p]) == [p]

    def test_incomparable_pair_both_kept(self):
        p = TradeoffPoint(0.0, 0.9, 0.1)
        q = TradeoffPoint(0.1, 0.8, 0.2)
        assert pareto_frontier([p, q]) == [p]  # p dominates q here: lower disp, higher acc

    def test_true_trade_off_keeps_both(self):
        p = TradeoffPoint(0.0, 0.8, 0.1)
        q = TradeoffPoint(0.1, 0.9, 0.2)
        out = pareto_frontier([p, q])
        assert out == [p, q]  # ascending disparity

    def test_duplicates_keep_lowest_lambda(self):
        p = TradeoffPoint(0.4, 0.8, 0.1, "fairpot")
        q = TradeoffPoint(0.2, 0.8, 0.1, "fairpot")
        assert pareto_frontier([p, q]) == [q]

    def test_duplicate_tie_breaks_on_method_tag(self):
        p = TradeoffPoint(0.2, 0.8, 0.1, "wasserstein")
        q = TradeoffPoint(0.2, 0.8, 0.1, "fairpot")
        assert pareto_frontier([p, q]) == [q]

    def test_output_sorted_by_disparity(self):
        rng = np.random.default_rng(40)
        out = pareto_frontier(random_points(rng, 60))
        disp = [p.disparity for p in out]
        assert disp == sorted(disp)

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(700 + seed)
        pts = random_points(rng, int(rng.integers(1, 50)), coarse=bool(seed % 2))
        assert pareto_frontier(pts) == oracles.brute_frontier(pts)

    @pytest.mark.parametrize("seed", range(10))
    def test_idempotent(self, seed):
        rng = np.random.default_rng(800 + seed)
        pts = random_points(rng, 40, coarse=True)
        once = pareto_frontier(pts)
        assert pareto_frontier(once) == once

    @pytest.mark.parametrize("seed", range(10))
    def test_permutation_invariant(self, seed):
        rng = np.random.default_rng(900 + seed)
        pts = random_points(rng, 40, coarse=True)
        shuffled = list(pts)
        rng.shuffle(shuffled)
        assert pareto_frontier(pts) == pareto_frontier(shuffled)

    @pytest.mark.parametrize("seed", range(10))
    def test_removed_points_are_dominated_by_a_survivor(self, seed):
        rng = np.random.default_rng(1000 + seed)
        pts = random_points(rng, 30, coarse=True)
        frontier = pareto_frontier(pts)
        kept_coords = {(p.disparity, p.accuracy) for p in frontier}
        for p in pts:
            if (p.disparity, p.accuracy) in kept_coords:
                continue
            assert any(oracles.dominates(f, p) for f in frontier)

    def test_validation(self):
        with pytest.raises(ValueError):
            TradeoffPoint(0.0, 1.2, 0.1)
        with pytest.raises(ValueError):
            TradeoffPoint(0.0, 0.5, -0.1)
