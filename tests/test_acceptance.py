"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL
line. Tolerances are fixed here, not tuned elsewhere."""

import time

import numpy as np
import pytest

from fairpot.baselines import apply_post_logit, fit_post_logit, wasserstein_fair
from fairpot.cli import _synthetic_scored_split, main
from fairpot.datagen import SyntheticConfig, generate_synthetic
from fairpot.io import DEFAULT_LAMBDAS, ExperimentConfig
from fairpot.metrics import auc, pauc, pxauc_disparity, top_alpha_region, xauc, xauc_disparity
from fairpot.ot import solve_ot_1d, wasserstein1_distance
from fairpot.pareto import TradeoffPoint, pareto_frontier
from fairpot.transport import apply_psi, build_score_map, fit_and_map, sweep

import oracles

N_SEEDS = 20


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


@pytest.fixture(scope="module")
def synthetic_splits():
    cfg = ExperimentConfig()
    return [_synthetic_scored_split(cfg, seed) for seed in range(N_SEEDS)]


def test_criterion_01_metric_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(20250101)
    exact = True
    for case in range(500):
        n = int(rng.integers(1, 201))
        pool = rng.random(max(2, n // 3)) if case % 3 == 0 else None
        s = oracles.random_score_set(rng, n, score_pool=pool)
        alpha = float(rng.uniform(0.05, 1.0))
        region = top_alpha_region(s, alpha)
        exact &= auc(s) == oracles.brute_auc(s)
        exact &= xauc(s, "a", "b") == oracles.brute_xauc(s, "a", "b")
        exact &= xauc(s, "b", "a") == oracles.brute_xauc(s, "b", "a")
        exact &= pauc(s, region) == oracles.brute_pauc(s, region.member_indices)
        exact &= pxauc_disparity(s, region) == oracles.brute_pxauc_disparity(
            s, region.member_indices
        )
        if not exact:
            break
    elapsed = time.perf_counter() - start
    report(
        1,
        "metric estimators equal brute-force pair counting on 500 random sets",
        exact and elapsed < 10.0,
        f"{elapsed:.2f}s",
    )


def test_criterion_02_ot_matches_lp_oracle():
    rng = np.random.default_rng(20250102)
    ok = True
    for _ in range(200):
        n, m = int(rng.integers(1, 13)), int(rng.integers(1, 13))
        src, tgt = rng.random(n), rng.random(m)
        plan = solve_ot_1d(src, tgt)
        lp_cost, _ = oracles.lp_transport(src, tgt)
        ok &= abs(oracles.plan_cost(plan, src, tgt) - lp_cost) <= 1e-9
        dense = oracles.dense_plan(plan)
        ok &= float(np.max(np.abs(dense.sum(axis=1) - 1 / n))) <= 1e-10
        ok &= float(np.max(np.abs(dense.sum(axis=0) - 1 / m))) <= 1e-10
        if not ok:
            break
    report(2, "monotone OT equals exact-LP optimum on 200 instances", ok)


def test_criterion_03_lambda_zero_identity(synthetic_splits):
    ok = True
    for train, test in synthetic_splits:
        point = sweep(train, test, [0.0])[0]
        ok &= point.accuracy == auc(test) and point.disparity == xauc_disparity(test)
        partial = sweep(train, test, [0.0], mode="partial", alpha=0.3)[0]
        region = top_alpha_region(test, 0.3)
        sub = test.subset(region.member_indices)
        whole = top_alpha_region(sub, 1.0)
        ok &= partial.accuracy == pauc(sub, whole)
        ok &= partial.disparity == pxauc_disparity(sub, whole)
    # also on an arbitrary non-synthetic dataset
    rng = np.random.default_rng(20250103)
    train = oracles.random_score_set(rng, 300)
    test = oracles.random_score_set(rng, 100)
    point = sweep(train, test, [0.0])[0]
    ok &= point.accuracy == auc(test) and point.disparity == xauc_disparity(test)
    report(3, "lambda=0 sweep point is bit-identical to unadjusted metrics", ok)


def test_criterion_04_convex_hull_at_lambda_one(synthetic_splits):
    ok = True
    for train, _ in synthetic_splits:
        a = train.group_scores("a")
        [(_, mapped)] = fit_and_map(train, train, [1.0])
        moved = mapped.group_scores("b")
        ok &= bool(a.min() <= moved.min() and moved.max() <= a.max())
    report(4, "lambda=1 transported scores stay in the reference group's range", ok)


def test_criterion_05_disparity_reduction_on_default_recipe(synthetic_splits):
    start = time.perf_counter()
    at_zero, at_one = [], []
    for train, test in synthetic_splits:
        points = {p.lam: p for p in sweep(train, test, DEFAULT_LAMBDAS)}
        at_zero.append(points[0.0].disparity)
        at_one.append(points[1.0].disparity)
    elapsed = time.perf_counter() - start
    reduced = float(np.mean(at_one)) < float(np.mean(at_zero))
    report(
        5,
        "mean disparity at lambda=1 below lambda=0 over 20 seeds",
        reduced and elapsed < 60.0,
        f"{np.mean(at_zero):.4f} -> {np.mean(at_one):.4f}, {elapsed:.2f}s",
    )


def test_criterion_06_alpha_one_reduces_to_global(synthetic_splits):
    ok = True
    for train, test in synthetic_splits[:5]:
        global_points = sweep(train, test, DEFAULT_LAMBDAS, mode="global")
        partial_points = sweep(train, test, DEFAULT_LAMBDAS, mode="partial", alpha=1.0)
        for g, p in zip(global_points, partial_points):
            ok &= g.accuracy == p.accuracy and g.disparity == p.disparity
    report(6, "partial pipeline at alpha=1 equals the global pipeline exactly", ok)


def test_criterion_07_score_map_knot_consistency(synthetic_splits):
    ok = True
    for train, _ in synthetic_splits[:5]:
        a = train.group_scores("a")
        b = train.group_scores("b")
        for lam in (0.0, 0.3, 0.7, 1.0):
            phi = oracles.phi(a, b, lam)
            score_map = build_score_map(b, phi)
            ok &= bool(np.array_equal(apply_psi(score_map, b), phi))
            above = min(b.max() + 0.05, 1.0)
            below = max(b.min() - 0.05, 0.0)
            hi_knot = float(score_map.knots_y[-1])
            lo_knot = float(score_map.knots_y[0])
            ok &= apply_psi(score_map, [above])[0] == hi_knot
            ok &= apply_psi(score_map, [below])[0] == lo_knot
    report(7, "score map reproduces transported training scores and clamps outside", ok)


def test_criterion_08_pareto_matches_dominance_oracle():
    rng = np.random.default_rng(20250108)
    ok = True
    for case in range(1000):
        n = int(rng.integers(1, 51))
        coarse = case % 2 == 0
        pts = []
        for _ in range(n):
            acc = float(rng.integers(0, 6)) / 5 if coarse else float(rng.random())
            disp = float(rng.integers(0, 6)) / 5 if coarse else float(rng.random())
            pts.append(
                TradeoffPoint(
                    lam=float(rng.integers(0, 11)) / 10,
                    accuracy=acc,
                    disparity=disp,
                    method_tag=str(rng.choice(["m1", "m2"])),
                    replicate_id=int(rng.integers(0, 3)),
                )
            )
        frontier = pareto_frontier(pts)
        ok &= frontier == oracles.brute_frontier(pts)
        ok &= pareto_frontier(frontier) == frontier
        shuffled = list(pts)
        rng.shuffle(shuffled)
        ok &= pareto_frontier(shuffled) == frontier
        if not ok:
            break
    report(8, "frontier equals all-pairs dominance oracle on 1000 point sets", ok)


def test_criterion_09_baseline_contracts(synthetic_splits):
    pre_gaps, post_gaps = [], []
    post_logit_ok = True
    for train, test in synthetic_splits:
        aligned = wasserstein_fair(train, test)
        pre_gaps.append(
            wasserstein1_distance(test.group_scores("a"), test.group_scores("b"))
        )
        post_gaps.append(
            wasserstein1_distance(aligned.group_scores("a"), aligned.group_scores("b"))
        )
        params = fit_post_logit(train)
        rescaled = test.replace_group_scores(
            "b", apply_post_logit(params, test.group_scores("b"))
        )
        b_idx = np.flatnonzero(test.group_mask("b"))
        post_logit_ok &= auc(test.subset(b_idx)) == auc(rescaled.subset(b_idx))
    aligned_better = float(np.mean(post_gaps)) < float(np.mean(pre_gaps))
    report(
        9,
        "quantile matching shrinks the W1 gap (20-seed mean); rescaling keeps within-group AUC",
        aligned_better and post_logit_ok,
        f"W1 {np.mean(pre_gaps):.4f} -> {np.mean(post_gaps):.4f}",
    )


def test_criterion_10_synthetic_calibration():
    rates_a, rates_b = [], []
    for seed in range(N_SEEDS):
        cohort = generate_synthetic(SyntheticConfig(seed=seed))
        rates_a.append(float(cohort.labels[cohort.groups == "a"].mean()))
        rates_b.append(float(cohort.labels[cohort.groups == "b"].mean()))
    ok = abs(np.mean(rates_a) - 0.3) <= 0.03 and abs(np.mean(rates_b) - 0.1) <= 0.03
    report(
        10,
        "positive rates across 20 seeds within 0.03 of the 0.3/0.1 targets",
        ok,
        f"a {np.mean(rates_a):.4f}, b {np.mean(rates_b):.4f}",
    )


def test_criterion_11_sweep_wall_clock(tmp_path):
    import json

    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps({"output_dir": str(tmp_path), "bootstrap_n": 0, "seed": 0})
    )
    start = time.perf_counter()
    code = main(["sweep", "--config", str(config_path), "--method", "fairpot"])
    elapsed = time.perf_counter() - start
    report(
        11,
        "full 11-lambda sweep on the 3000-row cohort under 5 seconds",
        code == 0 and elapsed < 5.0,
        f"{elapsed:.2f}s",
    )
