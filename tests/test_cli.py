"""End-to-end tests for the command-line harness."""

import csv
import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fairpot
from fairpot import baselines, cli, datagen, metrics, transport
from fairpot.cli import main
from fairpot.io import (
    SWEEP_HEADER,
    ExperimentConfig,
    read_score_file,
    read_sweep_results,
    write_score_file,
    write_sweep_results,
)
from fairpot.metrics import ScoreSet

import oracles


# Whether this test process runs a multi-replicate synthetic sweep's
# replicates in forked workers.
SYNTHETIC_REPLICATES_POOLED = (
    hasattr(os, "sched_getaffinity")
    and len(os.sched_getaffinity(0)) >= 2
    and "fork" in multiprocessing.get_all_start_methods()
)


def write_config(tmp_path, **kwargs):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(kwargs))
    return str(path)


def run(*argv):
    return main(list(argv))


class TestSynth:
    def test_default_split_sizes(self, tmp_path):
        cfg = write_config(tmp_path, output_dir=str(tmp_path))
        assert run("synth", "--config", cfg) == 0
        train = read_score_file(tmp_path / "train_scores.csv")
        test = read_score_file(tmp_path / "test_scores.csv")
        assert len(train) == 2400
        assert len(test) == 600

    def test_seed_repeat_identical_bytes(self, tmp_path):
        out1, out2 = tmp_path / "one", tmp_path / "two"
        for out in (out1, out2):
            cfg = write_config(tmp_path, output_dir=str(out), seed=7)
            assert run("synth", "--config", cfg) == 0
        assert (out1 / "train_scores.csv").read_bytes() == (out2 / "train_scores.csv").read_bytes()
        assert (out1 / "test_scores.csv").read_bytes() == (out2 / "test_scores.csv").read_bytes()

    def test_half_split(self, tmp_path):
        cfg = write_config(tmp_path, output_dir=str(tmp_path), split_ratio=0.5)
        assert run("synth", "--config", cfg) == 0
        assert len(read_score_file(tmp_path / "train_scores.csv")) == 1500
        assert len(read_score_file(tmp_path / "test_scores.csv")) == 1500


class TestSweep:
    def test_unadjusted_single_point_matches_metrics(self, tmp_path):
        cfg = write_config(tmp_path, output_dir=str(tmp_path), bootstrap_n=0, seed=3)
        assert run("synth", "--config", cfg) == 0
        assert run("sweep", "--config", cfg, "--method", "unadjusted") == 0
        rows = read_sweep_results(tmp_path / "sweep_unadjusted_global_results.csv")
        assert len(rows) == 1
        # synthetic mode with bootstrap_n=0 evaluates the same seed-3 split
        test = read_score_file(tmp_path / "test_scores.csv")
        assert rows[0].accuracy == pytest.approx(metrics.auc(test), abs=1e-9)
        assert rows[0].disparity == pytest.approx(metrics.xauc_disparity(test), abs=1e-9)

    def test_fairpot_lambda_zero_equals_unadjusted_exactly(self, tmp_path):
        cfg = write_config(
            tmp_path, output_dir=str(tmp_path), bootstrap_n=2, seed=11, lambdas=[0.0]
        )
        assert run("sweep", "--config", cfg, "--method", "fairpot") == 0
        assert run("sweep", "--config", cfg, "--method", "unadjusted") == 0
        fair = read_sweep_results(tmp_path / "sweep_fairpot_global_results.csv")
        base = read_sweep_results(tmp_path / "sweep_unadjusted_global_results.csv")
        assert len(fair) == len(base) == 2
        for f, u in zip(fair, base):
            assert f.replicate == u.replicate
            assert f.accuracy == u.accuracy
            assert f.disparity == u.disparity

    def test_file_mode_bootstrap(self, tmp_path):
        cfg = write_config(tmp_path, output_dir=str(tmp_path), seed=5)
        assert run("synth", "--config", cfg) == 0
        cfg2 = write_config(
            tmp_path,
            output_dir=str(tmp_path),
            seed=5,
            bootstrap_n=3,
            lambdas=[0.0, 1.0],
            train_path=str(tmp_path / "train_scores.csv"),
            test_path=str(tmp_path / "test_scores.csv"),
        )
        assert run("sweep", "--config", cfg2, "--method", "fairpot") == 0
        rows = read_sweep_results(tmp_path / "sweep_fairpot_global_results.csv")
        assert len(rows) == 6  # 2 lambdas x 3 replicates
        # resampled replicates differ from each other
        by_rep = {r.replicate: r.accuracy for r in rows if r.lam == 0.0}
        assert len(set(by_rep.values())) > 1

    def test_deterministic_output_bytes(self, tmp_path):
        cfg = write_config(
            tmp_path, output_dir=str(tmp_path), bootstrap_n=2, seed=2, lambdas=[0.0, 0.5]
        )
        assert run("sweep", "--config", cfg, "--method", "fairpot") == 0
        first = (tmp_path / "sweep_fairpot_global_results.csv").read_bytes()
        assert run("sweep", "--config", cfg, "--method", "fairpot") == 0
        second = (tmp_path / "sweep_fairpot_global_results.csv").read_bytes()
        assert first == second

    def test_partial_mode_alpha_recorded(self, tmp_path):
        cfg = write_config(
            tmp_path, output_dir=str(tmp_path), bootstrap_n=1, seed=1, lambdas=[0.0, 1.0]
        )
        assert run("sweep", "--config", cfg, "--method", "fairpot", "--mode", "partial",
                   "--alpha", "0.3") == 0
        rows = read_sweep_results(tmp_path / "sweep_fairpot_partial_results.csv")
        assert all(r.alpha == 0.3 for r in rows)

    def test_plot_emits_svg(self, tmp_path):
        cfg = write_config(
            tmp_path, output_dir=str(tmp_path), bootstrap_n=1, seed=1, lambdas=[0.0, 0.5, 1.0]
        )
        assert run("sweep", "--config", cfg, "--method", "fairpot", "--plot") == 0
        svg = (tmp_path / "sweep_fairpot_global.svg").read_text()
        assert svg.startswith("<svg")
        assert "circle" in svg and "path" in svg

    def test_frontier_flags_recomputable_from_mean_points(self, tmp_path):
        cfg = write_config(
            tmp_path, output_dir=str(tmp_path), bootstrap_n=3, seed=6, lambdas=[0.0, 0.5, 1.0]
        )
        assert run("sweep", "--config", cfg, "--method", "fairpot") == 0
        rows = read_sweep_results(tmp_path / "sweep_fairpot_global_results.csv")
        from fairpot.cli import _mean_points
        from fairpot.pareto import pareto_frontier

        expected = {(p.method_tag, p.lam) for p in pareto_frontier(_mean_points(rows))}
        for r in rows:
            assert r.on_frontier == ((r.method, r.lam) in expected)

    def test_direction_flag(self, tmp_path):
        cfg = write_config(
            tmp_path, output_dir=str(tmp_path), bootstrap_n=1, seed=8, lambdas=[0.0, 1.0]
        )
        assert run("sweep", "--config", cfg, "--method", "fairpot",
                   "--direction", "a_to_b") == 0
        rows = read_sweep_results(tmp_path / "sweep_fairpot_global_results.csv")
        assert len(rows) == 2 and not any(r.failed for r in rows)

    def test_baseline_methods_run(self, tmp_path):
        for method in ("post-logit", "wasserstein"):
            cfg = write_config(
                tmp_path, output_dir=str(tmp_path / method), bootstrap_n=1, seed=4
            )
            assert run("sweep", "--config", cfg, "--method", method) == 0
            rows = read_sweep_results(
                tmp_path / method / f"sweep_{method}_global_results.csv"
            )
            assert len(rows) == 1 and not rows[0].failed

    def test_all_replicates_failed_exit_one(self, tmp_path, capsys):
        # Both files hold both groups, but every test score of group a is above
        # every one of group b: the top region of each draw holds no group b,
        # which fails every wasserstein replicate at run time.
        rng = np.random.default_rng(0)
        train = oracles.random_score_set(rng, 40)
        test = oracles.random_score_set(rng, 40)
        test = test.with_scores(np.where(test.group_mask("a"), 0.5 + test.scores / 2,
                                         test.scores / 2))
        write_score_file(train, tmp_path / "train.csv")
        write_score_file(test, tmp_path / "test.csv")
        cfg = write_config(
            tmp_path,
            output_dir=str(tmp_path),
            bootstrap_n=2,
            alpha=0.1,
            train_path=str(tmp_path / "train.csv"),
            test_path=str(tmp_path / "test.csv"),
        )
        assert run("sweep", "--config", cfg, "--method", "wasserstein", "--mode", "partial") == 1
        assert capsys.readouterr().err.splitlines() == [
            f"replicate {rep}: test set contains no group 'b' records" for rep in range(2)
        ] + ["error: all replicates failed"]
        assert not list(tmp_path.glob("sweep_*"))

    def test_partial_failure_records_error_row(self, tmp_path):
        # tiny test set: some bootstrap resamples drop a group, run continues
        rng = np.random.default_rng(1)
        train = oracles.random_score_set(rng, 60)
        tiny = oracles.random_score_set(rng, 3)
        from fairpot.io import write_score_file

        write_score_file(train, tmp_path / "train.csv")
        write_score_file(tiny, tmp_path / "test.csv")
        cfg = write_config(
            tmp_path,
            output_dir=str(tmp_path),
            bootstrap_n=12,
            lambdas=[0.0],
            seed=0,
            train_path=str(tmp_path / "train.csv"),
            test_path=str(tmp_path / "test.csv"),
        )
        code = run("sweep", "--config", cfg, "--method", "fairpot")
        rows = read_sweep_results(tmp_path / "sweep_fairpot_global_results.csv")
        assert code in (0, 1)
        if code == 0:
            assert any(r.failed for r in rows)
            assert any(not r.failed for r in rows)


class TestBaselineFits:
    def test_file_mode_fits_post_logit_once_per_sweep(self, tmp_path, monkeypatch):
        paths = write_golden_inputs(tmp_path)
        calls = []
        real_fit = baselines.fit_post_logit

        def counting_fit(train, *args, **kwargs):
            calls.append(len(train))
            return real_fit(train, *args, **kwargs)

        monkeypatch.setattr(baselines, "fit_post_logit", counting_fit)
        for mode in ("global", "partial"):
            calls.clear()
            cfg = write_config(
                tmp_path,
                output_dir=str(tmp_path),
                bootstrap_n=5,
                train_path=str(paths["train"]),
                test_path=str(paths["test"]),
            )
            assert run("sweep", "--config", cfg, "--method", "post-logit", "--mode", mode) == 0
            assert len(read_sweep_results(tmp_path / f"sweep_post-logit_{mode}_results.csv")) == 5
            assert calls == [240 if mode == "global" else 72]

    def test_file_mode_maps_wasserstein_test_file_once_per_sweep(self, tmp_path, monkeypatch):
        paths = write_golden_inputs(tmp_path)
        calls = []
        real_map = baselines.wasserstein_fair

        def counting_map(train, test):
            calls.append((len(train), len(test)))
            return real_map(train, test)

        monkeypatch.setattr(baselines, "wasserstein_fair", counting_map)
        for mode in ("global", "partial"):
            calls.clear()
            cfg = write_config(
                tmp_path,
                output_dir=str(tmp_path),
                bootstrap_n=5,
                train_path=str(paths["train"]),
                test_path=str(paths["test"]),
            )
            assert run("sweep", "--config", cfg, "--method", "wasserstein", "--mode", mode) == 0
            assert len(read_sweep_results(tmp_path / f"sweep_wasserstein_{mode}_results.csv")) == 5
            # fitted on the train file (or its top region), applied to the whole test file
            assert calls == [(240 if mode == "global" else 72, 160)]

    @pytest.mark.parametrize("method", ["fairpot", "post-logit", "wasserstein", "unadjusted"])
    @pytest.mark.parametrize("mode", ["global", "partial"])
    def test_mapped_sets_keep_the_test_labels_and_groups(self, method, mode):
        # the sweep evaluates each mapped set's scores with the test set's
        # labels and groups, indexed once per replicate
        rng = np.random.default_rng(4)
        train, test = oracles.random_score_set(rng, 80), oracles.random_score_set(rng, 50)
        config = ExperimentConfig(method=method, mode=mode, lambdas=(0.0, 0.4, 1.0))
        mapped = cli._fit_and_map(config, train, test)
        assert len(mapped) == (3 if method == "fairpot" else 1)
        assert (mapped.check is None) == (method in ("post-logit", "unadjusted"))
        for _, s in mapped:
            assert np.array_equal(s.labels, test.labels)
            assert np.array_equal(s.groups, test.groups)
            assert np.array_equal(s.in_group_a, test.in_group_a)

    @pytest.mark.parametrize("mode", ["global", "partial"])
    def test_fairpot_fits_transport_once_per_training_set(self, tmp_path, monkeypatch, mode):
        # file mode: one training file, one fit for the whole sweep; synthetic
        # mode: each replicate draws its own cohort, so one fit per replicate.
        # Synthetic replicates may run in forked workers, so each call appends
        # a line (process id and sizes) to a file rather than to a list.
        paths = write_golden_inputs(tmp_path)
        log = tmp_path / "fit_calls.txt"
        real_fit = transport.fit_transport

        def counting_fit(ref_train, mov_train):
            with log.open("a") as fh:
                fh.write(f"{os.getpid()} {len(ref_train)} {len(mov_train)}\n")
            return real_fit(ref_train, mov_train)

        def logged_calls():
            lines = log.read_text().splitlines() if log.exists() else []
            log.unlink(missing_ok=True)
            return [tuple(int(v) for v in line.split()) for line in lines]

        monkeypatch.setattr(transport, "fit_transport", counting_fit)
        file_cfg = write_config(
            tmp_path,
            output_dir=str(tmp_path / "file"),
            bootstrap_n=5,
            lambdas=[0.0, 0.5, 1.0],
            train_path=str(paths["train"]),
            test_path=str(paths["test"]),
        )
        assert run("sweep", "--config", file_cfg, "--method", "fairpot", "--mode", mode) == 0
        assert len(read_sweep_results(tmp_path / "file" / f"sweep_fairpot_{mode}_results.csv")) == 15
        calls = logged_calls()
        assert len(calls) == 1
        assert calls[0][0] == os.getpid()  # file-mode replicates run in this process
        assert sum(calls[0][1:]) == (240 if mode == "global" else 72)

        synth_cfg = write_config(
            tmp_path, output_dir=str(tmp_path / "synth"), bootstrap_n=3, lambdas=[0.0, 1.0]
        )
        assert run("sweep", "--config", synth_cfg, "--method", "fairpot", "--mode", mode) == 0
        calls = logged_calls()
        assert len(calls) == 3
        # with two or more CPUs, every synthetic replicate runs in a worker
        assert [pid != os.getpid() for pid, _, _ in calls] == [SYNTHETIC_REPLICATES_POOLED] * 3

    @pytest.mark.parametrize("method", ["post-logit", "wasserstein", "fairpot"])
    def test_file_mode_fit_failure_fails_every_replicate(self, tmp_path, capsys, method):
        # group b scores all sit below group a's, so the train top region has
        # no b, which every method reports in the same words
        rng = np.random.default_rng(3)
        train = oracles.random_score_set(rng, 60)
        train = ScoreSet(
            scores=np.where(train.group_mask("a"), 0.5 + train.scores / 2, train.scores / 2),
            labels=train.labels,
            groups=train.groups,
        )
        write_score_file(train, tmp_path / "train.csv")
        write_score_file(oracles.random_score_set(rng, 40), tmp_path / "test.csv")
        cfg = write_config(
            tmp_path,
            output_dir=str(tmp_path),
            bootstrap_n=3,
            train_path=str(tmp_path / "train.csv"),
            test_path=str(tmp_path / "test.csv"),
        )
        assert run("sweep", "--config", cfg, "--method", method, "--mode", "partial",
                   "--alpha", "0.3") == 1
        assert capsys.readouterr().err.splitlines() == [
            f"replicate {rep}: train set contains no group 'b' records" for rep in range(3)
        ] + ["error: all replicates failed"]
        assert not list(tmp_path.glob("sweep_*"))


class TestReplicateFailures:
    def _fail_calibration(self, monkeypatch, bad_seeds):
        """Make intercept calibration raise for the cohorts of ``bad_seeds``."""
        real_generate, real_calibrate = datagen.generate_synthetic, datagen.calibrate_intercept

        def diverging(*args):
            raise RuntimeError("intercept calibration did not converge")

        def generate(cfg):
            calibrate = diverging if cfg.seed in bad_seeds else real_calibrate
            monkeypatch.setattr(datagen, "calibrate_intercept", calibrate)
            return real_generate(cfg)

        monkeypatch.setattr(cli, "generate_synthetic", generate)

    def test_calibration_error_fails_one_replicate(self, tmp_path, monkeypatch, capsys):
        self._fail_calibration(monkeypatch, bad_seeds={1})
        cfg = write_config(tmp_path, output_dir=str(tmp_path), bootstrap_n=3, seed=0)
        assert run("sweep", "--config", cfg, "--method", "unadjusted") == 0
        rows = read_sweep_results(tmp_path / "sweep_unadjusted_global_results.csv")
        assert [r.replicate for r in rows if r.failed] == [1]
        assert len(rows) == 3
        err = capsys.readouterr().err
        assert "replicate 1: intercept calibration did not converge" in err

    def test_calibration_error_in_every_replicate_exits_one(self, tmp_path, monkeypatch, capsys):
        self._fail_calibration(monkeypatch, bad_seeds={0, 1})
        cfg = write_config(tmp_path, output_dir=str(tmp_path), bootstrap_n=2, seed=0)
        assert run("sweep", "--config", cfg, "--method", "unadjusted") == 1
        assert capsys.readouterr().err.splitlines() == [
            "replicate 0: intercept calibration did not converge",
            "replicate 1: intercept calibration did not converge",
            "error: all replicates failed",
        ]


def write_rare_group_inputs(tmp_path, rare):
    """A 60-record train file with both groups, and a 24-record test file in
    which group ``rare`` has 2 records, scored 0.78 and 0.82: some resamples
    draw neither, and some top regions hold none of them."""
    rng = np.random.default_rng(41)
    groups = np.where(rng.random(60) < 0.5, "a", "b")
    train = ScoreSet(scores=rng.random(60), labels=rng.integers(0, 2, 60), groups=groups)
    common = "b" if rare == "a" else "a"
    test = ScoreSet(
        scores=np.concatenate([rng.random(22), [0.78, 0.82]]),
        labels=rng.integers(0, 2, 24),
        groups=np.array([common] * 22 + [rare] * 2),
    )
    write_score_file(train, tmp_path / "train.csv")
    write_score_file(test, tmp_path / "test.csv")
    return write_config(
        tmp_path,
        output_dir=str(tmp_path / "out"),
        seed=0,
        bootstrap_n=12,
        alpha=0.25,
        train_path=str(tmp_path / "train.csv"),
        test_path=str(tmp_path / "test.csv"),
    )


def sweep_outcome(capsys, out_dir, cfg, method, mode, direction="b_to_a"):
    """Exit code, stderr lines and the sha256 of the results file (or None)."""
    capsys.readouterr()
    code = run("sweep", "--config", cfg, "--method", method, "--mode", mode,
               "--direction", direction)
    results = out_dir / f"sweep_{method}_{mode}_results.csv"
    digest = hashlib.sha256(results.read_bytes()).hexdigest() if results.exists() else None
    return code, capsys.readouterr().err.splitlines(), digest


class TestReplicateGroupFailures:
    """Outcomes recorded from the releases that still rebuilt each method's
    map in every replicate: the same failed replicates, stderr lines and
    result bytes."""

    @pytest.mark.parametrize(
        "rare, method, mode, failed, digest",
        [
            ("b", "wasserstein", "global", [3, 10],
             "29d84680883eef2527b4b83eed12fb5afa9169106db5cb8f6abfecebe8738939"),
            ("b", "wasserstein", "partial", [3, 6, 8, 10, 11],
             "43764ca605c7ca2980fc2dc0a23dbcf89e1785019a3df3f88f2c87d5d0905bd1"),
            ("b", "post-logit", "global", [],
             "fcb25d7baed8dd30abfe411eef51ce1eef9cd35d3b689f0fc671ca09fe19ba42"),
            ("b", "post-logit", "partial", [],
             "6ca954a237e537c5886712f8431162931e635572bab7ed82cb7817d829b3667f"),
            ("b", "unadjusted", "global", [],
             "e3aab861f2fee65326ac7fd716c3da2a1c124eba3db085d3877a75c7fee3a7c4"),
            ("b", "unadjusted", "partial", [],
             "4e05e8cfd3e10f1e942650a8deebe8cc313e6b53a180407ba3f4063f61795172"),
            ("a", "wasserstein", "global", [3, 10],
             "5b0f5fe1626a1e614f8197963afe8ea14edf38a592d3e819e302e87974a30a31"),
            ("a", "wasserstein", "partial", [3, 6, 8, 10, 11],
             "1d467838fcef9daa80dac60947ff6f210a4474f82100e8c222480a00c4c37929"),
            ("a", "post-logit", "global", [],
             "bf69cafc23db43a2e94ceead6d8cbc50a4be1ef1f9835c4737c5afb41242e6a5"),
            ("a", "post-logit", "partial", [],
             "bd70528aa28f7b2ae823a9a42e6cb40e7cbae4ac77d3f1f4f545ca24de15c5ee"),
        ],
    )
    def test_rare_group_replicates(self, tmp_path, capsys, rare, method, mode, failed, digest):
        cfg = write_rare_group_inputs(tmp_path, rare)
        code, err, got = sweep_outcome(capsys, tmp_path / "out", cfg, method, mode)
        assert code == 0
        assert err == [f"replicate {rep}: test set contains no group {rare!r} records"
                       for rep in failed]
        assert got == digest
        rows = read_sweep_results(tmp_path / "out" / f"sweep_{method}_{mode}_results.csv")
        assert [r.replicate for r in rows if r.failed] == failed

    @pytest.mark.parametrize(
        "rare, mode, direction, digest",
        [
            ("b", "global", "b_to_a",
             "77220a6e1de4b9e0e2874ee2a28dfb77fba4b6a419b5a833d8b56388579af539"),
            ("b", "partial", "b_to_a",
             "34623db8e12b277383fb560edfd795bb7e7cc4cf9673e409fa78a9822e2040ae"),
            ("a", "global", "b_to_a",
             "4965e26448a335a5da46a789b0c75c05fd918ff4be0d0484403e4c2254fbfaf2"),
            ("a", "partial", "b_to_a",
             "0e2eb1342f7cb353bf9a6ae7635ddcb25ea8a13ed9a3109533926366181b4770"),
            ("a", "partial", "a_to_b",
             "2e6b901f7f1966ed17e8d9ecf3f068968050b2a941ea4507dd887ff0ddea6181"),
        ],
    )
    def test_rare_group_fairpot_replicates(self, tmp_path, capsys, rare, mode, direction, digest):
        # fairpot checks the drawn records, not the evaluated top region, so in
        # both modes only the draws without the rare group fail
        cfg = write_rare_group_inputs(tmp_path, rare)
        code, err, got = sweep_outcome(capsys, tmp_path / "out", cfg, "fairpot", mode, direction)
        assert code == 0
        assert err == [f"replicate {rep}: test set contains no group {rare!r} records"
                       for rep in (3, 10)]
        assert got == digest
        rows = read_sweep_results(tmp_path / "out" / f"sweep_fairpot_{mode}_results.csv")
        assert [r.replicate for r in rows if r.failed] == [3, 10]

    @pytest.mark.parametrize("mode", ["global", "partial"])
    def test_grid_order_does_not_change_a_point(self, tmp_path, capsys, mode):
        # 12 replicates: 13 lambdas walk lambda as the outer loop, 3 walk the
        # replicates; a (replicate, lambda) point is the same either way, and
        # so are the replicates that fail their draw check
        cfg = write_rare_group_inputs(tmp_path, "b")
        points = {}
        for lambdas in ([0.0, 0.5, 1.0], [i / 12 for i in range(13)]):
            config = json.loads(Path(cfg).read_text())
            Path(cfg).write_text(json.dumps({**config, "lambdas": lambdas}))
            code, err, _ = sweep_outcome(capsys, tmp_path / "out", cfg, "fairpot", mode)
            assert code == 0
            assert err == [f"replicate {rep}: test set contains no group 'b' records"
                           for rep in (3, 10)]
            rows = read_sweep_results(tmp_path / "out" / f"sweep_fairpot_{mode}_results.csv")
            points[len(lambdas)] = {
                (r.lam, r.replicate): (r.accuracy, r.disparity) for r in rows if not r.failed
            }
        assert len(points[3]) == 3 * 10 and len(points[13]) == 13 * 10
        assert points[3] == {key: points[13][key] for key in points[3]}

    @pytest.mark.parametrize(
        "lambdas, failing_map", [([0.0, 0.5, 1.0], 1), ([i / 12 for i in range(13)], 6)]
    )
    def test_an_error_building_a_map_fails_every_replicate(
        self, tmp_path, capsys, monkeypatch, lambdas, failing_map
    ):
        # The map of lambda 0.5 fails. With 3 lambdas every map is built
        # before any replicate is evaluated; with 13, five lambdas have been
        # evaluated by every replicate by then.
        real_build = transport.build_score_map
        built = []

        def failing_build(x, y):
            built.append(1)
            if len(built) == failing_map:
                raise ValueError("knots out of order")
            return real_build(x, y)

        monkeypatch.setattr(transport, "build_score_map", failing_build)
        cfg = write_rare_group_inputs(tmp_path, "b")
        config = json.loads(Path(cfg).read_text())
        Path(cfg).write_text(json.dumps({**config, "lambdas": lambdas}))
        code, err, digest = sweep_outcome(capsys, tmp_path / "out", cfg, "fairpot", "global")
        assert code == 1
        assert err == [f"replicate {rep}: knots out of order" for rep in range(12)] + [
            "error: all replicates failed"
        ]
        assert digest is None

    def test_fairpot_train_region_error_comes_before_the_draw_check(self, tmp_path, capsys):
        # The train top region holds no group b and replicates 3 and 10 draw no
        # group b: every replicate reports the fit error, as the baselines do.
        rng = np.random.default_rng(3)
        train = oracles.random_score_set(rng, 60)
        train = ScoreSet(
            scores=np.where(train.group_mask("a"), 0.5 + train.scores / 2, train.scores / 2),
            labels=train.labels,
            groups=train.groups,
        )
        cfg = write_rare_group_inputs(tmp_path, "b")
        write_score_file(train, tmp_path / "train.csv")
        code, err, digest = sweep_outcome(capsys, tmp_path / "out", cfg, "fairpot", "partial")
        assert code == 1
        assert err == [
            f"replicate {rep}: train set contains no group 'b' records" for rep in range(12)
        ] + ["error: all replicates failed"]
        assert digest is None


class TestPareto:
    def _make_results(self, tmp_path):
        cfg = write_config(
            tmp_path, output_dir=str(tmp_path), bootstrap_n=2, seed=9, lambdas=[0.0, 0.5, 1.0]
        )
        assert run("sweep", "--config", cfg, "--method", "fairpot") == 0
        assert run("sweep", "--config", cfg, "--method", "unadjusted") == 0
        return (
            tmp_path / "sweep_fairpot_global_results.csv",
            tmp_path / "sweep_unadjusted_global_results.csv",
        )

    def test_single_input(self, tmp_path):
        fair, _ = self._make_results(tmp_path)
        out = tmp_path / "frontier.csv"
        assert run("pareto", str(fair), "--output", str(out)) == 0
        rows = read_sweep_results(out)
        assert rows and all(r.on_frontier for r in rows)
        disp = [r.disparity for r in rows]
        assert disp == sorted(disp)

    def test_merged_matches_oracle(self, tmp_path):
        fair, unadj = self._make_results(tmp_path)
        out = tmp_path / "frontier.csv"
        assert run("pareto", str(fair), str(unadj), "--output", str(out)) == 0
        merged_rows = read_sweep_results(fair) + read_sweep_results(unadj)
        from fairpot.cli import _mean_points

        expected = oracles.brute_frontier(_mean_points(merged_rows))
        got = read_sweep_results(out)

        def printed(x):
            return format(x, ".10g")

        assert [(r.method, r.lam, printed(r.accuracy), printed(r.disparity)) for r in got] == [
            (p.method_tag, p.lam, printed(p.accuracy), printed(p.disparity)) for p in expected
        ]

    def test_incompatible_alpha_rejected(self, tmp_path):
        fair, _ = self._make_results(tmp_path)
        cfg = write_config(
            tmp_path, output_dir=str(tmp_path), bootstrap_n=1, seed=9, lambdas=[0.0]
        )
        assert run("sweep", "--config", cfg, "--method", "fairpot", "--mode", "partial",
                   "--alpha", "0.3") == 0
        partial = tmp_path / "sweep_fairpot_partial_results.csv"
        out = tmp_path / "frontier.csv"
        assert run("pareto", str(fair), str(partial), "--output", str(out)) == 2

    def test_a_file_merged_with_itself_rejected(self, tmp_path, capsys):
        # its replicates would be counted twice
        fair, _ = self._make_results(tmp_path)
        capsys.readouterr()
        out = tmp_path / "frontier.csv"
        assert run("pareto", str(fair), str(fair), "--output", str(out)) == 2
        assert capsys.readouterr().err == (
            "error: (method, lambda, replicate) ('fairpot', 0.0, 0) is read twice: "
            f"row 1 of {fair} and row 1 of {fair}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("mode", transport.MODES)
    def test_two_directions_of_one_method_rejected(self, tmp_path, capsys, mode):
        # the two directions' rows of one method would be averaged together
        results = [
            GOLDEN_DIR / f"{direction}_sweep_fairpot_{mode}_results.csv"
            for direction in ("b_to_a", "a_to_b")
        ]
        out = tmp_path / "frontier.csv"
        assert run("pareto", *map(str, results), "--output", str(out)) == 2
        assert capsys.readouterr().err == (
            "error: (method, lambda, replicate) ('fairpot', 0.0, 0) is read twice: "
            f"row 1 of {results[0]} and row 1 of {results[1]}\n"
        )
        assert not out.exists()

    def test_a_failed_write_names_its_file(self, tmp_path, capsys):
        out = tmp_path / "missing" / "frontier.csv"
        results = GOLDEN_DIR / "b_to_a_sweep_fairpot_global_results.csv"
        assert run("pareto", str(results), "--output", str(out)) == 1
        assert capsys.readouterr().err == f"error: cannot write {out}: No such file or directory\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "column, value, every_row, message",
        [
            (1, "nan", False, "3: lambda must be in [0, 1], got nan"),
            (1, "7", False, "3: lambda must be in [0, 1], got 7"),
            (2, "nan", True, "2: alpha must be in (0, 1], got nan"),
            (4, "1.5", False, "3: accuracy must be nan or in [0, 1], got 1.5"),
        ],
        ids=["lambda-nan", "lambda-7", "alpha-nan-everywhere", "accuracy-1.5"],
    )
    def test_malformed_row_rejected_with_its_line(
        self, tmp_path, capsys, column, value, every_row, message
    ):
        lines = (GOLDEN_DIR / "b_to_a_sweep_fairpot_global_results.csv").read_text().splitlines()
        for i in range(1, len(lines)) if every_row else [2]:
            fields = lines[i].split(",")
            fields[column] = value
            lines[i] = ",".join(fields)
        results = tmp_path / "results.csv"
        results.write_text("\n".join(lines) + "\n")
        out = tmp_path / "frontier.csv"
        assert run("pareto", str(results), "--output", str(out)) == 2
        assert capsys.readouterr().err == f"error: {results}:{message}\n"
        assert not out.exists()


class TestExitCodes:
    def test_missing_config_file(self, tmp_path):
        assert run("sweep", "--config", str(tmp_path / "nope.json")) in (1, 2)

    def test_unknown_config_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"mystery": 1}')
        assert run("sweep", "--config", str(path)) == 2

    def test_missing_score_file(self, tmp_path):
        cfg = write_config(
            tmp_path,
            train_path=str(tmp_path / "no.csv"),
            test_path=str(tmp_path / "no2.csv"),
        )
        assert run("sweep", "--config", cfg) in (1, 2)

    def test_negative_seed_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, output_dir=str(tmp_path), bootstrap_n=2, seed=-1)
        assert run("sweep", "--config", cfg) == 2
        assert run("sweep", "--config", write_config(tmp_path, output_dir=str(tmp_path)),
                   "--seed", "-3") == 2
        assert "seed must be non-negative" in capsys.readouterr().err
        assert not (tmp_path / "sweep_fairpot_global_results.csv").exists()

    def test_empty_split_rejected_by_sweep_as_by_synth(self, tmp_path, capsys):
        # checked once, before any replicate draws its cohort
        cfg = write_config(tmp_path, output_dir=str(tmp_path / "out"), split_ratio=0.0001)
        for command in ("synth", "sweep"):
            assert run(command, "--config", cfg) == 2
            assert capsys.readouterr().err == "error: split_ratio 0.0001 leaves an empty split\n"
        assert not (tmp_path / "out").exists()

    def test_duplicate_lambdas_rejected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, output_dir=str(tmp_path), bootstrap_n=1, lambdas=[0.0, 0.5, 0.5]
        )
        assert run("sweep", "--config", cfg) == 2
        assert "lambdas must be distinct" in capsys.readouterr().err
        assert not (tmp_path / "sweep_fairpot_global_results.csv").exists()

    def test_post_logit_direction_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, output_dir=str(tmp_path), bootstrap_n=1)
        assert run("sweep", "--config", cfg, "--method", "post-logit",
                   "--direction", "a_to_b") == 2
        assert "direction must be 'b_to_a'" in capsys.readouterr().err
        assert not (tmp_path / "sweep_post-logit_global_results.csv").exists()

    @pytest.mark.parametrize("empty", ["train", "test"])
    @pytest.mark.parametrize("method", ["fairpot", "post-logit", "wasserstein", "unadjusted"])
    def test_empty_score_file_rejected(self, tmp_path, capsys, method, empty):
        paths = write_golden_inputs(tmp_path)
        paths[empty].write_text("id,score,label,group\n")
        cfg = write_config(
            tmp_path,
            output_dir=str(tmp_path / "out"),
            bootstrap_n=2,
            train_path=str(paths["train"]),
            test_path=str(paths["test"]),
        )
        assert run("sweep", "--config", cfg, "--method", method) == 2
        assert capsys.readouterr().err == f"error: {paths[empty]}: no records\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("missing", ["a", "b"])
    @pytest.mark.parametrize(
        "file, method",
        [("train", "fairpot"), ("test", "fairpot"), ("train", "wasserstein"),
         ("test", "wasserstein"), ("train", "post-logit")],
    )
    def test_score_file_missing_a_group_rejected(self, tmp_path, capsys, file, method, missing):
        paths = write_single_group_file(tmp_path, file, missing)
        cfg = write_config(
            tmp_path,
            output_dir=str(tmp_path / "out"),
            bootstrap_n=2,
            train_path=str(paths["train"]),
            test_path=str(paths["test"]),
        )
        for mode in transport.MODES:
            assert run("sweep", "--config", cfg, "--method", method, "--mode", mode) == 2
            err = capsys.readouterr().err
            assert err == f"error: {paths[file]}: no group {missing!r} records\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("missing", ["a", "b"])
    @pytest.mark.parametrize(
        "file, method", [("train", "unadjusted"), ("test", "unadjusted"), ("test", "post-logit")]
    )
    def test_score_file_missing_a_group_kept(self, tmp_path, capsys, file, method, missing):
        # these methods score a file without one group, as they always have
        paths = write_single_group_file(tmp_path, file, missing)
        cfg = write_config(
            tmp_path,
            output_dir=str(tmp_path),
            bootstrap_n=2,
            train_path=str(paths["train"]),
            test_path=str(paths["test"]),
        )
        assert run("sweep", "--config", cfg, "--method", method) == 0
        assert capsys.readouterr().err == ""
        rows = read_sweep_results(tmp_path / f"sweep_{method}_global_results.csv")
        assert len(rows) == 2 and not any(r.failed for r in rows)

    def test_score_field_over_the_csv_limit_rejected(self, tmp_path, capsys):
        # such a line sends the file to the row reader, which names the line
        paths = write_golden_inputs(tmp_path)
        with paths["test"].open("a") as fh:
            fh.write(f"{'r' * 200_000},0.5,1,a\n")
        cfg = write_config(
            tmp_path,
            output_dir=str(tmp_path / "out"),
            bootstrap_n=2,
            train_path=str(paths["train"]),
            test_path=str(paths["test"]),
        )
        assert run("sweep", "--config", cfg) == 2
        limit = csv.field_size_limit()
        assert capsys.readouterr().err == (
            f"error: {paths['test']}:162: field larger than field limit ({limit})\n"
        )
        assert not (tmp_path / "out").exists()

    def test_results_field_over_the_csv_limit_rejected(self, tmp_path, capsys):
        path, out = tmp_path / "results.csv", tmp_path / "frontier.csv"
        path.write_text(f"{','.join(SWEEP_HEADER)}\n{'m' * 200_000},0,1,0,0.5,0.5,true\n")
        assert run("pareto", str(path), "--output", str(out)) == 2
        limit = csv.field_size_limit()
        assert capsys.readouterr().err == (
            f"error: {path}:2: field larger than field limit ({limit})\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("file", ["train", "test", "config", "results"])
    def test_bytes_that_are_not_utf8_rejected(self, tmp_path, capsys, file):
        # the error names the file, not a line: text is decoded in chunks
        paths = write_golden_inputs(tmp_path)
        paths["config"] = Path(write_config(
            tmp_path,
            output_dir=str(tmp_path / "out"),
            bootstrap_n=2,
            train_path=str(paths["train"]),
            test_path=str(paths["test"]),
        ))
        paths["results"] = tmp_path / "results.csv"
        paths["results"].write_text(f"{','.join(SWEEP_HEADER)}\nm,0,1,0,0.5,0.5,true\n")
        paths[file].write_bytes(paths[file].read_bytes() + b"\xff\n")
        if file == "results":
            code = run("pareto", str(paths[file]), "--output", str(tmp_path / "out.csv"))
        else:
            code = run("sweep", "--config", str(paths["config"]))
        assert code == 2
        assert capsys.readouterr().err == f"error: {paths[file]}: not UTF-8 text\n"
        assert not (tmp_path / "out").exists() and not (tmp_path / "out.csv").exists()

    def test_bad_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            run("explode")
        assert exc.value.code == 2


GOLDEN_DIR = Path(__file__).parent / "golden"
# (method, mode, direction) sweeps whose output bytes are pinned in GOLDEN_DIR.
GOLDEN_RUNS = [
    (method, mode, "b_to_a")
    for method in ("fairpot", "post-logit", "wasserstein", "unadjusted")
    for mode in ("global", "partial")
] + [("fairpot", mode, "a_to_b") for mode in ("global", "partial")]
GOLDEN_NAMES = [
    f"{direction}_sweep_{method}_{mode}_{kind}.csv"
    for method, mode, direction in GOLDEN_RUNS
    for kind in ("results", "summary")
]


def write_golden_inputs(tmp_path):
    """Small train/test score files with imbalanced groups, different base
    rates and tied scores (every 7th score rounded to two digits)."""
    rng = np.random.default_rng(20261018)
    paths = {}
    for name, n in (("train", 240), ("test", 160)):
        groups = np.where(rng.random(n) < 0.45, "a", "b")
        labels = (rng.random(n) < np.where(groups == "a", 0.35, 0.2)).astype(int)
        logits = rng.normal(size=n) + 1.2 * labels + 0.4 * (groups == "a")
        scores = 1.0 / (1.0 + np.exp(-logits))
        scores[::7] = np.round(scores[::7], 2)
        paths[name] = tmp_path / f"{name}.csv"
        write_score_file(ScoreSet(scores=scores, labels=labels, groups=groups), paths[name])
    return paths


def write_single_group_file(tmp_path, file, missing):
    """The ``write_golden_inputs`` files, ``file`` ("train" or "test") with
    its group-``missing`` records left out."""
    paths = write_golden_inputs(tmp_path)
    kept = read_score_file(paths[file])
    write_score_file(kept.subset(np.flatnonzero(~kept.group_mask(missing))), paths[file])
    return paths


def run_golden_sweeps(tmp_path) -> dict[str, bytes]:
    """Run every GOLDEN_RUNS sweep in file mode; output name -> bytes."""
    paths = write_golden_inputs(tmp_path)
    out = {}
    for method, mode, direction in GOLDEN_RUNS:
        out_dir = tmp_path / direction
        cfg = write_config(
            tmp_path,
            output_dir=str(out_dir),
            seed=3,
            bootstrap_n=5,
            alpha=0.3,
            lambdas=[0.0, 0.5, 1.0],
            train_path=str(paths["train"]),
            test_path=str(paths["test"]),
        )
        argv = ["sweep", "--config", cfg, "--method", method, "--mode", mode]
        if direction != "b_to_a":
            argv += ["--direction", direction]
        assert run(*argv) == 0
        for kind in ("results", "summary"):
            produced = out_dir / f"sweep_{method}_{mode}_{kind}.csv"
            out[f"{direction}_{produced.name}"] = produced.read_bytes()
    return out


# sha256 of each baseline's global --plot chart on the golden inputs: a
# chart of one point, which is its own frontier.
ONE_POINT_CHART_DIGESTS = {
    "post-logit": "46756abd2aaaa4a85519267f7c6a60e38c209bfd838a2e56bbf4a92bf95422c2",
    "unadjusted": "730efefbecaf6d8e4b281e42098af9640e17729909761e691c1a718208e28013",
    "wasserstein": "ddb4881be6d1d1475f12ac85255db53cc58c12c8ef17f70db37b5b5209e1afab",
}


@pytest.mark.parametrize("method", sorted(ONE_POINT_CHART_DIGESTS))
def test_one_point_chart_bytes(tmp_path, method):
    paths = write_golden_inputs(tmp_path)
    cfg = write_config(
        tmp_path,
        output_dir=str(tmp_path / "out"),
        seed=3,
        bootstrap_n=5,
        alpha=0.3,
        lambdas=[0.0, 0.5, 1.0],
        train_path=str(paths["train"]),
        test_path=str(paths["test"]),
    )
    assert run("sweep", "--config", cfg, "--method", method, "--plot") == 0
    chart = (tmp_path / "out" / f"sweep_{method}_global.svg").read_bytes()
    assert chart.count(b'r="3"') == 1 and chart.count(b'r="6"') == 1
    assert hashlib.sha256(chart).hexdigest() == ONE_POINT_CHART_DIGESTS[method]


@pytest.fixture(scope="module")
def golden_outputs(tmp_path_factory):
    return run_golden_sweeps(tmp_path_factory.mktemp("golden"))


def test_golden_files_cover_every_sweep():
    assert sorted(p.name for p in GOLDEN_DIR.glob("*.csv")) == sorted(GOLDEN_NAMES)


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_golden_sweep_bytes(name, golden_outputs):
    assert golden_outputs[name] == (GOLDEN_DIR / name).read_bytes()


@pytest.mark.parametrize("mode", transport.MODES)
def test_golden_results_and_their_frontier_read_back(tmp_path, mode):
    """The results files that sweeps write, and the frontier that a pareto
    merge of one direction's files writes, read back into rows that write the
    same bytes."""
    for direction in transport.DIRECTIONS:
        results = sorted(GOLDEN_DIR.glob(f"{direction}_*_{mode}_results.csv"))
        frontier = tmp_path / f"{direction}_frontier.csv"
        assert run("pareto", *map(str, results), "--output", str(frontier)) == 0
        for path in [*results, frontier]:
            write_sweep_results(read_sweep_results(path), tmp_path / "again.csv")
            assert (tmp_path / "again.csv").read_bytes() == path.read_bytes(), path.name


@pytest.mark.parametrize("mode", transport.MODES)
@pytest.mark.parametrize("direction", transport.DIRECTIONS)
def test_library_sweep_points_are_the_cli_rows(tmp_path, mode, direction):
    # fairpot.sweep evaluates through the CLI's path: a file-mode fairpot
    # sweep without a bootstrap writes its points, to 10 significant digits
    paths = write_golden_inputs(tmp_path)
    lambdas = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]
    cfg = write_config(
        tmp_path,
        output_dir=str(tmp_path),
        bootstrap_n=0,
        alpha=0.3,
        lambdas=lambdas,
        train_path=str(paths["train"]),
        test_path=str(paths["test"]),
    )
    argv = ["sweep", "--config", cfg, "--method", "fairpot", "--mode", mode]
    assert run(*argv, "--direction", direction) == 0
    with (tmp_path / f"sweep_fairpot_{mode}_results.csv").open(newline="") as fh:
        rows = [(r[0], r[1], r[3], r[4], r[5]) for r in list(csv.reader(fh))[1:]]
    points = fairpot.sweep(
        read_score_file(paths["train"]),
        read_score_file(paths["test"]),
        lambdas,
        mode=mode,
        alpha=0.3,
        direction=direction,
    )
    assert rows == [
        (p.method_tag, f"{p.lam:.10g}", str(p.replicate_id), f"{p.accuracy:.10g}",
         f"{p.disparity:.10g}")
        for p in points
    ]


@pytest.mark.parametrize("mode", transport.MODES)
def test_library_sweep_raises_the_cli_replicate_error(tmp_path, capsys, mode):
    # fairpot.sweep raises the message that fails a replicate whose drawn
    # records hold no group b; the CLI rejects a test file without group b
    # before any fit, with exit 2 and no output
    paths = write_single_group_file(tmp_path, "test", "b")
    cfg = write_config(
        tmp_path,
        output_dir=str(tmp_path),
        bootstrap_n=0,
        alpha=0.3,
        train_path=str(paths["train"]),
        test_path=str(paths["test"]),
    )
    message = "test set contains no group 'b' records"
    assert run("sweep", "--config", cfg, "--method", "fairpot", "--mode", mode) == 2
    assert capsys.readouterr().err == f"error: {paths['test']}: no group 'b' records\n"
    assert not list(tmp_path.glob("sweep_*"))
    train, test = read_score_file(paths["train"]), read_score_file(paths["test"])
    for lambdas in ([0.5], [0.0, 0.5, 1.0]):  # either grid order
        with pytest.raises(ValueError, match=f"^{message}$"):
            fairpot.sweep(train, test, lambdas, mode=mode, alpha=0.3)


IMPORT_PATH_SCRIPT = """
import sys
from pathlib import Path

import fairpot.cli
from fairpot.cli import main

module = sys.argv[4]
loaded = ["import" if module in sys.modules else None]
work = Path(sys.argv[1])
results = []
for method in ("fairpot", "post-logit", "wasserstein", "unadjusted"):
    assert main(["sweep", "--config", sys.argv[2], "--method", method]) == 0
    results.append(str(work / f"sweep_{method}_global_results.csv"))
    loaded.append(f"sweep {method}" if module in sys.modules else None)
assert main(["pareto", *results, "--output", str(work / "frontier.csv")]) == 0
loaded.append("pareto" if module in sys.modules else None)
assert main(["sweep", "--config", sys.argv[3], "--method", "unadjusted"]) == 0
loaded.append("synthetic sweep" if module in sys.modules else None)
assert main(["synth", "--config", sys.argv[3]]) == 0
loaded.append("synth" if module in sys.modules else None)
print(loaded)
"""


def loaded_by_a_fresh_interpreter(script, *args):
    """The last line ``script`` prints, run in a fresh interpreter that
    imports fairpot from this source tree."""
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def modules_loaded_along_the_cli_paths(tmp_path, module):
    """Run, in a fresh interpreter, an import of the CLI, file-mode sweeps of
    every method, a pareto merge, a one-replicate synthetic sweep and
    ``fairpot synth``; return, after each, whether ``module`` was loaded."""
    paths = write_golden_inputs(tmp_path)
    file_cfg = write_config(
        tmp_path,
        output_dir=str(tmp_path),
        bootstrap_n=2,
        lambdas=[0.0, 1.0],
        train_path=str(paths["train"]),
        test_path=str(paths["test"]),
    )
    synth_cfg = tmp_path / "synth.json"
    synth_cfg.write_text(json.dumps({"output_dir": str(tmp_path / "synth"), "bootstrap_n": 1}))
    return loaded_by_a_fresh_interpreter(
        IMPORT_PATH_SCRIPT, str(tmp_path), file_cfg, str(synth_cfg), module
    )


def test_scipy_never_loaded(tmp_path):
    """Importing the CLI, file-mode sweeps of every method, a pareto merge, a
    synthetic sweep and ``fairpot synth`` all run on numpy alone; scipy is a
    test dependency only."""
    assert modules_loaded_along_the_cli_paths(tmp_path, "scipy") == str([None] * 8)


def test_multiprocessing_loaded_only_for_a_worker_pool(tmp_path):
    """``multiprocessing`` is imported only to run synthetic replicates on
    two or more CPUs: the CLI import, file-mode sweeps, the pareto merge and
    a one-replicate synthetic sweep never load it, nor pay for its import."""
    assert modules_loaded_along_the_cli_paths(tmp_path, "multiprocessing") == str([None] * 8)


def test_numpy_ma_never_loaded(tmp_path):
    """No CLI path loads ``numpy.ma``: the logistic fit of a synthetic sweep
    checks its labels without ``np.unique``, which would import it."""
    if loaded_by_a_fresh_interpreter("import sys, numpy; print('numpy.ma' in sys.modules)") == "True":
        pytest.skip("this numpy loads numpy.ma on import")
    assert modules_loaded_along_the_cli_paths(tmp_path, "numpy.ma") == str([None] * 8)


PLOT_SWEEP_SCRIPT = """
import sys

from fairpot.cli import main

assert main(["sweep", "--config", sys.argv[1], "--method", "fairpot", "--plot"]) == 0
print("xml.etree.ElementTree" in sys.modules)
"""


def test_xml_loaded_only_to_draw_a_chart(tmp_path):
    """Only a sweep with ``--plot`` loads the XML package that writes its chart."""
    assert modules_loaded_along_the_cli_paths(tmp_path, "xml.etree.ElementTree") == str([None] * 8)
    paths = write_golden_inputs(tmp_path)
    cfg = write_config(
        tmp_path,
        output_dir=str(tmp_path / "plot"),
        bootstrap_n=2,
        lambdas=[0.0, 1.0],
        train_path=str(paths["train"]),
        test_path=str(paths["test"]),
    )
    assert loaded_by_a_fresh_interpreter(PLOT_SWEEP_SCRIPT, cfg) == "True"
    assert (tmp_path / "plot" / "sweep_fairpot_global.svg").exists()


# sha256 of a small synthetic sweep (fairpot, partial mode, --plot, 4
# replicates), recorded from the release that ran replicates one after another.
# With alpha 0.002 the training top regions of replicates 0 and 3 hold one
# group only, so those two replicates fail.
SYNTHETIC_SWEEP_DIGESTS = {
    0.3: {
        "sweep_fairpot_partial.svg":
            "71ae35925a7ca116a9293e04130b92c9e88aa234f385c04d4152ffd4f46a24c0",
        "sweep_fairpot_partial_results.csv":
            "796205f36954d4e3c0691329b69ada88f73fed1f57073e0fb0458c2414be5f3f",
        "sweep_fairpot_partial_summary.csv":
            "7186e68d10c890103ae61cde4d4554baf70f8e24f7ff6b6f9d9d620233a018f8",
    },
    0.002: {
        "sweep_fairpot_partial.svg":
            "90cd60c283b9e35420322b9c5d72b481b40aec79bd7543ee4e2826392a886dbf",
        "sweep_fairpot_partial_results.csv":
            "64ccb27cf69d67a75430774dce0280c91c784bfe624f2d865bffa17cf6380565",
        "sweep_fairpot_partial_summary.csv":
            "0f0d30d33120564f1b58e3ceb7595315b4e09c4dec330d05c4b6daaa260ab728",
    },
}


def _pin_to_one_cpu():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
@pytest.mark.parametrize("alpha", sorted(SYNTHETIC_SWEEP_DIGESTS))
def test_synthetic_sweep_bytes_do_not_depend_on_the_cpus(tmp_path, alpha):
    """The sweep run across every CPU the test may use and pinned to one CPU
    writes the recorded bytes and the same stderr lines."""
    src = Path(cli.__file__).resolve().parents[1]
    stderr = {}
    for name, preexec in (("all_cpus", None), ("one_cpu", _pin_to_one_cpu)):
        out = tmp_path / name
        cfg = write_config(
            tmp_path, output_dir=str(out), seed=0, bootstrap_n=4, alpha=alpha,
            lambdas=[0.0, 0.5, 1.0],
        )
        proc = subprocess.run(
            [sys.executable, "-m", "fairpot.cli", "sweep", "--config", cfg,
             "--method", "fairpot", "--mode", "partial", "--plot"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            preexec_fn=preexec,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        digests = {
            f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(out.iterdir())
        }
        assert digests == SYNTHETIC_SWEEP_DIGESTS[alpha]
        stderr[name] = proc.stderr.splitlines()
    assert stderr["all_cpus"] == stderr["one_cpu"]
    if alpha == 0.002:
        assert stderr["one_cpu"] == [
            f"replicate {rep}: train set contains no group 'b' records" for rep in (0, 3)
        ]


KILLED_WORKER_SCRIPT = """
import os
import signal
import sys

from fairpot import cli

real_split = cli._synthetic_scored_split


def dying_split(config, seed):
    if seed == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return real_split(config, seed)


cli._synthetic_scored_split = dying_split
print(cli.main(["sweep", "--config", sys.argv[1]]))
"""


@pytest.mark.skipif(not SYNTHETIC_REPLICATES_POOLED, reason="needs a pool of forked workers")
def test_a_killed_worker_fails_the_sweep(tmp_path):
    """A worker killed mid-replicate ends the sweep with exit 1 and writes no
    file, rather than leaving the sweep waiting for its result."""
    cfg = write_config(tmp_path, output_dir=str(tmp_path / "out"), bootstrap_n=3, lambdas=[0.0])
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", KILLED_WORKER_SCRIPT, cfg],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["1"]
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")
    assert not (tmp_path / "out").exists()
