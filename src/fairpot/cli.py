"""Experiment harness: synthetic cohort generation, method sweeps with
bootstrap replicates, and cross-method frontier merging.

Exit codes: 0 on success, 2 on validation errors (flags, config, malformed
inputs), 1 on runtime failures (every replicate failed, I/O trouble).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
from pathlib import Path

import numpy as np

from . import baselines, metrics, transport
from ._util import position_dtype
from .datagen import (
    STAGE_BOOTSTRAP,
    STAGE_SPLIT,
    SyntheticConfig,
    fit_logistic_scorer,
    generate_synthetic,
    stream,
)
from .io import (
    METHODS,
    ConfigError,
    ExperimentConfig,
    ScoreFileError,
    SweepRow,
    group_sweep_rows,
    read_config,
    read_score_file,
    read_sweep_results,
    write_score_file,
    write_sweep_results,
    write_sweep_summary,
)
from .metrics import GROUP_B, GROUPS, ScoreSet, require_both_groups
from .pareto import TradeoffPoint, pareto_frontier
from .svg import render_tradeoff_svg


def _load_config(args) -> ExperimentConfig:
    config = read_config(args.config) if args.config else ExperimentConfig()
    overrides = {}
    for name in ("method", "mode", "alpha", "direction", "seed"):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return config


def _score_paths(config: ExperimentConfig) -> tuple[Path, Path]:
    out = Path(config.output_dir)
    train = Path(config.train_path) if config.train_path else out / "train_scores.csv"
    test = Path(config.test_path) if config.test_path else out / "test_scores.csv"
    return train, test


def _n_train(config: ExperimentConfig, n: int) -> int:
    """Training records of a synthetic split of ``n`` records; ConfigError
    when ``split_ratio`` leaves either side empty."""
    n_train = int(round(config.split_ratio * n))
    if n_train < 1 or n_train >= n:
        raise ConfigError(f"split_ratio {config.split_ratio} leaves an empty split")
    return n_train


def _synthetic_scored_split(config: ExperimentConfig, seed: int) -> tuple[ScoreSet, ScoreSet]:
    cohort = generate_synthetic(SyntheticConfig(seed=seed))
    n = len(cohort)
    perm = stream(seed, STAGE_SPLIT).permutation(n)
    n_train = _n_train(config, n)
    train_idx, test_idx = perm[:n_train], perm[n_train:]
    scorer = fit_logistic_scorer(cohort.features[train_idx], cohort.labels[train_idx])

    def scored(idx: np.ndarray) -> ScoreSet:
        return ScoreSet(
            scores=scorer.score(cohort.features[idx]),
            labels=cohort.labels[idx],
            groups=cohort.groups[idx],
        )

    return scored(train_idx), scored(test_idx)


def _bootstrap_draw(config: ExperimentConfig, n: int, rep: int) -> np.ndarray | None:
    """Indices of replicate ``rep``'s test records in file mode: ``n`` draws
    with replacement, or None (every record once) when ``bootstrap_n`` is 0.
    They are drawn in ``_util.position_dtype(n)``, 4 bytes per drawn record
    below 2**31 records; the region and cells taken from them inherit it.
    Drawn as int32, they are the values an int64 draw takes from the stream."""
    if config.bootstrap_n > 0:
        draws = stream(config.seed, STAGE_BOOTSTRAP, rep)
        return draws.integers(0, n, size=n, dtype=position_dtype(n))
    return None


def _fit_and_map(
    config: ExperimentConfig, train: ScoreSet, test: ScoreSet
) -> transport.MappedSets:
    """Fit ``config.method`` on ``train`` and map every record of ``test``.
    Each map adjusts a record by its own score and group, so any subset of a
    mapped set is that subset mapped. Every mapped set holds ``test``'s
    records in order and shares its labels and groups: only scores change.
    A baseline has one mapped set, at lambda 0."""
    if config.method == "fairpot":
        return transport.fit_and_map(
            train, test, config.lambdas, config.mode, config.alpha, config.direction
        )
    if config.method == "unadjusted":
        return transport.MappedSets((0.0,), lambda lam: test)
    fit_set = metrics.region_set(train, config.mode, config.alpha)
    if config.method == "post-logit":
        params = baselines.fit_post_logit(fit_set)
        mapped = test.replace_group_scores(
            GROUP_B, baselines.apply_post_logit(params, test.group_scores(GROUP_B))
        )
        return transport.MappedSets((0.0,), lambda lam: mapped)
    # wasserstein_fair rejects a set it maps unless both groups are in it, and
    # so an evaluated region must hold both groups too.
    mapped = baselines.wasserstein_fair(fit_set, test)
    return transport.MappedSets(
        (0.0,), lambda lam: mapped, lambda draw, region: require_both_groups(test, "test", region)
    )


def _replicate(config: ExperimentConfig, rep: int) -> list[tuple[float, float, float]] | str:
    """Synthetic replicate ``rep``'s ``(lambda, accuracy, disparity)``
    points, or the message of the error that failed it: it draws a cohort,
    fits on its split and evaluates its test split, a 1 x L grid that
    ``transport.evaluate_grid`` walks in O(n) memory in the split's size."""
    try:
        # rep is 0 when there is no bootstrap
        train, test = _synthetic_scored_split(config, config.seed + rep)
        mapped = _fit_and_map(config, train, test)
    except (ValueError, RuntimeError) as exc:
        return str(exc)
    return transport.evaluate_grid(test, mapped, config.mode, config.alpha)[0]


def _synthetic_replicates(config: ExperimentConfig, n_reps: int) -> list:
    """``_replicate``'s outcome for each synthetic replicate, in replicate
    order. Each replicate draws, scores and fits on a cohort of its own, so
    they run in forked worker processes, one per CPU this process may use,
    when there are two or more; the outcomes are the serial loop's. A worker
    that dies (killed, out of memory) fails the sweep with a RuntimeError."""
    work = functools.partial(_replicate, config)
    # where the CPUs this process may use are unknown, run serially
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, n_reps)
    if workers >= 2:
        # imported here only: file-mode sweeps and one-CPU runs never pay for it
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # fork, not spawn: a spawned worker imports numpy and fairpot afresh,
        # which takes about as long as the pool saves. This process starts no
        # thread of its own, and OpenBLAS stops its threads around a fork.
        if "fork" in multiprocessing.get_all_start_methods():
            context = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(workers, mp_context=context) as pool:
                return list(pool.map(work, range(n_reps)))
    return [work(rep) for rep in range(n_reps)]


def _mean_points(rows: list[SweepRow]) -> list[TradeoffPoint]:
    return [
        TradeoffPoint(
            lam,
            float(np.mean([r.accuracy for r in group])),
            float(np.mean([r.disparity for r in group])),
            method,
            len(group),
        )
        for (method, lam), group in group_sweep_rows(rows).items()
    ]


def cmd_synth(args) -> int:
    config = _load_config(args)
    train, test = _synthetic_scored_split(config, config.seed)
    train_path, test_path = _score_paths(config)
    Path(config.output_dir).mkdir(parents=True, exist_ok=True)
    for score_set, path in ((train, train_path), (test, test_path)):
        write_score_file(score_set, path)
        print(f"wrote {path} ({len(score_set)} records)")
    return 0


def cmd_sweep(args) -> int:
    config = _load_config(args)
    file_mode = config.train_path is not None or config.test_path is not None
    if file_mode and (config.train_path is None or config.test_path is None):
        raise ConfigError("train_path and test_path must be given together")

    n_reps = config.bootstrap_n if config.bootstrap_n > 0 else 1

    if file_mode:
        base_train = read_score_file(config.train_path)
        base_test = read_score_file(config.test_path)
        # fairpot and wasserstein fit on both groups of the training file and
        # need both among each replicate's test records; post-logit fits on
        # both groups of the training file. A file without a group that its
        # method needs would fail every replicate, so it is rejected here.
        needs_groups = (config.method != "unadjusted", config.method in ("fairpot", "wasserstein"))
        paths = (config.train_path, config.test_path)
        for score_set, path, needs in zip((base_train, base_test), paths, needs_groups):
            if not len(score_set):
                raise ScoreFileError(f"{path}: no records")
            missing = [g for g in GROUPS if needs and not score_set.group_mask(g).any()]
            if missing:
                raise ScoreFileError(f"{path}: no group {missing[0]!r} records")
        # A method's fit depends on the training set only. In file mode that
        # set is the same for every replicate, so the whole test file is
        # mapped once per lambda and each replicate evaluates its draw of the
        # mapped records. An error from the fit or a map fails each replicate.
        try:
            mapped = _fit_and_map(config, base_train, base_test)
        except ValueError as exc:
            outcomes = [str(exc)] * n_reps
        else:
            del base_train  # the fit keeps what it needs of the training set
            draw = functools.partial(_bootstrap_draw, config, len(base_test))
            outcomes = transport.evaluate_grid(
                base_test, mapped, config.mode, config.alpha, n_reps, draw
            )
    else:
        _n_train(config, SyntheticConfig().n_samples)  # checked once: every cohort has this size
        outcomes = _synthetic_replicates(config, n_reps)

    alpha_out = config.alpha if config.mode == "partial" else 1.0
    rows: list[SweepRow] = []
    for rep, outcome in enumerate(outcomes):
        if isinstance(outcome, str):
            print(f"replicate {rep}: {outcome}", file=sys.stderr)
            outcome = [(0.0, float("nan"), float("nan"))]  # nan metrics mark it failed
        rows.extend(
            SweepRow(config.method, lam, alpha_out, rep, accuracy, disparity, False)
            for lam, accuracy, disparity in outcome
        )
    if all(isinstance(outcome, str) for outcome in outcomes):
        raise RuntimeError("all replicates failed")

    means = _mean_points(rows)
    frontier = pareto_frontier(means)
    on_frontier = {(p.method_tag, p.lam) for p in frontier}
    rows = [
        dataclasses.replace(r, on_frontier=(r.method, r.lam) in on_frontier)
        for r in rows
    ]
    rows.sort(key=lambda r: (r.method, r.lam, r.replicate))

    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    prefix = f"sweep_{config.method}_{config.mode}"
    results_path = out_dir / f"{prefix}_results.csv"
    write_sweep_results(rows, results_path)
    print(f"wrote {results_path} ({len(rows)} rows)")

    summary_path = out_dir / f"{prefix}_summary.csv"
    write_sweep_summary(rows, summary_path)
    print(f"wrote {summary_path}")

    if args.plot:
        svg_path = out_dir / f"{prefix}.svg"
        render_tradeoff_svg(
            svg_path,
            series=[(config.method, [(p.disparity, p.accuracy) for p in means])],
            frontier=[(p.disparity, p.accuracy) for p in frontier],
            title=f"{config.mode} trade-off",
        )
        print(f"wrote {svg_path}")
    return 0


def cmd_pareto(args) -> int:
    # each row by its (method, lambda, replicate), beside where it was read
    read: dict[tuple[str, float, int], tuple[str, SweepRow]] = {}
    for path in args.inputs:
        for i, r in enumerate(read_sweep_results(path), start=1):
            key, place = (r.method, r.lam, r.replicate), f"row {i} of {path}"
            if key in read:
                raise ScoreFileError(
                    f"(method, lambda, replicate) {key} is read twice: {read[key][0]} and {place}"
                )
            read[key] = place, r
    ok_rows = [r for _, r in read.values() if not r.failed]
    if not ok_rows:
        raise RuntimeError("no successful sweep rows in the input files")
    alphas = {r.alpha for r in ok_rows}
    if len(alphas) > 1:
        raise ConfigError(f"inputs mix incompatible alpha values: {sorted(alphas)}")
    alpha = alphas.pop()

    means = _mean_points(ok_rows)
    frontier = pareto_frontier(means)
    out_rows = [
        SweepRow(p.method_tag, p.lam, alpha, p.replicate_id, p.accuracy, p.disparity, True)
        for p in frontier
    ]
    write_sweep_results(out_rows, args.output)
    print(f"wrote {args.output} ({len(out_rows)} frontier points)")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairpot",
        description="Proportional optimal-transport post-processing of risk scores",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate synthetic train/test score files")
    synth.add_argument("--config", help="JSON experiment config")
    synth.add_argument("--seed", type=int, help="override the config seed")
    synth.set_defaults(func=cmd_synth)

    sweep = sub.add_parser("sweep", help="run one method over the lambda grid")
    sweep.add_argument("--config", help="JSON experiment config")
    sweep.add_argument("--method", choices=METHODS)
    sweep.add_argument("--mode", choices=transport.MODES)
    sweep.add_argument("--alpha", type=float, help="top-region fraction for partial mode")
    sweep.add_argument("--direction", choices=transport.DIRECTIONS)
    sweep.add_argument("--seed", type=int, help="override the config seed")
    sweep.add_argument("--plot", action="store_true", help="also write an SVG trade-off chart")
    sweep.set_defaults(func=cmd_sweep)

    pareto = sub.add_parser("pareto", help="merge sweep results into one frontier")
    pareto.add_argument("inputs", nargs="+", help="sweep result CSV files")
    pareto.add_argument("--output", default="frontier.csv", help="merged frontier CSV path")
    pareto.set_defaults(func=cmd_pareto)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ScoreFileError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
