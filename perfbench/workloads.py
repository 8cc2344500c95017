"""Workload definitions and the seeded input generator.

A workload is a fixed list of ``fairpot`` CLI invocations (sweeps, then
``pareto`` merges) plus the inputs they read. File workloads get score files
written here from the benchmark seed; the program only ever sees those files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The CLI's default grid, passed explicitly so the expected result keys do not
# depend on a default a later change might move.
LAMBDAS = tuple(i / 10 for i in range(11))
ALPHA = 0.3
ALL_METHODS = ("fairpot", "post-logit", "wasserstein", "unadjusted")
BASELINE_METHODS = ("post-logit", "wasserstein", "unadjusted")

# The default synthetic cohort: 3000 rows split 0.8/0.2, so 600 test records.
SYNTH_TEST_RECORDS = 600


@dataclass(frozen=True)
class Sweep:
    method: str
    mode: str
    plot: bool = False

    @property
    def prefix(self) -> str:
        return f"sweep_{self.method}_{self.mode}"


@dataclass(frozen=True)
class Workload:
    name: str
    bootstrap_n: int
    sweeps: tuple[Sweep, ...]
    merges: tuple[str, ...]  # modes whose sweep results get one `pareto` merge each
    n_train: int = 0  # 0 selects the CLI's synthetic mode
    n_test: int = SYNTH_TEST_RECORDS

    @property
    def synthetic(self) -> bool:
        return self.n_train == 0


def _grid(methods, modes, plot_fairpot=False) -> tuple[Sweep, ...]:
    return tuple(
        Sweep(m, mode, plot=plot_fairpot and m == "fairpot") for mode in modes for m in methods
    )


# Why each workload was chosen, and its input sizes, are recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="synth-protocol",
            bootstrap_n=20,
            sweeps=_grid(ALL_METHODS, ("global", "partial"), plot_fairpot=True),
            merges=("global", "partial"),
        ),
        Workload(
            name="file-large",
            bootstrap_n=2,
            sweeps=_grid(("fairpot", "unadjusted"), ("global",)),
            merges=(),
            n_train=100_000,
            n_test=100_000,
        ),
        Workload(
            name="file-baselines",
            bootstrap_n=50,
            sweeps=_grid(BASELINE_METHODS, ("global", "partial")),
            merges=("global",),
            n_train=20_000,
            n_test=20_000,
        ),
    )
}


# Input recipe: the two groups are equal halves; group a has the higher base
# rate and a +0.5 logit score shift, so cross-group ranking disparity is
# clearly non-zero.
_BASE_RATE = {"a": 0.30, "b": 0.15}
_GROUP_A_SHIFT = 0.5
_LABEL_SEPARATION = 1.6
# Tied scores: 1 in TIE_EVERY records of each group repeats the score of an
# earlier record of that group, so every file holds the same number of ties
# (1% of its records) on every seed. Without them a tie would appear on some
# seeds only, and the score-map code takes a different path when it does.
TIE_EVERY = 100


def score_set(n: int, rng: np.random.Generator):
    """A ``fairpot`` ScoreSet of ``n`` records drawn from the recipe above."""
    from fairpot.metrics import ScoreSet

    is_a = rng.permutation(n) < n // 2
    rate = np.where(is_a, _BASE_RATE["a"], _BASE_RATE["b"])
    labels = rng.random(n) < rate
    logit = -1.2 + _LABEL_SEPARATION * labels + _GROUP_A_SHIFT * is_a + rng.standard_normal(n)
    scores = 1.0 / (1.0 + np.exp(-logit))
    for members in (np.flatnonzero(is_a), np.flatnonzero(~is_a)):
        tied = members[1::TIE_EVERY]
        scores[tied] = scores[members[0::TIE_EVERY][: len(tied)]]
    return ScoreSet(scores, labels.astype(np.int64), np.where(is_a, "a", "b"))


def make_inputs(workload: Workload, seed: int, inputs_dir: Path) -> tuple[Path, Path] | None:
    """Score files for a file workload (same seed, same bytes); None for synthetic.

    They are written by the CLI's own score-file writer, so they carry its
    format (10 significant digits)."""
    if workload.synthetic:
        return None
    from fairpot.io import write_score_file

    inputs_dir.mkdir(parents=True, exist_ok=True)
    ss = np.random.SeedSequence([seed, sorted(WORKLOADS).index(workload.name)])
    train_rng, test_rng = (np.random.default_rng(s) for s in ss.spawn(2))
    train, test = inputs_dir / "train_scores.csv", inputs_dir / "test_scores.csv"
    write_score_file(score_set(workload.n_train, train_rng), train)
    write_score_file(score_set(workload.n_test, test_rng), test)
    return train, test


@dataclass(frozen=True)
class Invocation:
    label: str
    argv: tuple[str, ...]  # arguments after `fairpot`


def invocations(
    workload: Workload, seed: int, inputs: tuple[Path, Path] | None, out_dir: Path
) -> list[Invocation]:
    """Write the pass's config into ``out_dir`` and list its CLI calls in order."""
    out_dir.mkdir(parents=True, exist_ok=True)
    config = {
        "seed": seed,
        "bootstrap_n": workload.bootstrap_n,
        "lambdas": list(LAMBDAS),
        "alpha": ALPHA,
        "output_dir": str(out_dir),
    }
    if inputs is not None:
        config["train_path"], config["test_path"] = (str(p) for p in inputs)
    config_path = out_dir / "config.json"
    config_path.write_text(json.dumps(config, indent=1) + "\n")

    calls = []
    for sw in workload.sweeps:
        argv = ["sweep", "--config", str(config_path), "--method", sw.method, "--mode", sw.mode]
        if sw.plot:
            argv.append("--plot")
        calls.append(Invocation(sw.prefix, tuple(argv)))
    for mode in workload.merges:
        inputs_csv = [
            str(out_dir / f"{sw.prefix}_results.csv") for sw in workload.sweeps if sw.mode == mode
        ]
        out = str(out_dir / f"frontier_{mode}.csv")
        calls.append(Invocation(f"pareto_{mode}", ("pareto", *inputs_csv, "--output", out)))
    return calls


def records_evaluated(workload: Workload, sweep: Sweep) -> int:
    """Test records x evaluated points for one sweep: fairpot evaluates every
    lambda, the other methods one point, in each replicate."""
    points = len(LAMBDAS) if sweep.method == "fairpot" else 1
    return workload.n_test * points * workload.bootstrap_n
