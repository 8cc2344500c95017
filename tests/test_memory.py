"""Working-memory bounds of score-file parsing and file-mode sweeps.

Peaks are read with ``tracemalloc``, which numpy reports its array buffers
to, so they count the bytes the program allocates, not the process's RSS.
"""

import gc
import json
import tracemalloc

import numpy as np
import pytest

from fairpot.cli import main
from fairpot.io import read_score_file, write_score_file

import oracles

N_RECORDS = 20_000
FLOAT64_ARRAY = 8 * N_RECORDS  # bytes of one n-sized float64 or int64 array


def traced_peak(call) -> int:
    """Peak bytes traced while ``call()`` runs, above what was held before."""
    gc.collect()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def score_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("memory")
    rng = np.random.default_rng(71)
    paths = {}
    for name in ("train", "test"):
        paths[name] = root / f"{name}.csv"
        write_score_file(oracles.random_score_set(rng, N_RECORDS), paths[name])
    return root, paths


def sweep_peak(root, paths, method, lambdas, bootstrap_n) -> int:
    out = root / f"out_{method}_{len(lambdas)}_{bootstrap_n}"
    config = out.with_suffix(".json")
    config.write_text(json.dumps({
        "seed": 3,
        "bootstrap_n": bootstrap_n,
        "lambdas": list(lambdas),
        "train_path": str(paths["train"]),
        "test_path": str(paths["test"]),
        "output_dir": str(out),
    }))
    argv = ["sweep", "--config", str(config), "--method", method, "--mode", "global"]

    def sweep():
        assert main(argv) == 0

    return traced_peak(sweep)


def test_plain_score_file_parse_peaks_at_four_times_its_bytes(tmp_path):
    rng = np.random.default_rng(72)
    path = tmp_path / "scores.csv"
    write_score_file(oracles.random_score_set(rng, 50_000), path)
    size = path.stat().st_size
    assert traced_peak(lambda: read_score_file(path)) <= 4 * size


def test_fairpot_sweep_memory_does_not_grow_with_the_lambda_count(score_files):
    # With more lambdas than replicates, only one mapped set is held at a
    # time, beside each replicate's cells. Both lambdas of the short grid
    # move scores, so each run holds two test-sized items on its shorter
    # axis: two mapped sets, or two replicates' cells.
    peak_two = sweep_peak(*score_files, "fairpot", [0.5, 1.0], bootstrap_n=2)
    peak_eleven = sweep_peak(*score_files, "fairpot", [i / 10 for i in range(11)], bootstrap_n=2)
    assert peak_eleven - peak_two < FLOAT64_ARRAY


def test_sweep_memory_does_not_grow_with_the_replicate_count(score_files):
    # with one lambda, each replicate's draw and cells go before the next
    peak_two = sweep_peak(*score_files, "unadjusted", [0.0], bootstrap_n=2)
    peak_fifty = sweep_peak(*score_files, "unadjusted", [0.0], bootstrap_n=50)
    assert peak_fifty - peak_two < FLOAT64_ARRAY
