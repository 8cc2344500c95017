"""Working-memory bounds of score-file parsing and file-mode sweeps, and
the width of the record positions they keep.

Peaks are read with ``tracemalloc``, which numpy reports its array buffers
to, so they count the bytes the program allocates, not the process's RSS.
"""

import functools
import gc
import json
import tracemalloc

import numpy as np
import pytest

from fairpot import io
from fairpot._util import position_dtype
from fairpot.cli import _bootstrap_draw, main
from fairpot.datagen import STAGE_BOOTSTRAP, stream
from fairpot.io import ExperimentConfig, read_score_file, write_score_file
from fairpot.metrics import region_cells, top_alpha_region
from fairpot.transport import apply_psi, build_score_map, evaluate_grid, fit_and_map

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


def test_plain_score_file_parse_holds_its_records_and_one_block_of_temporaries(tmp_path):
    # A parse keeps 10 bytes per record (a float64 score and two bool masks)
    # and an 8-byte key per id of at most 8 bytes; everything else it holds
    # is sized by the block it reads, so what is left is the same fixed
    # allowance for a file 8 times larger.
    rng = np.random.default_rng(72)
    for n in (50_000, 400_000):
        path = tmp_path / f"scores_{n}.csv"
        write_score_file(oracles.random_score_set(rng, n), path)
        kept = (10 + 8) * n
        assert traced_peak(lambda: read_score_file(path)) - kept <= 10 * io._BLOCK_BYTES


def test_fairpot_fit_holds_a_fixed_number_of_moving_clouds():
    # The fit and one pass over its mapped sets, above the train and test
    # sets, where a cloud is the moving group's training scores as float64:
    # the two clouds, the OT plan's three arrays of about two clouds each
    # (one triple per moving and reference score) and the projection's
    # temporaries, about 15 clouds in all. A fit that sorts and gathers its
    # already sorted cloud and plan again takes about 24.
    rng = np.random.default_rng(73)
    train, test = (oracles.random_score_set(rng, N_RECORDS) for _ in range(2))
    cloud = 8 * np.count_nonzero(train.group_mask("b"))

    def fit_and_walk():
        for _ in fit_and_map(train, test, [0.0, 0.3, 1.0]):
            pass

    assert traced_peak(fit_and_walk) <= 18 * cloud


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


def test_apply_psi_holds_its_output_and_one_query_sized_temporary():
    # np.interp copies read-only knots on every call, which would add two
    # knot-sized arrays; the map's knots stay read-only for its callers
    rng = np.random.default_rng(76)
    x = np.sort(rng.random(N_RECORDS))
    score_map = build_score_map(x, np.sqrt(x))
    assert len(score_map) == N_RECORDS
    assert not score_map.knots_x.flags.writeable and not score_map.knots_y.flags.writeable
    queries = np.sort(rng.random(N_RECORDS))
    assert traced_peak(lambda: apply_psi(score_map, queries)) <= 2.5 * FLOAT64_ARRAY


def file_sweep_draw(n_reps: int):
    """Replicate ``rep``'s draw of the test file's records, as ``fairpot
    sweep`` makes it on a file of ``N_RECORDS`` records."""
    config = ExperimentConfig(seed=3, bootstrap_n=n_reps)
    return functools.partial(_bootstrap_draw, config, N_RECORDS)


def test_bootstrap_replicates_hold_four_bytes_per_drawn_record():
    # With more lambdas than replicates, each replicate's cells are held
    # while the lambda loop runs: one position per drawn record, in the
    # dtype of its draw. Beside a fixed 4.5 arrays (a mapped set, its
    # evaluation and the map's temporaries), each replicate may hold 4.5
    # bytes per record; int64 positions take 8.
    rng = np.random.default_rng(74)
    train, test = (oracles.random_score_set(rng, N_RECORDS) for _ in range(2))
    lambdas = [i / 10 for i in range(11)]
    peaks = {}
    for n_reps in (2, 10):
        mapped = fit_and_map(train, test, lambdas)
        draw = file_sweep_draw(n_reps)
        peaks[n_reps] = traced_peak(
            lambda: evaluate_grid(test, mapped, "global", None, n_reps, draw)
        )
        assert peaks[n_reps] <= 4.5 * FLOAT64_ARRAY + n_reps * 4.5 * N_RECORDS
    assert (peaks[10] - peaks[2]) / (8 * N_RECORDS) <= 5


def test_positions_are_int32_below_two_to_the_31_records():
    # the rule reads the set's size only, so neither size is allocated
    assert position_dtype(2**31 - 1) is np.int32
    assert position_dtype(2**31) is np.int64
    s = oracles.random_score_set(np.random.default_rng(75), N_RECORDS)
    draw = file_sweep_draw(2)(1)
    assert draw.dtype == np.int32
    # the same records as the int64 draw from the replicate's stream
    assert np.array_equal(draw, stream(3, STAGE_BOOTSTRAP, 1).integers(0, N_RECORDS, N_RECORDS))
    for cells in (region_cells(s, draw), s.cells):
        assert {idx.dtype for idx in cells.values()} == {np.dtype(np.int32)}
    assert top_alpha_region(s, 0.3).member_indices.dtype == np.int32
