"""The benchmark's tracer wraps fixed names in ``fairpot``; a change that
drops or renames one, or takes it off the path the CLI runs, must fail here,
not only in a benchmark run."""

import importlib
import importlib.util
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from fairpot import cli, transport
from fairpot.io import METHODS, read_score_file

from test_cli import write_golden_inputs

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
# The CLI has fitted through transport.fit_and_map, not transport.sweep, since
# the four methods share one sweep pipeline.
NOT_ON_THE_CLI_PATH = {"transport.sweep"}


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


tracer = _tracer()


@pytest.mark.parametrize("name", [t.name for t in tracer.TARGETS])
def test_traced_name_is_a_fairpot_callable(name):
    module, func = name.split(".")
    assert callable(getattr(importlib.import_module(f"fairpot.{module}"), func, None))


def _config(path: Path, **kwargs) -> str:
    path.write_text(json.dumps(kwargs))
    return str(path)


def test_every_traced_name_is_called_on_the_cli_paths(tmp_path):
    # file-mode sweeps of every method in both modes, a one-replicate
    # synthetic sweep with a chart (which runs in this process), and a merge
    paths = write_golden_inputs(tmp_path)
    file_cfg = _config(
        tmp_path / "file.json",
        output_dir=str(tmp_path / "file"),
        bootstrap_n=2,
        lambdas=[0.0, 0.5, 1.0],
        train_path=str(paths["train"]),
        test_path=str(paths["test"]),
    )
    synth_cfg = _config(
        tmp_path / "synth.json", output_dir=str(tmp_path / "synth"), bootstrap_n=1
    )
    modules = {
        name.split(".", 1)[1] if "." in name else name: mod
        for name, mod in sys.modules.items()
        if name == "fairpot" or name.startswith("fairpot.")
    }
    traced = tracer.Tracer()
    absent = traced.install(modules)
    try:
        for method in METHODS:
            for mode in transport.MODES:
                assert cli.main(["sweep", "--config", file_cfg, "--method", method,
                                 "--mode", mode]) == 0
        assert cli.main(["sweep", "--config", synth_cfg, "--plot"]) == 0
        results = [str(tmp_path / "file" / f"sweep_{m}_partial_results.csv") for m in METHODS]
        assert cli.main(["pareto", *results, "--output", str(tmp_path / "frontier.csv")]) == 0
    finally:
        traced.uninstall()
    assert absent == []
    assert traced.count_errors == {}
    calls = Counter(span["name"] for span in traced.spans)
    assert [
        t.name for t in tracer.TARGETS if t.name not in NOT_ON_THE_CLI_PATH and not calls[t.name]
    ] == []


def test_score_set_key_of_a_parsed_set_is_unchanged(tmp_path):
    # The key hashes the scores, int64 labels and one-character groups; a
    # set that stores its labels and groups as masks must hash the same
    # bytes. The digest is the one this file gave when they were stored as
    # int64 and U1 arrays.
    path = tmp_path / "scores.csv"
    path.write_bytes(
        b"id,score,label,group\nr0,0.75,1,a\nr1,0.25,0,b\nlong-id-123,0.5,1,b\r\nr3,5e-1,0,a"
    )
    assert tracer._score_set_key(read_score_file(path)) == "8fafaa744d6133ab6aca1bad68cca6c09e250662"
