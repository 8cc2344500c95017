"""README's library example runs, and every fairpot name it mentions exists."""

import importlib
import re
from pathlib import Path

import fairpot
from test_cli import write_golden_inputs

README = (Path(__file__).parents[1] / "README.md").read_text()


def test_python_block_runs_on_the_golden_inputs(tmp_path, monkeypatch):
    [block] = re.findall(r"```python\n(.*?)```", README, re.S)
    for name, path in write_golden_inputs(tmp_path).items():
        path.rename(tmp_path / f"{name}_scores.csv")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["frontier"] and len(namespace["points"]) == 11


def resolve(dotted: str):
    """The object a dotted ``fairpot`` name reaches, importing submodules
    that the package does not import itself."""
    obj, path = fairpot, "fairpot"
    for part in dotted.split(".")[1:]:
        path += "." + part
        obj = getattr(obj, part, None) or importlib.import_module(path)
    return obj


def test_dotted_names_resolve():
    names = set(re.findall(r"\b(?:fp|fairpot)(?:\.\w+)+", README))
    assert {"fp.sweep", "fairpot.transport.fit_and_map"} <= names
    for name in sorted(names):
        assert resolve(name) is not None, name


def test_every_exported_name_has_a_line():
    listed = re.findall(r"^- `(\w+)`: ", README, re.M)
    assert sorted(listed) == sorted(fairpot.__all__)
