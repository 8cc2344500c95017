"""The benchmark's tracer wraps fixed names in ``fairpot``; a change that
drops or renames one must fail here, not only in a benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", [t.name for t in _tracer().TARGETS])
def test_traced_name_is_a_fairpot_callable(name):
    module, func = name.split(".")
    assert callable(getattr(importlib.import_module(f"fairpot.{module}"), func, None))
