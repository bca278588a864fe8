"""The benchmark's tracer wraps functions of `hypmoduli` by name; every
name it lists must still exist, or `perfbench/run.py --trace 1` breaks."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("name", sorted({*tracing.TRACED, *tracing.COUNTED}))
def test_traced_name_is_a_hypmoduli_function(name):
    module_name, func_name = name.split(".")
    module = importlib.import_module(f"{tracing.PACKAGE}.{module_name}")
    assert callable(getattr(module, func_name, None)), name
