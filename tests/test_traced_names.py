"""The benchmark's tracer wraps commlab functions by name, so each name must exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _traced():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("layer, fn", [(layer, fn) for layer, fn, _ in _traced()])
def test_traced_name_is_a_callable(layer, fn):
    assert callable(getattr(importlib.import_module(f"commlab.{layer}"), fn, None))
