"""Names looked up from outside a module must exist: the benchmark's tracer
wraps commlab functions by name, and each module lists its API in ``__all__``."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import commlab
from commlab.search import maximize_ratio

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
MODULES = sorted(m.name for m in pkgutil.iter_modules(commlab.__path__))


def _tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("layer, fn", [(layer, fn) for layer, fn, _ in _tracer_module().TRACED])
def test_traced_name_is_a_callable(layer, fn):
    assert callable(getattr(importlib.import_module(f"commlab.{layer}"), fn, None))


@pytest.mark.parametrize("layer", MODULES)
def test_every_exported_name_exists(layer):
    module = importlib.import_module(f"commlab.{layer}")
    assert [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)] == []


def test_tracer_counts_the_search_validations():
    # the search loop validates through its own import of validate_hypotheses;
    # the tracer must wrap that name too, or the per-layer count misses them
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        state = maximize_ratio("SJ_GENERAL", dim=3, iterations=60, restarts=2, master_seed=1)
    finally:
        tracer.restore()
    # each start instance and the best one are evaluated in full
    assert tracer.calls["catalog.evaluate"] == 2 + 1
    assert tracer.calls["catalog.validate_hypotheses"] == 2 + state.validated + 1
    assert state.validated > 0
