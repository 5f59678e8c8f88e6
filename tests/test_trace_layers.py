"""The benchmark's per-layer tracer names functions that exist.

benchmark/spans.py wraps the functions its LAYERS table names, by module
and attribute; a renamed function would make a traced benchmark run fail.
"""
import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "benchmark" / "spans.py"


def _layers() -> dict:
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_function_resolves():
    layers = _layers()
    assert layers
    for module_name, fn_name in layers:
        module = importlib.import_module(f"vortex_twm.{module_name}")
        assert callable(getattr(module, fn_name, None)), f"vortex_twm.{module_name}.{fn_name}"
