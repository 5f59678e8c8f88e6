"""The benchmark's per-layer tracer names functions that exist.

benchmark/spans.py wraps the functions its LAYERS table names, by module
and attribute; a renamed function would make a traced benchmark run fail.
"""
import importlib
import importlib.util
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "benchmark" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    layers = _spans().LAYERS
    assert layers
    for module_name, fn_name in layers:
        module = importlib.import_module(f"vortex_twm.{module_name}")
        assert callable(getattr(module, fn_name, None)), f"vortex_twm.{module_name}.{fn_name}"


def test_traced_render_writers_take_the_path_last():
    # spans._written_bytes sizes a writer's file from kwargs["path"] or args[-1]
    spans = _spans()
    writers = [key for key, layer in spans.LAYERS.items() if layer in spans.RENDER_WRITERS]
    assert writers
    for module_name, fn_name in writers:
        fn = getattr(importlib.import_module(f"vortex_twm.{module_name}"), fn_name)
        params = [
            p for p in inspect.signature(fn).parameters.values()
            if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
        ]
        assert params[-1].name == "path", f"vortex_twm.{module_name}.{fn_name}"
