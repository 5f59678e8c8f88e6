"""The benchmark's per-layer tracer names functions that exist and run.

benchmark/spans.py wraps the functions its LAYERS table names, by module
and attribute; a renamed function would make a traced benchmark run fail,
and one that a run no longer calls through that attribute would trace 0.
"""
import importlib
import importlib.util
import inspect
from pathlib import Path

from vortex_twm.config import load_config
from vortex_twm.runner import run_config

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "benchmark" / "spans.py"


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


def test_a_run_calls_each_traced_analysis_step_through_its_attribute(tmp_path, monkeypatch):
    # the tracer sees a call only where the run looks the function up as module.attribute
    calls = {}
    for module_name, fn_name in _spans().LAYERS:
        if module_name not in ("analysis", "runner"):
            continue
        module = importlib.import_module(f"vortex_twm.{module_name}")
        real = getattr(module, fn_name)

        def counted(*args, _real=real, _key=fn_name, **kwargs):
            calls[_key] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, fn_name, counted)
        calls[fn_name] = 0
    run_config(load_config(ROOT / "configs" / "transfer.json"), tmp_path / "run")
    # one brightest ring, winding, profile and metric row per output field
    assert calls == {
        "ring_radius": 6,
        "winding_number": 6,
        "azimuthal_profile": 6,
        "field_metrics": 6,
        "write_manifest": 1,
    }
