"""The benchmark's per-layer tracer names functions that exist and run.

benchmark/spans.py wraps the functions its LAYERS table names, by module
and attribute; a renamed function would make a traced benchmark run fail,
and one that a run no longer calls through that attribute would trace 0.
"""
import importlib
import importlib.util
import inspect
import sys
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


def test_a_painted_run_calls_output_fields_through_its_attribute_and_samples_no_beam(
    tmp_path, monkeypatch
):
    # the output_fields layer is the whole painter: one call per painted run, no beam sample
    calls = {"output_fields": 0, "sample_lg": 0}

    def counting(real, key):
        def counted(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)
        return counted

    propagation = importlib.import_module("vortex_twm.propagation")
    monkeypatch.setattr(
        propagation, "output_fields", counting(propagation.output_fields, "output_fields")
    )
    sample_lg = importlib.import_module("vortex_twm.beams").sample_lg
    for name, module in list(sys.modules.items()):  # every namespace that binds it
        if name.split(".")[0] == "vortex_twm" and getattr(module, "sample_lg", None) is sample_lg:
            monkeypatch.setattr(module, "sample_lg", counting(sample_lg, "sample_lg"))
    cfg = load_config(ROOT / "configs" / "transfer.json")
    assert {"fields", "images"} <= set(cfg.outputs)
    run_config(cfg, tmp_path / "run")
    assert calls == {"output_fields": 1, "sample_lg": 0}
