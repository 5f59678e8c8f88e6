import argparse
import csv
import dataclasses
import json
import math
import os
import pkgutil
import re
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import vortex_twm
from vortex_twm import cli
from vortex_twm.analysis import (
    azimuthal_profile,
    check_radius,
    radial_max,
    scan_radii,
    winding_number,
)
from vortex_twm.beams import EPSILON_MAX, LGBeamSpec
from vortex_twm._parallel import map_items
from vortex_twm.config import (
    AnalysisSpec,
    GridSpec,
    RunConfig,
    WeakProbeWarning,
    config_to_dict,
    default_config,
    load_config,
    parse_config,
)
from vortex_twm.errors import (
    DegenerateMediumError,
    InvalidConfigError,
    OutOfGridError,
    StructurelessProfileError,
    VortexTwmError,
    ZeroFieldError,
)
from vortex_twm.medium import MediumParams
from vortex_twm.figures import FIGURE_IDS, _FIGURES, _sweep_cells
from vortex_twm.render import write_profile_csv
from vortex_twm.propagation import output_rings
from vortex_twm.runner import METRIC_COLUMNS, Blank, analyse, file_sha256, run_config
from vortex_twm.verify import SuiteResult

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"


def _small_doc(**overrides):
    doc = {
        "medium": {"gamma31": 1.0, "gamma21": 0.05, "delta": 0.0, "d": 8.0},
        "control": {"epsilon": 4.0, "tc": 1},
        "probe_p": {"epsilon": 0.005, "tc": 0},
        "probe_s": {"epsilon": 0.005, "tc": 0},
        "grid": {"n": 32, "extent": 3.0},
        "outputs": ["metrics"],
        "analysis": {"radius": "auto", "m": 720},
    }
    doc.update(overrides)
    return doc


def _write_doc(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_default_config_validates_silently():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        default_config()


def test_validation_names_dotted_fields():
    cfg = default_config()
    with pytest.raises(InvalidConfigError, match="grid.n"):
        dataclasses.replace(cfg, grid=dataclasses.replace(cfg.grid, n=1))
    with pytest.raises(InvalidConfigError, match="grid.n"):
        dataclasses.replace(cfg, grid=dataclasses.replace(cfg.grid, n=256.0))
    with pytest.raises(InvalidConfigError, match="grid.extent"):
        dataclasses.replace(cfg, grid=dataclasses.replace(cfg.grid, extent=0.0))
    with pytest.raises(InvalidConfigError, match="analysis.m"):
        dataclasses.replace(cfg, analysis=dataclasses.replace(cfg.analysis, m=15))
    with pytest.raises(InvalidConfigError, match="analysis.radius"):
        dataclasses.replace(cfg, analysis=dataclasses.replace(cfg.analysis, radius=7.5))
    with pytest.raises(InvalidConfigError, match="outputs"):
        dataclasses.replace(cfg, outputs=("metrics", "pixels"))


def test_validation_resolution_scales_with_charge():
    cfg = parse_config(_small_doc())
    with pytest.raises(InvalidConfigError, match="charge 5"):
        # 32 < 8 * (5 + 1)
        dataclasses.replace(cfg, control=dataclasses.replace(cfg.control, tc=5))
    # the ring metrics are exact at any sample count, so analysis.m has one floor, 16
    resolved = dataclasses.replace(
        cfg, grid=dataclasses.replace(cfg.grid, n=64), control=dataclasses.replace(cfg.control, tc=5)
    )
    m16 = dataclasses.replace(resolved, analysis=dataclasses.replace(resolved.analysis, m=16))
    assert m16.analysis.m == 16
    with pytest.raises(InvalidConfigError, match="analysis.m must be an integer >= 16, got 15"):
        dataclasses.replace(resolved, analysis=dataclasses.replace(resolved.analysis, m=15))


def test_weak_probe_warning():
    cfg = default_config()
    with pytest.warns(WeakProbeWarning):
        # 0.03 > 0.5 * 0.05
        dataclasses.replace(cfg, probe_p=dataclasses.replace(cfg.probe_p, epsilon=0.03))


def test_run_config_is_a_checked_frozen_value():
    """No RunConfig is invalid or edited after its check, whichever API builds it."""
    cfg = default_config()
    # a section checks its own keys when it is built, before any RunConfig sees it
    with pytest.raises(InvalidConfigError, match="analysis.m must be an integer >= 16, got 3"):
        dataclasses.replace(cfg.analysis, m=3)
    with pytest.raises(InvalidConfigError, match="grid.n = 64 under-resolves charge 9"):
        dataclasses.replace(
            cfg,
            grid=dataclasses.replace(cfg.grid, n=64),
            outputs=("metrics", "pixels"),
            control=dataclasses.replace(cfg.control, tc=9),
        )
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.grid = GridSpec(8, 3.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.grid.n = 8
    assert cfg == default_config()


def test_a_section_is_its_dataclass():
    cfg = default_config()
    for name, value in (("grid", {"n": 64, "extent": 3.0}), ("medium", None), ("control", 4.0)):
        with pytest.raises(InvalidConfigError, match=f"^config section '{name}' must be a "):
            dataclasses.replace(cfg, **{name: value})


def test_outputs_is_a_list_of_names_stored_as_a_tuple():
    cfg = default_config()
    # a string used to be read one letter at a time
    with pytest.raises(InvalidConfigError, match="^'outputs' must be a list of product names$"):
        dataclasses.replace(cfg, outputs="metrics")
    listed = dataclasses.replace(cfg, outputs=["metrics", "images"])
    paired = dataclasses.replace(cfg, outputs=("metrics", "images"))
    assert listed.outputs == ("metrics", "images")
    assert listed == paired and hash(listed) == hash(paired)
    assert config_to_dict(listed) == config_to_dict(paired)
    assert config_to_dict(listed)["outputs"] == ["metrics", "images"]


def test_numpy_integers_are_stored_as_python_ints():
    cfg = default_config()
    plain = dataclasses.replace(cfg, grid=GridSpec(64, 3.0), analysis=AnalysisSpec("auto", 720))
    numpy = dataclasses.replace(
        cfg, grid=GridSpec(np.int64(64), 3.0), analysis=AnalysisSpec("auto", np.int64(720))
    )
    assert numpy == plain and hash(numpy) == hash(plain)
    assert type(numpy.grid.n) is int and type(numpy.analysis.m) is int
    assert json.loads(json.dumps(config_to_dict(numpy))) == config_to_dict(plain)


_BEAMS = ("control", "probe_p", "probe_s")
_REAL_KEYS = {
    "medium": ("gamma31", "gamma21", "delta", "d", "length"),
    **{beam: ("epsilon", "waist") for beam in _BEAMS},
    "grid": ("extent",),
    "analysis": ("radius",),
}
_INTEGER_KEYS = {**{beam: ("tc",) for beam in _BEAMS}, "grid": ("n",), "analysis": ("m",)}
_KEYS = [(section, key) for keys in (_REAL_KEYS, _INTEGER_KEYS) for section in keys
         for key in keys[section]]


@pytest.mark.parametrize("section, key", _KEYS, ids=[f"{s}.{k}" for s, k in _KEYS])
def test_every_key_rejects_a_wrong_type_by_name(section, key):
    """The document and the Python sections type a key by one rule, and name it."""
    integral = key in _INTEGER_KEYS.get(section, ())
    spec = getattr(parse_config(_small_doc()), section)
    # a beam built in Python does not know which beam it is
    name = f"beam.{key}" if section in _BEAMS else f"{section}.{key}"
    for value in ("x", True, None, 1.0 if integral else 10**400):
        doc = _small_doc()
        doc[section][key] = value
        with pytest.raises(InvalidConfigError, match=re.escape(f"'{section}.{key}'")):
            parse_config(doc)
        with pytest.raises(InvalidConfigError, match=re.escape(f"'{name}'")):
            type(spec)(**{**dataclasses.asdict(spec), key: value})
        with pytest.raises(InvalidConfigError, match=re.escape(f"'{name}'")):
            dataclasses.replace(spec, **{key: value})


def _python_number(lo, hi, integral=False):
    """A number in [lo, hi] as a Python or NumPy int, or (unless integral) float."""
    ints = st.integers(math.ceil(lo), math.floor(hi))
    numbers = [ints, ints.map(np.int64), ints.map(np.int32)]
    if not integral:
        floats = st.floats(lo, hi)
        numbers += [floats, floats.map(np.float64), floats.map(np.float32)]
    return st.one_of(numbers)


@st.composite
def _python_config(draw):
    """A valid RunConfig built in Python from ints, floats and NumPy scalars."""
    beams = [
        LGBeamSpec(
            draw(_python_number(0.0, 10.0)),
            draw(_python_number(-3, 3, integral=True)),
            draw(_python_number(0.5, 2.0)),
        )
        for _ in _BEAMS
    ]
    medium = MediumParams(
        draw(_python_number(0.0, 10.0)),
        draw(_python_number(0.0, 10.0)),
        draw(_python_number(-10.0, 10.0)),
        draw(_python_number(1e-3, 200.0)),
        draw(st.sampled_from([1, 1.0, np.int64(1), np.float64(1.0)])),
    )
    grid = GridSpec(draw(_python_number(64, 600, integral=True)), draw(_python_number(2.0, 4.0)))
    radius = draw(st.one_of(st.just("auto"), _python_number(0.0, 2.0)))
    analysis = AnalysisSpec(radius, draw(_python_number(16, 4096, integral=True)))
    outputs = draw(st.lists(st.sampled_from(["fields", "images", "profiles", "metrics"])))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", WeakProbeWarning)
        return RunConfig(medium, *beams, grid, draw(st.sampled_from([outputs, tuple(outputs)])),
                         analysis)


@given(cfg=_python_config())
@settings(max_examples=200, deadline=None)
def test_python_config_round_trips_and_its_echo_is_a_fixed_point(cfg):
    doc = config_to_dict(cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", WeakProbeWarning)
        assert parse_config(doc) == cfg
        text = json.dumps(doc, sort_keys=True)  # NumPy scalars would not serialize
        assert json.dumps(config_to_dict(parse_config(json.loads(text))), sort_keys=True) == text


@pytest.mark.parametrize(
    "section, value, library",
    [
        ("grid", {"n": 1, "extent": 3.0}, lambda extent: GridSpec(1, extent)),
        ("grid", {"n": 4097, "extent": 3.0}, lambda extent: GridSpec(4097, extent)),
        ("grid", {"n": 32, "extent": -1.0}, lambda extent: GridSpec(32, -1.0)),
        ("grid", {"n": 32, "extent": float("nan")}, lambda extent: GridSpec(32, float("nan"))),
        ("analysis", {"radius": "auto", "m": 15}, lambda extent: AnalysisSpec(m=15)),
        ("analysis", {"radius": "auto", "m": 65537}, lambda extent: AnalysisSpec(m=65537)),
        ("analysis", {"radius": 3.5, "m": 720}, lambda extent: check_radius(3.5, extent)),
        ("analysis", {"radius": -0.25, "m": 720}, lambda extent: check_radius(-0.25, extent)),
    ],
    ids=["n_1", "n_4097", "extent_negative", "extent_nan", "m_15", "m_65537", "radius_3.5",
         "radius_negative"],
)
def test_config_and_library_reject_a_key_with_one_text(section, value, library):
    """Each key's rules have one owner, ceilings included, so both ways in raise one message."""
    extent = parse_config(_small_doc()).grid.extent  # 3.0
    with pytest.raises(InvalidConfigError) as by_config:
        parse_config(_small_doc(**{section: value}))
    with pytest.raises(InvalidConfigError) as by_library:
        library(extent)
    message = str(by_config.value)
    assert message == str(by_library.value) and message.startswith(f"{section}.")
    assert type(by_config.value) is type(by_library.value)
    # a ring outside the grid raises OutOfGridError, a kind of InvalidConfigError
    assert isinstance(by_config.value, OutOfGridError) == message.startswith("analysis.radius")


def test_config_round_trip_identity():
    cfg = default_config()
    assert parse_config(config_to_dict(cfg)) == cfg
    pinned = dataclasses.replace(cfg, analysis=AnalysisSpec(0.75, 360), outputs=("images",))
    assert parse_config(config_to_dict(pinned)) == pinned
    bundled = [load_config(CONFIGS / name) for name in ("transfer.json", "interference.json")]
    presets = [base for base, *_ in _FIGURES.values()]
    for cfg in bundled + presets:
        assert parse_config(config_to_dict(cfg)) == cfg


def _readme_config():
    """The JSON block of README's Configuration section."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Configuration", 1)[1]
    return json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])


def test_readme_config_is_the_canonical_run():
    doc = _readme_config()
    assert config_to_dict(parse_config(doc)) == doc
    assert doc == config_to_dict(default_config())
    assert doc == config_to_dict(load_config(CONFIGS / "transfer.json"))


def test_readme_quickstart_runs_every_subcommand():
    """README's Quickstart shows each subcommand and no other."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    quickstart = text.split("## Quickstart", 1)[1].split("\n## ", 1)[0]
    shown = set(re.findall(r"^python3 -m vortex_twm (\S+)", quickstart, flags=re.MULTILINE))
    [subparsers] = [
        a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    assert shown == set(subparsers.choices)


def test_readme_module_map_names_every_public_module():
    """README's Module map has one row per public module of the package, and no other."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    module_map = text.split("## Module map", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `vortex_twm\.(\w+)`", module_map, flags=re.MULTILINE)
    public = {m.name for m in pkgutil.iter_modules(vortex_twm.__path__) if m.name[0] != "_"}
    assert sorted(listed) == sorted(public)


@pytest.mark.parametrize(
    "section, key",
    [
        ("medium", "detuning"),
        ("control", "wiast"),
        ("probe_p", "tc_"),
        ("probe_s", "Epsilon"),
        ("grid", "N"),
        ("analysis", "M"),
        (None, "output"),
    ],
)
def test_parse_rejects_unknown_key(section, key):
    doc = _small_doc()
    if section is None:
        doc[key] = ["metrics"]
        name = key
    else:
        doc[section][key] = 1.0
        name = f"{section}.{key}"
    with pytest.raises(InvalidConfigError, match=f"^unknown config key '{name}'$"):
        parse_config(doc)


def test_cli_rejects_misspelled_keys(tmp_path, capsys):
    # each typo used to fall back to its default: n = 256, delta = 0, waist 1
    doc = _small_doc()
    doc["output"] = doc.pop("outputs")
    doc["grid"] = {"N": 64}
    doc["analysis"] = {"M": 32}
    doc["medium"]["detuning"] = 3.0
    doc["control"]["wiast"] = 0.5
    names = "'output', 'medium.detuning', 'control.wiast', 'grid.N', 'analysis.M'"
    _cli_rejects(tmp_path, capsys, doc, f"unknown config keys {names}")


def _repeat_in_medium(text):
    return text.replace('"d": 8.0', '"d": 100.0, "d": 8.0')


def _repeat_top_level(text):
    return text[:-1] + ', "grid": {"n": 64, "extent": 3.0}}'


# json.load keeps the last of two equal keys: each of these used to run silently
@pytest.mark.parametrize(
    "repeat, key", [(_repeat_in_medium, "medium.d"), (_repeat_top_level, "grid")]
)
def test_duplicate_key_is_rejected(tmp_path, capsys, repeat, key):
    path = tmp_path / "cfg.json"
    text = repeat(json.dumps(_small_doc()))
    parse_config(json.loads(text))  # the last value wins and the run is valid
    path.write_text(text, encoding="utf-8")
    with pytest.raises(InvalidConfigError, match=f"^duplicate config key '{key}'$"):
        load_config(path)
    out = tmp_path / "out"
    assert cli.main(["fields", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"duplicate config key '{key}'" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_sweep_validates_every_cell_first(tmp_path, capsys):
    # lc = 40 needs n >= 328; the lc = 1 cell must not run before that is known
    out = tmp_path / "X"
    argv = ["sweep", "--param", "lc", "--values=1,40", "--config", str(CONFIGS / "transfer.json")]
    assert cli.main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "grid.n = 256 under-resolves charge 40" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_parse_config_error_paths():
    with pytest.raises(InvalidConfigError, match="medium"):
        parse_config({})
    with pytest.raises(InvalidConfigError, match="must be a JSON object"):
        parse_config([1, 2])
    with pytest.raises(InvalidConfigError, match="medium.d"):
        parse_config(_small_doc(medium={"gamma31": 1.0, "gamma21": 0.05}))
    with pytest.raises(InvalidConfigError, match="medium.gamma31"):
        parse_config(_small_doc(medium={"gamma31": "one", "gamma21": 0.05, "d": 8.0}))
    with pytest.raises(InvalidConfigError, match="medium.gamma31"):
        parse_config(_small_doc(medium={"gamma31": True, "gamma21": 0.05, "d": 8.0}))
    with pytest.raises(InvalidConfigError, match="control.tc"):
        parse_config(_small_doc(control={"epsilon": 4.0, "tc": 1.5}))
    with pytest.raises(InvalidConfigError, match="analysis.radius"):
        parse_config(_small_doc(analysis={"radius": "brightest", "m": 720}))
    with pytest.raises(InvalidConfigError, match="outputs"):
        parse_config(_small_doc(outputs="metrics"))
    with pytest.raises(InvalidConfigError, match="grid.n"):
        parse_config(_small_doc(grid={"n": 32.5, "extent": 3.0}))


@pytest.mark.parametrize("extent", [float("inf"), float("nan")])
def test_parse_rejects_non_finite_extent(extent):
    with pytest.raises(InvalidConfigError, match="grid.extent must be finite and positive"):
        parse_config(_small_doc(grid={"n": 32, "extent": extent}))


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(InvalidConfigError, match="not valid JSON"):
        load_config(path)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_config(tmp_path / "absent.json")


def test_run_manifest_hashes_are_faithful(tmp_path):
    cfg = parse_config(_small_doc(outputs=["metrics", "profiles"]))
    out = tmp_path / "run"
    manifest = run_config(cfg, out)
    assert manifest["config"] == config_to_dict(cfg)
    listed = {e["path"]: e for e in manifest["files"]}
    assert "metrics.csv" in listed
    for rel, entry in listed.items():
        full = out / rel
        assert full.stat().st_size == entry["bytes"]
        assert file_sha256(full) == entry["sha256"]
    on_disk = json.loads((out / "manifest.json").read_text())
    assert on_disk["files"] == manifest["files"]


def test_manifest_echo_reproduces_run_bytes(tmp_path):
    cfg = parse_config(_small_doc(outputs=["metrics", "images"]))
    first = tmp_path / "first"
    run_config(cfg, first)
    echoed = json.loads((first / "manifest.json").read_text())["config"]
    second = tmp_path / "second"
    run_config(parse_config(echoed), second)
    files1 = sorted(p.relative_to(first).as_posix() for p in first.rglob("*") if p.is_file())
    files2 = sorted(p.relative_to(second).as_posix() for p in second.rglob("*") if p.is_file())
    assert files1 == files2
    for rel in files1:
        assert (first / rel).read_bytes() == (second / rel).read_bytes()


def test_map_items_preserves_order(monkeypatch):
    for cpus in (1, 4):
        monkeypatch.setattr("os.cpu_count", lambda: cpus)
        threads = set()

        def square(k):
            threads.add(threading.current_thread())
            return k * k

        assert map_items(square, range(25)) == [k * k for k in range(25)]
        # one CPU runs the cells in a plain loop; more run them on a pool of at most cpus
        if cpus == 1:
            assert threads == {threading.current_thread()}
        else:
            assert threading.current_thread() not in threads
            assert len(threads) <= cpus


def test_rerun_manifest_lists_only_this_run(tmp_path, capsys):
    out = tmp_path / "run"
    full = _write_doc(tmp_path, _small_doc(outputs=["fields", "images", "profiles", "metrics"]))
    assert cli.main(["fields", "--config", str(full), "--out", str(out)]) == 0
    capsys.readouterr()
    images = _write_doc(tmp_path, _small_doc(outputs=["images"]), name="images.json")
    assert cli.main(["fields", "--config", str(images), "--out", str(out)]) == 0
    listed = [e["path"] for e in json.loads((out / "manifest.json").read_text())["files"]]
    assert listed == sorted(p.relative_to(out).as_posix() for p in (out / "images").iterdir())
    assert len(listed) == 12
    # the stale products of the first run are still on disk but not listed
    assert (out / "metrics.csv").exists() and (out / "fields").is_dir()
    assert f"wrote {len(listed)} files" in capsys.readouterr().out


@pytest.mark.parametrize("extent", [1e-300, 0.5])
def test_parse_rejects_extent_inside_waist(extent):
    with pytest.raises(InvalidConfigError, match="grid.extent"):
        parse_config(_small_doc(grid={"n": 32, "extent": extent}))


def test_parse_accepts_extent_at_waist():
    assert parse_config(_small_doc(grid={"n": 32, "extent": 1.0})).grid.extent == 1.0


def test_cli_rejects_extent_inside_waist(tmp_path, capsys):
    path = _write_doc(tmp_path, _small_doc(grid={"n": 32, "extent": 1e-300}))
    out = tmp_path / "out"
    assert cli.main(["fields", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "grid.extent" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("extent", [1e300, 1e308])
def test_parse_rejects_unresolved_waist(extent):
    # 2*extent/(n-1) must not exceed the smallest waist; 1e308 doubles to inf
    with pytest.raises(InvalidConfigError, match="does not resolve the beam waist"):
        parse_config(_small_doc(grid={"n": 32, "extent": extent}))
    narrow = _small_doc(probe_s={"epsilon": 0.005, "tc": 0, "waist": 0.1})
    with pytest.raises(InvalidConfigError, match="does not resolve the beam waist 0.1"):
        parse_config(narrow)
    narrow["grid"] = {"n": 61, "extent": 3.0}  # step exactly 0.1
    assert parse_config(narrow).grid.n == 61


def _cli_rejects(tmp_path, capsys, doc, message):
    path = _write_doc(tmp_path, doc)
    out = tmp_path / "out"
    assert cli.main(["fields", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_rejects_unresolved_waist(tmp_path, capsys):
    doc = _small_doc(grid={"n": 32, "extent": 1e300})
    _cli_rejects(tmp_path, capsys, doc, "does not resolve the beam waist")


def test_cli_rejects_grid_n_over_ceiling(tmp_path, capsys):
    doc = _small_doc(grid={"n": 200000, "extent": 3.0})
    _cli_rejects(tmp_path, capsys, doc, "grid.n = 200000 exceeds the ceiling 4096")
    assert parse_config(_small_doc(grid={"n": 4096, "extent": 3.0})).grid.n == 4096


def test_cli_rejects_analysis_m_over_ceiling(tmp_path, capsys):
    doc = _small_doc(analysis={"radius": "auto", "m": 65537})
    _cli_rejects(tmp_path, capsys, doc, "analysis.m = 65537 exceeds the ceiling 65536")
    assert parse_config(_small_doc(analysis={"radius": "auto", "m": 65536})).analysis.m == 65536


def _all_outputs_doc(name, epsilons):
    doc = json.loads((CONFIGS / name).read_text())
    for beam, epsilon in zip(("control", "probe_p", "probe_s"), epsilons):
        doc[beam]["epsilon"] = epsilon
    return {**doc, "outputs": ["fields", "images", "profiles", "metrics"]}


def test_cli_rejects_a_beam_amplitude_over_ceiling(tmp_path, capsys):
    # 1e308 used to exit 0 after overflow warnings, with inf profiles and a wrong ring radius
    path = _write_doc(tmp_path, _all_outputs_doc("interference.json", (4.0, 1e308, 0.005)))
    out = tmp_path / "out"
    assert cli.main(["fields", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: probe_p.epsilon = 1e+308 exceeds the ceiling 1e+100\n"
    assert not out.exists()


def test_cli_sweep_rejects_an_amplitude_over_ceiling(tmp_path, capsys):
    out = tmp_path / "X"
    config = str(CONFIGS / "interference.json")
    # an amp cell names its key control.epsilon, as parse_config does
    for value, err in (
        ("1e200", "control.epsilon = 1e+200 exceeds the ceiling 1e+100"),
        ("-1", "control.epsilon must be >= 0, got -1.0"),
    ):
        argv = ["sweep", "--param", "amp", f"--values={value}", "--config", config]
        assert cli.main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {err}\n"
        assert not out.exists()


@pytest.mark.parametrize("name", ["transfer.json", "interference.json"])
def test_beams_at_the_amplitude_ceiling_run_clean(tmp_path, name):
    # any numpy RuntimeWarning (overflow, invalid value) fails the suite
    with pytest.warns(WeakProbeWarning):
        cfg = parse_config(_all_outputs_doc(name, (EPSILON_MAX,) * 3))
    run_config(cfg, tmp_path / "run")
    tables = sorted((tmp_path / "run").rglob("*.csv"))
    assert len(tables) == 13  # six fields, six profiles, metrics
    for table in tables:
        text = table.read_text().lower()
        assert "inf" not in text and "nan" not in text, table.name


def test_cli_rejects_analysis_m_under_16(tmp_path, capsys):
    doc = _small_doc(control={"epsilon": 4.0, "tc": 3}, analysis={"radius": "auto", "m": 15})
    _cli_rejects(tmp_path, capsys, doc, "analysis.m must be an integer >= 16, got 15")
    doc["analysis"]["m"] = 16  # enough at any charge: the ring metrics do not sample
    assert parse_config(doc).analysis.m == 16


@pytest.mark.parametrize("key", ["gamma31", "gamma21", "delta", "d"])
def test_cli_rejects_a_medium_rate_that_overflows(tmp_path, capsys, key):
    # squaring gamma31 - gamma21 + i delta used to raise OverflowError, a traceback, and
    # numpy's overflow warnings used to come first; a RuntimeWarning now fails the suite
    medium = {"gamma31": 1.0, "gamma21": 0.05, "delta": 0.0, "d": 8.0}
    medium[key] = 1e308 if key == "d" else 1e200
    path = _write_doc(tmp_path, _small_doc(medium=medium))
    out = tmp_path / "out"
    assert cli.main(["fields", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: field contains non-finite values\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "outputs", [["profiles", "metrics"], ["fields", "images", "profiles", "metrics"]]
)
@pytest.mark.parametrize("key", ["gamma31", "gamma21", "delta", "d"])
def test_cli_rejects_a_medium_rate_that_overflows_with_other_products(
    tmp_path, capsys, key, outputs
):
    # the twin of the metrics-only run above: its rings and its painted fields fail alike
    medium = {"gamma31": 1.0, "gamma21": 0.05, "delta": 0.0, "d": 8.0}
    medium[key] = 1e308 if key == "d" else 1e200
    path = _write_doc(tmp_path, _small_doc(medium=medium, outputs=outputs))
    out = tmp_path / "out"
    assert cli.main(["fields", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: field contains non-finite values\n"
    assert not out.exists()


def _narrow_beam_doc(tc, n, outputs):
    """A narrow high-charge control: (r/w)**|l| overflows far out, where the beam is 0."""
    control = {"epsilon": 4.0, "tc": tc, "waist": 0.01}
    return _small_doc(control=control, grid={"n": n, "extent": 3.0}, outputs=outputs)


def test_cli_metrics_of_a_narrow_beam_read_only_their_rings(tmp_path, capsys):
    # its painted fields overflow in the grid corners, beyond every ring the metrics read
    path = _write_doc(tmp_path, _narrow_beam_doc(120, 1024, ["metrics"]))
    out = tmp_path / "out"
    assert cli.main(["fields", "--config", str(path), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    with open(out / "metrics.csv", newline="") as fh:
        rows = {row["field"]: row for row in csv.DictReader(fh)}
    assert (rows["omega_fs"]["winding"], rows["omega_fp"]["winding"]) == ("120", "-120")
    assert float(rows["omega_fs"]["ring_radius"]) == pytest.approx(0.18768, abs=1e-5)


@pytest.mark.parametrize("tc, n, outputs", [(120, 1024, ["images"]), (130, 1100, ["metrics"])])
def test_cli_rejects_a_narrow_beam_that_overflows_where_it_is_read(
    tmp_path, capsys, tc, n, outputs
):
    # painted: the corners overflow; at l = 130 the scanned rings overflow too
    path = _write_doc(tmp_path, _narrow_beam_doc(tc, n, outputs))
    out = tmp_path / "out"
    for command in (["fields"], ["sweep", "--param", "delta", "--values=0,3"]):
        assert cli.main([*command, "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: field contains non-finite values\n"
        assert not out.exists()


def test_cli_rejects_non_finite_extent(tmp_path, capsys):
    # json writes inf as Infinity, which json.load reads back
    path = _write_doc(tmp_path, _small_doc(grid={"n": 32, "extent": float("inf")}))
    out = tmp_path / "out"
    assert cli.main(["fields", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "grid.extent must be finite and positive" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_no_subcommand_fails():
    assert cli.main([]) == 1


def test_cli_unknown_subcommand_fails(capsys):
    assert cli.main(["frobnicate"]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_fields_happy_path(tmp_path, capsys):
    path = _write_doc(tmp_path, _small_doc())
    out = tmp_path / "out"
    assert cli.main(["fields", "--config", str(path), "--out", str(out)]) == 0
    assert "wrote" in capsys.readouterr().out
    assert (out / "metrics.csv").exists()
    assert (out / "manifest.json").exists()


def test_cli_fields_missing_config(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["fields", "--config", str(tmp_path / "no.json"), "--out", str(out)]) == 2


def test_cli_fields_invalid_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
    assert cli.main(["fields", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1


def test_cli_figure_unknown_id(tmp_path):
    assert cli.main(["figure", "fig9", "--out", str(tmp_path / "f")]) == 1


def test_cli_sweep_argument_errors(tmp_path):
    path = _write_doc(tmp_path, _small_doc())
    base = ["sweep", "--config", str(path), "--out", str(tmp_path / "s")]
    assert cli.main(base + ["--param", "waist", "--values", "1,2"]) == 1
    assert cli.main(base + ["--param", "delta", "--values", "a,b"]) == 1
    assert cli.main(base + ["--param", "delta", "--values", " , "]) == 1
    assert cli.main(base + ["--param", "lc", "--values", "1.5"]) == 1
    assert cli.main(base + ["--param", "lc", "--values=nan"]) == 1
    assert cli.main(base + ["--param", "delta", "--values=1,1.0000001"]) == 1


def test_cli_sweep_happy_path(tmp_path):
    path = _write_doc(tmp_path, _small_doc())
    out = tmp_path / "sweep"
    rc = cli.main(["sweep", "--config", str(path), "--param", "delta",
                   "--values", "0,3", "--out", str(out)])
    assert rc == 0
    header = (out / "metrics.csv").read_text().splitlines()[0]
    assert header.startswith("delta,field")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["sweep"]["param"] == "delta"
    assert manifest["sweep"]["values"] == [0.0, 3.0]


def test_cli_fields_profiles_every_field_on_a_pinned_ring(tmp_path):
    # the one way to profile a field at a chosen ring: pin analysis.radius
    doc = _small_doc(outputs=["profiles"], analysis={"radius": 1.0, "m": 720})
    path = _write_doc(tmp_path, doc)
    out = tmp_path / "prof"
    assert cli.main(["fields", "--config", str(path), "--out", str(out)]) == 0
    cfg = load_config(path)
    rings = output_rings(cfg.medium, cfg.control, cfg.probe_p, cfg.probe_s)(1.0)
    written = sorted((out / "profiles").iterdir())
    assert [p.name for p in written] == sorted(f"{name}_profile.csv" for name in rings)
    for name, amps in rings.items():
        want = tmp_path / f"want_{name}.csv"
        write_profile_csv(azimuthal_profile(1.0, amps, cfg.analysis.m), want)
        got = (out / "profiles" / f"{name}_profile.csv").read_bytes()
        assert got == want.read_bytes()
        assert len(got.decode().splitlines()) == 721
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"] == config_to_dict(cfg)


def test_cli_fields_dark_control_has_no_generated_ring(tmp_path, capsys):
    # a dark control generates nothing, so omega_fp has no ring to sample
    path = _write_doc(tmp_path, _small_doc(
        control={"epsilon": 0.0, "tc": 1}, outputs=["profiles", "metrics"]
    ))
    out = tmp_path / "p"
    assert cli.main(["fields", "--config", str(path), "--out", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert not (out / "profiles" / "omega_fp_profile.csv").exists()
    assert (out / "profiles" / "omega_p_profile.csv").exists()
    with open(out / "metrics.csv", newline="") as fh:
        rows = {row["field"]: row for row in csv.DictReader(fh)}
    assert len(rows) == 6
    assert rows["omega_fp"]["radius"] == rows["omega_fp"]["ring_radius"] == ""
    assert rows["omega_fp"]["winding"] == rows["omega_fp"]["peak_angle"] == ""


def test_cli_profile_subcommand_is_gone(tmp_path, capsys):
    path = _write_doc(tmp_path, _small_doc())
    out = tmp_path / "p"
    argv = ["profile", "--field", "d", "--config", str(path), "--out", str(out)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
    for command in ("fields", "figure", "sweep", "verify"):
        assert repr(command) in err
    assert not out.exists()


@pytest.mark.parametrize("radius", ["auto", 1.0])
def test_cli_fields_blank_where_the_ring_needs_the_axis(tmp_path, capsys, radius):
    # zero decays with a charged control make Y = 0 on the axis: an even
    # grid never samples it, but the brightest-ring scan starts there
    doc = _small_doc(
        medium={"gamma31": 0.0, "gamma21": 0.0, "d": 8.0},
        probe_p={"epsilon": 0.005, "tc": 1},
        probe_s={"epsilon": 0.005, "tc": 1},
        analysis={"radius": radius, "m": 720},
    )
    out = tmp_path / "out"
    assert cli.main(["fields", "--config", str(_write_doc(tmp_path, doc)), "--out", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    with open(out / "metrics.csv", newline="") as fh:
        rows = {row["field"]: row for row in csv.DictReader(fh)}
    for row in rows.values():
        assert row["ring_radius"] == ""
        if radius == "auto":
            assert row["radius"] == row["winding"] == row["petal_count"] == row["peak_angle"] == ""
        else:
            assert row["radius"] == "1" and row["winding"] != ""
    if radius != "auto":
        # the generated fields are single harmonics: ring-uniform, no petals
        assert rows["omega_fp"]["petal_count"] == rows["omega_fs"]["petal_count"] == "0"


def test_cli_metrics_on_an_odd_grid_never_read_its_axis_pixel(tmp_path, capsys):
    # zero decays with a charged control make Y = 0 on the axis, a pixel of an odd
    # grid: painting the fields fails there, while a pinned metric ring reads only r = 1
    doc = _small_doc(
        medium={"gamma31": 0.0, "gamma21": 0.0, "d": 8.0},
        probe_p={"epsilon": 0.005, "tc": 1},
        probe_s={"epsilon": 0.005, "tc": 1},
        grid={"n": 33, "extent": 3.0},
        analysis={"radius": 1.0, "m": 720},
    )
    out = tmp_path / "out"
    assert cli.main(["fields", "--config", str(_write_doc(tmp_path, doc)), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    with open(out / "metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert all(row["ring_radius"] == "" and row["winding"] != "" for row in rows)
    doc["outputs"] = ["images"]
    out = tmp_path / "painted"
    assert cli.main(["fields", "--config", str(_write_doc(tmp_path, doc)), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: response denominator Y = 0 (zero decays with zero control amplitude)\n"
    assert not out.exists()


def test_a_pinned_ring_winds_where_the_scan_meets_the_axis():
    # as in the metrics rows above: a scan that cannot be read leaves the ring's own maximum
    cfg = parse_config(_small_doc(
        medium={"gamma31": 0.0, "gamma21": 0.0, "d": 8.0},
        probe_p={"epsilon": 0.005, "tc": 1},
        probe_s={"epsilon": 0.005, "tc": 1},
    ))
    rings = output_rings(cfg.medium, cfg.control, cfg.probe_p, cfg.probe_s)
    with pytest.raises(DegenerateMediumError):
        rings(scan_radii(cfg.grid))
    amps = rings(1.0)
    assert winding_number(radial_max(amps["omega_fs"]), amps["omega_fs"]) == 2
    assert winding_number(radial_max(amps["omega_fp"]), amps["omega_fp"]) == 0
    pinned = analyse(dataclasses.replace(cfg, analysis=AnalysisSpec(1.0)))
    assert (pinned["omega_fs"][0]["winding"], pinned["omega_fp"][0]["winding"]) == (2, 0)


def test_every_blank_cell_of_the_presets_and_bundled_configs_keeps_its_reason():
    cfgs = [load_config(CONFIGS / name) for name in ("transfer.json", "interference.json")]
    for base, param, values, _columns, _notes in _FIGURES.values():
        cfgs += [cell for _label, cell in _sweep_cells(base, param, values)]
    cells = [
        (column, row[column])
        for cfg in cfgs for row, _profile in analyse(cfg).values() for column in METRIC_COLUMNS
    ]
    assert len(cfgs) == 22 and len(cells) == 792
    blanks = [(column, cell) for column, cell in cells if cell == ""]
    assert all(isinstance(cell, Blank) and isinstance(cell.why, VortexTwmError) for _, cell in blanks)
    # today every one is the peak angle of a ring without structure
    assert {(column, type(cell.why)) for column, cell in blanks} == {
        ("peak_angle", StructurelessProfileError)
    }
    assert len(blanks) == 96


def test_a_dark_field_blanks_its_ring_with_a_zero_field_error():
    cfg = parse_config(_small_doc(control={"epsilon": 0.0, "tc": 1}))
    row, profile = analyse(cfg)["omega_fp"]
    assert profile is None and isinstance(row["ring_radius"].why, ZeroFieldError)
    assert row["ring_radius"].why.__traceback__ is None  # it would hold the read's frames
    # an automatic ring: the blank ring is the radius and each metric read there
    for column in ("radius", "winding", "petal_count", "peak_angle"):
        assert row[column] is row["ring_radius"]


def test_an_unread_scan_hands_its_degenerate_medium_error_to_an_auto_ring():
    # zero decays with a charged control: Y = 0 on the axis, where the scan starts
    analysed = analyse(parse_config(_small_doc(
        medium={"gamma31": 0.0, "gamma21": 0.0, "d": 8.0},
        probe_p={"epsilon": 0.005, "tc": 1},
        probe_s={"epsilon": 0.005, "tc": 1},
    )))
    blanks = [row[c] for row, _profile in analysed.values() for c in METRIC_COLUMNS[1:]]
    assert len(blanks) == 30 and len({id(blank) for blank in blanks}) == 1
    assert blanks[0] == "" and isinstance(blanks[0].why, DegenerateMediumError)
    assert all(profile is None for _row, profile in analysed.values())


def test_cli_fields_a_ring_at_the_grid_edge_has_metrics(tmp_path, capsys):
    # the beams' rings lie past the grid, so each brightest ring is its edge; at n = 39 the
    # half-step sum passes extent 3.0 by an ulp, and the scan stops at the extent
    beam = {"tc": 3, "waist": 3.0}
    doc = _small_doc(
        medium={"gamma31": 1.0, "gamma21": 0.05, "d": 8.0},
        control={"epsilon": 4.0, **beam},
        probe_p={"epsilon": 0.005, **beam},
        probe_s={"epsilon": 0.005, **beam},
        grid={"n": 39, "extent": 3.0},
    )
    out = tmp_path / "out"
    assert cli.main(["fields", "--config", str(_write_doc(tmp_path, doc)), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    with open(out / "metrics.csv", newline="") as fh:
        rows = {row["field"]: row for row in csv.DictReader(fh)}
    assert all(row["radius"] == row["ring_radius"] == "3" for row in rows.values())
    omega_d = rows["omega_d"]
    assert (omega_d["winding"], omega_d["petal_count"]) == ("3", "3")
    assert omega_d["peak_angle"] == "1.5707963267948966"


def test_cli_verify_fast_passes(capsys):
    assert cli.main(["verify", "--level", "fast"]) == 0
    out = capsys.readouterr().out
    assert "verify: PASS" in out


def test_cli_verify_full_passes(capsys):
    assert cli.main(["verify", "--level", "full"]) == 0
    assert "verify: PASS" in capsys.readouterr().out


def test_cli_verify_unknown_level():
    assert cli.main(["verify", "--level", "exhaustive"]) == 1


def test_cli_verify_failure_exit_code(monkeypatch, capsys):
    fake = [SuiteResult(name="channel_oracle", max_error=1.0, tolerance=1e-7)]
    monkeypatch.setattr(cli, "run_verify", lambda level: fake)
    assert cli.main(["verify", "--level", "fast"]) == 3
    err = capsys.readouterr().err
    assert "channel_oracle" in err


@pytest.mark.parametrize(
    "argv, code",
    [
        (["--help"], 0),
        (["fields", "-h"], 0),
        (["verify", "--level=--"], 1),
        (["sweep", "--param", "delta", "--values=--", "--config", "c.json", "--out", "o"], 1),
    ],
)
def test_cli_help_and_lone_dashes_return_a_code(tmp_path, monkeypatch, argv, code):
    # argparse exits on -h and turns a "--" value into []; main returns instead
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == code
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "text",
    [
        b"\xff\xfe{",                                   # not UTF-8
        b'{"grid": {"n": ' + b"9" * 5000 + b"}}",       # over Python's integer digit limit
        b"[" * 100_000,                                 # deeper than the recursion limit
        json.dumps(_small_doc(control={"epsilon": 10**400, "tc": 1})).encode(),
        json.dumps(_small_doc(analysis={"radius": 10**400, "m": 720})).encode(),
    ],
    ids=["not_utf8", "long_integer", "deep_nesting", "epsilon_over_float", "radius_over_float"],
)
def test_cli_unreadable_config_exits_1(tmp_path, capsys, text):
    cfg = tmp_path / "c.json"
    cfg.write_bytes(text)
    assert cli.main(["fields", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "o").exists()


# ------------------------------------------------------------------ CLI fuzz

_JUNK = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3), st.lists(st.integers(), max_size=2)
)
_ODD = st.sampled_from([0.0, -1.0, float("nan"), float("inf"), 1e308, 5e-324, 10**400])
_RATE = st.one_of(st.floats(0.0, 50.0), _ODD, _JUNK)
_EPS = st.one_of(st.floats(0.0, 10.0), _ODD, _JUNK)
_VALID_DOC = _small_doc(
    outputs=["fields", "images", "profiles", "metrics"], analysis={"radius": "auto", "m": 64}
)
_BEAM_KEYS = ("epsilon", "tc", "waist")
_SECTION_KEYS = {
    "medium": ("gamma31", "gamma21", "delta", "d", "length"),
    "control": _BEAM_KEYS,
    "probe_p": _BEAM_KEYS,
    "probe_s": _BEAM_KEYS,
    "grid": ("n", "extent"),
    "analysis": ("radius", "m"),
}
# grid.n <= 64 and analysis.m <= 720, so no example samples a large array
_KEY_VALUES = {
    **{key: _RATE for key in _SECTION_KEYS["medium"]},
    "epsilon": _EPS,
    "tc": st.one_of(st.integers(-8, 8), st.just(10**30), _JUNK),
    "waist": st.one_of(st.floats(0.0, 4.0), _ODD, _JUNK),
    "n": st.one_of(st.integers(-2, 64), _JUNK),
    "extent": st.one_of(st.floats(0.0, 8.0), _ODD, _JUNK),
    "radius": st.one_of(st.just("auto"), st.floats(-1.0, 4.0), _ODD, _JUNK),
    "m": st.one_of(st.integers(-1, 720), _JUNK),
}
_OUTPUTS = st.one_of(
    st.lists(st.sampled_from(["fields", "images", "profiles", "metrics", "movie"]), max_size=4),
    _JUNK,
)


@st.composite
def _config_doc(draw):
    """A small valid document with up to three keys or sections changed, removed or renamed."""
    doc = json.loads(json.dumps(_VALID_DOC))
    for _ in range(draw(st.integers(1, 3)) if draw(st.booleans()) else 0):
        section = draw(st.sampled_from(sorted(_VALID_DOC)))
        keys = _SECTION_KEYS.get(section)
        if keys is None or not isinstance(doc.get(section), dict) or draw(st.integers(0, 3)) == 0:
            # without a grid section n would default to 256, so grid is never removed
            if section != "grid" and draw(st.booleans()):
                doc.pop(section, None)
            else:
                doc[section] = draw(_OUTPUTS if section == "outputs" else _JUNK)
            continue
        key = draw(st.sampled_from(keys))
        change = draw(st.integers(0, 4)) if key != "n" else 4
        if change == 0:
            doc[section].pop(key, None)
        elif change == 1:
            # a misspelled key: its value kept under a name one character longer
            doc[section][key + draw(st.sampled_from("s_X"))] = doc[section].pop(key, None)
        else:
            doc[section][key] = draw(_KEY_VALUES[key])
    return doc


# relative names only (no "/"), so a stray token lands in the example's own directory
_TOKEN = st.one_of(
    st.sampled_from(
        ["-h", "--help", "--bogus", "--", "-", "--out", "--config", "--values", "--radius"]
    ),
    st.text(alphabet="abcdefgilpstuv0123456789-.,=_ ", max_size=6),
).filter(lambda t: t not in ("..", "full", *FIGURE_IDS))
_NUMBER_TEXT = st.one_of(st.floats(-10.0, 10.0).map(repr), st.integers(-4, 4).map(str), _TOKEN)
_VALUES = st.one_of(st.lists(_NUMBER_TEXT, min_size=1, max_size=3).map(",".join), _TOKEN)


@st.composite
def _cli_argv(draw):
    # half the examples keep a well-formed command line, so that the runs get fuzzed too
    broken = draw(st.booleans())
    config, out = "config.json", "out"
    if broken:
        config = draw(st.sampled_from(["config.json", "missing.json", "."]))
        out = draw(st.sampled_from(["out", "config.json"]))  # an existing file is no directory
    # "profile" names no subcommand: the parser must reject it with exit 1
    command = draw(st.sampled_from(["fields", "figure", "sweep", "verify", "profile"]))
    if command == "fields":
        argv = ["fields", "--config", config, "--out", out]
    elif command == "figure":
        # the presets run their own 256- and 257-point grids (test_figures)
        argv = ["figure", draw(_TOKEN), "--out", out]
    elif command == "sweep":
        param = draw(st.sampled_from(["delta", "lc", "amp", "tc"]))
        values = f"--values={draw(_VALUES)}"
        argv = ["sweep", "--param", param, values, "--config", config, "--out", out]
    elif command == "verify":
        argv = ["verify", "--level", draw(st.one_of(st.just("fast"), _TOKEN))]
    else:
        argv = [command, "--config", config, "--out", out]
    for _ in range(draw(st.integers(0, 2)) if broken else 0):
        at = draw(st.integers(0, len(argv)))
        if draw(st.booleans()) and at < len(argv):
            del argv[at]
        else:
            argv.insert(at, draw(_TOKEN))
    return argv


@given(
    argv=_cli_argv(),
    doc=st.one_of(_config_doc(), st.one_of(_JUNK, st.binary(max_size=8))),
)
@example(
    argv=["fields", "--config", "config.json", "--out", "out"],
    doc={**_VALID_DOC, "medium": {**_VALID_DOC["medium"], "gamma31": 1e308}},
)
@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
def test_cli_fuzz_exits_with_a_code(tmp_path, argv, doc):
    """Any argv and any small config document: main returns 0, 1, 2 or 3
    and raises nothing."""
    with tempfile.TemporaryDirectory(dir=tmp_path) as work:
        cwd = os.getcwd()
        os.chdir(work)
        try:
            config = Path("config.json")
            if isinstance(doc, bytes):
                config.write_bytes(doc)
            else:
                config.write_text(json.dumps(doc))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # weak-probe and numpy overflow advisories
                code = cli.main(argv)
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2, 3), (argv, doc, code)
