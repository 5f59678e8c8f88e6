import csv
import hashlib
import itertools
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from vortex_twm import analysis, beams, cli, propagation
from vortex_twm.beams import lg_radial
from vortex_twm.config import load_config, parse_config
from vortex_twm.errors import InvalidConfigError
from vortex_twm.figures import (
    _FIGURES,
    CRESCENT_DEPTH,
    DETUNING_SWEEP,
    FIGURE_IDS,
    PETAL_DEPTH,
    SWEEP_PARAMS,
    _interference_base,
    _pinned_radius,
    _sweep_cells,
    reproduce_figure,
    run_sweep,
)
from vortex_twm.propagation import integrate_channel_numeric
from vortex_twm.runner import analyse, run_config

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _base_doc(**grid):
    return {
        "medium": {"gamma31": 1.0, "gamma21": 0.05, "delta": 0.0, "d": 8.0},
        "control": {"epsilon": 4.0, "tc": 1},
        "probe_p": {"epsilon": 0.005, "tc": 1},
        "probe_s": {"epsilon": 0.005, "tc": 1},
        "grid": grid or {"n": 48, "extent": 3.0},
        "outputs": ["metrics"],
    }


def _base_config(**grid):
    return parse_config(_base_doc(**grid))


def test_figure_ids_and_rejection(tmp_path):
    assert FIGURE_IDS == ("fig3", "fig4", "fig5", "fig6")
    assert SWEEP_PARAMS == ("delta", "lc", "amp")
    with pytest.raises(InvalidConfigError, match="fig9"):
        reproduce_figure("fig9", tmp_path)


def test_pinned_radius_sits_on_grid_nodes():
    for n, extent in ((257, 3.0), (1025, 3.0), (65, 2.0)):
        step = 2.0 * extent / (n - 1)
        r = _pinned_radius(n, extent)
        assert r / step == round(r / step)  # integer number of steps
        assert abs(r - math.sqrt(0.5)) <= 0.5 * step
    assert _pinned_radius(257, 3.0, charge=4) == pytest.approx(
        math.sqrt(2.0), abs=0.5 * (6.0 / 256)
    )


def test_sweep_validation(tmp_path):
    cfg = _base_config()
    with pytest.raises(InvalidConfigError, match="sweep param"):
        run_sweep(cfg, "waist", [1.0], tmp_path / "a")
    with pytest.raises(InvalidConfigError, match="at least one value"):
        run_sweep(cfg, "delta", [], tmp_path / "b")
    with pytest.raises(InvalidConfigError, match="integers"):
        run_sweep(cfg, "lc", [1.5], tmp_path / "c")
    with pytest.raises(InvalidConfigError, match="integers, got nan"):
        run_sweep(cfg, "lc", [float("nan")], tmp_path / "d")


def test_sweep_values_are_numbers(tmp_path):
    # from Python, "x" used to raise ValueError and None TypeError, and True ran as 1.0
    out = tmp_path / "s"
    for bad in ("x", None, True, 10**400):
        with pytest.raises(InvalidConfigError, match="^'sweep values' (must be a number|exceeds)"):
            run_sweep(_base_config(), "delta", [0.0, bad], out)
    assert not out.exists()


def test_sweep_rejects_colliding_labels(tmp_path):
    cfg = _base_config()
    out = tmp_path / "s"
    # both values print as delta_1 under the {v:g} label format
    with pytest.raises(InvalidConfigError, match=r"1\.0 and 1\.0000001 .*'delta_1'"):
        run_sweep(cfg, "delta", [1.0, 1.0000001], out)
    with pytest.raises(InvalidConfigError, match="'lc_2'"):
        run_sweep(cfg, "lc", [2.0, 3.0, 2.0], out)
    assert not out.exists()


def test_sweep_cells_revalidate(tmp_path):
    cfg = _base_config(n=32, extent=3.0)
    with pytest.raises(InvalidConfigError, match="charge 5"):
        run_sweep(cfg, "lc", [1.0, 5.0], tmp_path / "s")
    # the valid lc = 1 cell does not run before the invalid one is found
    assert not (tmp_path / "s").exists()


def test_sweep_amp_axis(tmp_path):
    cfg = _base_config()
    out = tmp_path / "amp"
    manifest = run_sweep(cfg, "amp", [0.0, 4.0], out)
    assert manifest["sweep"] == {"param": "amp", "values": [0.0, 4.0]}
    assert manifest["cells"] == ["amp_0", "amp_4"]
    assert (out / "amp_0" / "metrics.csv").exists()
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0] == "amp,field,radius,winding,petal_count,peak_angle,ring_radius"
    assert len(lines) == 1 + 2 * 6  # one row per output field per value
    by_key = {}
    for line in lines[1:]:
        cells = line.split(",")
        by_key[(cells[0], cells[1])] = cells
    # zero control: nothing generated, observables blank
    assert by_key[("0", "omega_fs")][2:] == [""] * 5
    # strong control: the s-probe charge flows into the mixed fields
    assert by_key[("4", "omega_fs")][3] == "2"   # lc + lp
    assert by_key[("4", "omega_fp")][3] == "0"   # ls - lc


def test_sweep_lc_axis_changes_charge(tmp_path):
    cfg = _base_config(n=64, extent=3.0)
    out = tmp_path / "lc"
    run_sweep(cfg, "lc", [1.0, 3.0], out)
    rows = (out / "metrics.csv").read_text().splitlines()[1:]
    windings = {(r.split(",")[0], r.split(",")[1]): r.split(",")[3] for r in rows}
    assert windings[("1", "omega_fs")] == "2"
    assert windings[("3", "omega_fs")] == "4"
    assert windings[("3", "omega_fp")] == "-2"


def test_fig5_structure_and_physics(tmp_path):
    out = tmp_path / "fig5"
    manifest = reproduce_figure("fig5", out)
    assert manifest["figure"] == "fig5"
    assert manifest["cells"] == [f"delta_{d:g}" for d in DETUNING_SWEEP]
    for label in manifest["cells"]:
        assert (out / label / "profiles" / "omega_d_profile.csv").exists()
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0] == "delta,radius,peak_d,peak_u,spread_d,spread_u"
    table = {float(r.split(",")[0]): [float(v) for v in r.split(",")[1:]] for r in lines[1:]}
    assert sorted(table) == sorted(DETUNING_SWEEP)
    peak_d, peak_u = table[0.0][1], table[0.0][2]
    assert abs(((peak_d - peak_u) % (2.0 * np.pi)) - np.pi) < 0.01
    # detuning washes out the azimuthal modulation symmetrically
    assert table[9.0][3] < table[0.0][3]
    assert table[-9.0][3] < table[0.0][3]
    assert table[9.0][4] < table[0.0][4]
    assert table[-9.0][4] < table[0.0][4]


def _counting_ring_radius(monkeypatch):
    calls = []
    real = analysis.ring_radius

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(analysis, "ring_radius", counted)
    return calls


def test_run_config_finds_each_ring_once(tmp_path, monkeypatch):
    calls = _counting_ring_radius(monkeypatch)
    cfg = load_config(CONFIGS / "transfer.json")
    assert {"profiles", "metrics"} <= set(cfg.outputs)
    run_config(cfg, tmp_path / "run")
    # one brightest-ring search per analysed field, shared by profiles and metrics
    assert len(calls) == 6
    assert len(list((tmp_path / "run" / "profiles").iterdir())) == 6


def test_fig3_table_reads_cell_metrics(tmp_path, monkeypatch):
    calls = _counting_ring_radius(monkeypatch)
    out = tmp_path / "fig3"
    manifest = reproduce_figure("fig3", out)
    assert len(calls) == 6 * len(manifest["cells"])
    with open(out / "metrics.csv", newline="") as fh:
        table = list(csv.DictReader(fh))
    assert len(table) == len(manifest["cells"])
    for label, line in zip(manifest["cells"], table):
        with open(out / label / "metrics.csv", newline="") as fh:
            cell = {row["field"]: row for row in csv.DictReader(fh)}
        assert label == f"lc_{line['lc']}"
        for key in ("fp", "fs"):
            assert line[f"winding_{key}"] == cell[f"omega_{key}"]["winding"]
            assert line[f"ring_{key}"] == cell[f"omega_{key}"]["ring_radius"]


@pytest.mark.parametrize("case", ["transfer.json", "interference.json", "fig6"])
def test_transmitted_probes_keep_their_charge(tmp_path, case):
    if case == "fig6":
        base = _interference_base(PETAL_DEPTH, ("metrics",))
        [(_label, cfg)] = _sweep_cells(base, "lc", [3])
    else:
        cfg = replace(load_config(CONFIGS / case), outputs=("metrics",))
    run_config(cfg, tmp_path / "run")
    with open(tmp_path / "run" / "metrics.csv", newline="") as fh:
        windings = {row["field"]: row["winding"] for row in csv.DictReader(fh)}
    assert windings["omega_p"] == str(cfg.probe_p.tc)
    assert windings["omega_s"] == str(cfg.probe_s.tc)


def _counting_exit_faces(monkeypatch):
    calls = []
    real = propagation._exit_faces
    monkeypatch.setattr(propagation, "_exit_faces", lambda *a: calls.append(a) or real(*a))
    return calls


@pytest.mark.parametrize("ring", ["pinned", "auto"])
def test_ring_reads_evaluate_one_point_per_radius(tmp_path, monkeypatch, ring):
    calls = _counting_exit_faces(monkeypatch)
    if ring == "pinned":
        cfg = _interference_base(CRESCENT_DEPTH, ("images", "metrics"))
    else:
        cfg = load_config(CONFIGS / "transfer.json")
    run_config(cfg, tmp_path / "run")
    step = 2.0 * cfg.grid.extent / (cfg.grid.n - 1)
    scan = np.arange(0.0, cfg.grid.extent + 0.25 * step, 0.5 * step).size
    # the grid once per distinct radius; every ring read once per radius, never per angle
    sizes = sorted(np.size(control) for _p, control, _probe_p, _probe_s in calls)
    assert sizes[-1] == np.unique(cfg.grid.r).size == {257: 5939, 256: 10260}[cfg.grid.n]
    assert sizes[-2] == scan
    assert set(sizes[:-1]) == {1, scan}


def test_analyse_evaluates_the_exit_faces_once_per_radius(monkeypatch):
    cfg = _interference_base(CRESCENT_DEPTH, ("images", "metrics"))  # fig4's delta = 0 cell
    calls = _counting_exit_faces(monkeypatch)
    analyse(cfg)
    step = 2.0 * cfg.grid.extent / (cfg.grid.n - 1)
    scan = np.arange(0.0, cfg.grid.extent + 0.25 * step, 0.5 * step).size
    # the six fields share the ring-radius scan, then the pinned ring (18 reads unshared)
    assert [np.size(control) for _p, control, _probe_p, _probe_s in calls] == [scan, 1]


def test_analyse_evaluates_the_exit_faces_once_per_distinct_ring(monkeypatch):
    cfg = load_config(CONFIGS / "transfer.json")  # analysis.radius "auto"
    calls = _counting_exit_faces(monkeypatch)
    analysed = analyse(cfg)
    step = 2.0 * cfg.grid.extent / (cfg.grid.n - 1)
    scan = np.arange(0.0, cfg.grid.extent + 0.25 * step, 0.5 * step).size
    rings = {row["ring_radius"] for row, _profile in analysed.values()}
    # the six fields share the scan, then each distinct brightest ring is read once
    assert len(rings) == 3 and "" not in rings
    assert [np.size(control) for _p, control, _probe_p, _probe_s in calls] == [scan, 1, 1, 1]
    # a ring read is a scalar evaluation: numpy scalars, no 0-d arrays
    assert not any(isinstance(control, np.ndarray) for _p, control, _pp, _ps in calls[1:])


def _assert_manifest_lists_the_files(out: Path):
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    on_disk = sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
    assert [e["path"] for e in manifest["files"]] == [p for p in on_disk if p != "manifest.json"]
    for entry in manifest["files"]:
        data = (out / entry["path"]).read_bytes()
        assert entry["bytes"] == len(data)
        assert entry["sha256"] == hashlib.sha256(data).hexdigest()
    return manifest


def test_figure_and_sweep_manifests_match_the_files(tmp_path):
    # a top manifest reuses its cells' digests: every entry must still be the file's
    cfg = replace(_base_config(n=32, extent=3.0), outputs=("images", "profiles", "metrics"))
    reproduce_figure("fig4", tmp_path / "fig4")
    run_sweep(cfg, "delta", [-3.0, 0.0, 3.0], tmp_path / "sweep")
    for out in (tmp_path / "fig4", tmp_path / "sweep"):
        manifest = _assert_manifest_lists_the_files(out)
        for label in manifest["cells"]:
            _assert_manifest_lists_the_files(out / label)


def _tree_bytes(root: Path) -> dict:
    return {
        p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


def test_sweep_bytes_do_not_depend_on_cpu_count(tmp_path, monkeypatch):
    cfg = replace(_base_config(n=32, extent=3.0), outputs=("images", "profiles", "metrics"))
    trees = []
    for cpus in (1, 2):
        monkeypatch.setattr("os.cpu_count", lambda: cpus)
        out = tmp_path / f"cpus_{cpus}"
        manifest = run_sweep(cfg, "delta", [-3.0, 0.0, 3.0], out)
        trees.append(_tree_bytes(out))
        # the sweep manifest lists every file of the tree but itself
        assert [e["path"] for e in manifest["files"]] == sorted(set(trees[-1]) - {"manifest.json"})
    assert trees[0] == trees[1]


ALL_OUTPUTS = ("fields", "images", "profiles", "metrics")


@pytest.mark.parametrize(
    "param, values", [("fig6", None), ("delta", (-3, 0, 3)), ("lc", (-2, 1, 3)), ("amp", (0, 2.5, 4))]
)
def test_each_sweep_cell_is_the_run_of_its_config(tmp_path, param, values):
    # cells run on the thread pool: that must not move a byte
    if param == "fig6":
        base, param, values = _FIGURES["fig6"][:3]
        reproduce_figure("fig6", tmp_path / "sweep")
    else:
        base = replace(_base_config(n=32, extent=3.0), outputs=ALL_OUTPUTS)
        run_sweep(base, param, values, tmp_path / "sweep")
    for label, cfg in _sweep_cells(base, param, values):
        run_config(cfg, tmp_path / "alone" / label)
        assert _tree_bytes(tmp_path / "sweep" / label) == _tree_bytes(tmp_path / "alone" / label)


def _counting(monkeypatch, module, *names) -> dict:
    calls = {name: [] for name in names}
    for name in names:
        real = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *a, _real=real, _calls=calls[name]: _calls.append(a) or _real(*a)
        )
    return calls


def _counting_raster_makers(monkeypatch) -> dict:
    return {**_counting(monkeypatch, beams, "sample_lg"),
            **_counting(monkeypatch, propagation, "output_fields")}


@pytest.mark.parametrize(
    "outputs, painted",
    [(("metrics",), False), (("profiles", "metrics"), False), (("images",), True),
     (("fields", "metrics"), True)],
)
def test_a_run_paints_the_fields_only_for_fields_or_images(
    tmp_path, monkeypatch, outputs, painted
):
    calls = _counting_raster_makers(monkeypatch)
    run_config(replace(load_config(CONFIGS / "transfer.json"), outputs=outputs), tmp_path / "run")
    assert {name: len(c) for name, c in calls.items()} == {"sample_lg": 0, "output_fields": int(painted)}


def test_fig5_paints_no_field(tmp_path, monkeypatch):
    calls = _counting_raster_makers(monkeypatch)
    reproduce_figure("fig5", tmp_path / "fig5")
    assert calls == {"sample_lg": [], "output_fields": []}


def _grid_doc(lc, lp, ls, d, delta, ring, decays):
    gamma21, gamma31 = decays
    return {
        "medium": {"gamma31": gamma31, "gamma21": gamma21, "delta": delta, "d": d},
        "control": {"epsilon": 4.0, "tc": lc},
        "probe_p": {"epsilon": 0.005, "tc": lp},
        "probe_s": {"epsilon": 0.005, "tc": ls},
        "grid": {"n": 64, "extent": 3.0},
        "analysis": {"radius": ring, "m": 64},
    }


RING_AXES = (
    (-3, -1, 0, 1, 2),  # lc
    (-1, 0, 1),  # lp
    (0, 1, -2),  # ls
    (4.0, 100.0),  # d
    (0.0, 3.0),  # delta
    ("auto", 0.7),  # analysis.radius
    ((0.05, 1.0), (0.0, 0.0)),  # (gamma21, gamma31)
)
# every 15th of the 720 configs: all 16 combinations of ls, d, delta, ring and decays,
# the zero-decay pinned-ring ones (whose scan fails on the axis) among them
RING_GRID = list(itertools.islice(itertools.product(*RING_AXES), 0, None, 15))


@pytest.mark.parametrize("axes", RING_GRID, ids=lambda axes: "_".join(map(str, axes)))
def test_unpainted_metrics_and_profiles_are_the_painted_ones(tmp_path, axes):
    doc = _grid_doc(*axes)
    trees = []
    for outputs in (("profiles", "metrics"), ALL_OUTPUTS):
        out = tmp_path / str(len(outputs))
        run_config(parse_config({**doc, "outputs": list(outputs)}), out)
        trees.append({p: b for p, b in _tree_bytes(out).items() if p != "manifest.json"})
    painted = {p: b for p, b in trees[1].items() if p.split("/")[0] in ("profiles", "metrics.csv")}
    assert trees[0] == painted


def _write_doc(path: Path, **overrides) -> Path:
    """The base document on a 16-point grid with every product, overridden."""
    doc = {**_base_doc(n=16, extent=3.0), "outputs": list(ALL_OUTPUTS), **overrides}
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_an_amp_sweep_over_opposite_zero_signs_runs_each_cell_alone(tmp_path):
    path = _write_doc(tmp_path / "doc.json", grid={"n": 32, "extent": 3.0})
    out = tmp_path / "sweep"
    argv = ["sweep", "--param", "amp", "--values=-0,0", "--config", str(path), "--out", str(out)]
    assert cli.main(argv) == 0
    trees = []
    for label, cfg in _sweep_cells(load_config(path), "amp", [-0.0, 0.0]):
        run_config(cfg, tmp_path / "alone" / label)
        trees.append(_tree_bytes(out / label))
        assert trees[-1] == _tree_bytes(tmp_path / "alone" / label), label
    # each field is its rings times a phase, so a dark control of either sign paints the same
    fields = [{p: b for p, b in tree.items() if p.startswith("fields/")} for tree in trees]
    assert len(fields[0]) == 6 and fields[0] == fields[1]


CONTROL_AMPLITUDES = (0.5, 1.0, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0, 12.0, 16.0, 32.0)


def _crescent_peaks(depth, delta):
    """(peak_d, peak_u) of the fig4 cell at each control amplitude, on a coarse grid."""
    base = _interference_base(depth, ("metrics",))
    base = replace(base, grid=replace(base.grid, n=33))
    base = replace(base, medium=replace(base.medium, delta=delta))
    peaks = []
    for _label, cfg in _sweep_cells(base, "amp", CONTROL_AMPLITUDES):
        analysed = analyse(cfg)
        peaks.append(tuple(analysed[name][0]["peak_angle"] for name in ("omega_d", "omega_u")))
    return peaks


@pytest.mark.parametrize("depth", [CRESCENT_DEPTH, 30.0])
def test_control_intensity_turns_crescents(depth):
    """The control amplitude turns the two crescents in opposite senses;
    on resonance it can only flip them by pi, between pi/2 and 3 pi/2."""
    for delta in (0.0, 3.0):
        peaks = _crescent_peaks(depth, delta)
        for peak_d, peak_u in peaks:
            total = (peak_d + peak_u) % (2.0 * math.pi)
            assert min(total, 2.0 * math.pi - total) <= 1e-9, (delta, peak_d, peak_u)
        if delta != 0.0:
            continue
        for peak in (p for pair in peaks for p in pair):
            assert min(abs(peak - math.pi / 2.0), abs(peak - 1.5 * math.pi)) <= 1e-9, peak
        orientation = [peak_d < math.pi for peak_d, _peak_u in peaks]
        flips = sum(a != b for a, b in zip(orientation, orientation[1:]))
        # d = 8 holds the orientation for every amplitude; d = 30 swaps it back and forth
        assert flips == 0 if depth == CRESCENT_DEPTH else flips >= 2, orientation


@pytest.mark.parametrize(
    "depth, flip_steps",
    [(CRESCENT_DEPTH, set()), (30.0, {(2.0, 2.5), (2.5, 3.0), (4.0, 5.0), (8.0, 12.0)})],
)
def test_crescent_flips_are_sign_changes_of_the_rk4_oracle(depth, flip_steps):
    """On resonance the generated p-channel field at a ring point is -i c b0
    times a real factor, sin(beta x)/beta damped; the RK4 oracle, not the
    closed form, finds its sign, and it changes exactly where peak_d flips."""
    base = _interference_base(depth, ("metrics",))
    base = replace(base, grid=replace(base.grid, n=33))
    r = np.array(base.analysis.radius)
    b0 = lg_radial(base.probe_p)(r)  # the ring at theta = 0
    signs = []
    for _label, cfg in _sweep_cells(base, "amp", CONTROL_AMPLITUDES):
        c = lg_radial(cfg.control)(r)
        state = integrate_channel_numeric(cfg.medium, c, b0, "p", 1000)
        factor = complex(state.generated / (-1j * c * b0))
        assert abs(factor.imag) <= 1e-9 * abs(factor), (cfg.control.epsilon, factor)
        signs.append(factor.real > 0.0)
    orientation = [peak_d < math.pi for peak_d, _peak_u in _crescent_peaks(depth, 0.0)]
    steps = list(zip(CONTROL_AMPLITUDES, CONTROL_AMPLITUDES[1:]))
    sign_flips = {s for s, a, b in zip(steps, signs, signs[1:]) if a != b}
    peak_flips = {s for s, a, b in zip(steps, orientation, orientation[1:]) if a != b}
    assert sign_flips == peak_flips == flip_steps, (sign_flips, peak_flips)
