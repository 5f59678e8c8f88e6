"""Benchmark of vortex-twm: one workload per run, in this interpreter.

    python3 benchmark/run.py --workload run_full --seed 1 --seconds 36 --trace 0

Workloads (fixed presets; the seed only picks the pixels that the
run_full field check samples):

    run_full     run_config on configs/transfer.json, every product
    figures      reproduce_figure for fig3, fig4, fig5 and fig6
    verify_fast  run_verify("fast")

With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics, taken from spans around the
package's public functions (see spans.py). Every iteration's products
are checked (see checks.py); an iteration that fails a check counts as
failed. The last line of standard output is one JSON object.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import checks
from setup_probe import ROOT, load_configs, load_program
from spans import LAYERS, RENDER_WRITERS, Tracer, summarize

CONFIG_LOADS = 5  # traced config loads per traced run
FIGURES = ("fig3", "fig4", "fig5", "fig6")
# per-layer metrics that count; reported as the median, times as the mean
COUNTS = (
    "analysis.ring_radius_calls",
    "runner.field_metrics_calls",
    "render.bytes_written",
    "runner.hashed_bytes",
)

# The defaults README documents for keys a config document omits.
CONFIG_DEFAULTS = {
    "medium": {"gamma31": 1.0, "gamma21": 0.05, "delta": 0.0, "d": 100.0, "length": 1.0},
    "control": {"epsilon": 4.0, "tc": 1, "waist": 1.0},
    "probe_p": {"epsilon": 0.005, "tc": 0, "waist": 1.0},
    "probe_s": {"epsilon": 0.005, "tc": 0, "waist": 1.0},
    "grid": {"n": 256, "extent": 3.0},
    "outputs": ["fields", "images", "profiles", "metrics"],
    "analysis": {"radius": "auto", "m": 720},
}


# ------------------------------------------------------------ workloads


class RunFull:
    """One configured run with all four products into a fresh directory."""

    def __init__(self, program, configs, seed):
        self.program, self.seed = program, seed
        self.cfg = configs["transfer.json"]
        doc = json.loads((ROOT / "configs" / "transfer.json").read_text(encoding="utf-8"))
        self.doc = {
            key: {**default, **doc.get(key, {})} if isinstance(default, dict)
            else doc.get(key, default)
            for key, default in CONFIG_DEFAULTS.items()
        }
        self.first_manifest = None

    def run(self, out: Path):
        return self.program.run_config(self.cfg, out)

    def check(self, out: Path, _result) -> list[str]:
        errors = checks.check_run_full(out, self.doc, self.seed)
        manifest = (out / "manifest.json").read_bytes()
        if json.loads(manifest)["config"] != self.doc:
            errors.append("manifest config echo differs from the config document plus defaults")
        self.first_manifest = self.first_manifest or manifest
        if manifest != self.first_manifest:
            errors.append("manifest.json differs from the first iteration's")
        return errors


class Figures:
    """The four figure presets in turn, each into a fresh directory."""

    def __init__(self, program, _configs, _seed):
        self.program = program
        self.first_manifests = None

    def run(self, out: Path):
        for fig in FIGURES:
            self.program.reproduce_figure(fig, out / fig)

    def check(self, out: Path, _result) -> list[str]:
        errors = [e for fig in FIGURES for e in checks.check_figure(fig, out / fig)]
        manifests = checks.manifest_bytes(out)
        self.first_manifests = self.first_manifests or manifests
        if manifests != self.first_manifests:
            changed = sorted(k for k in manifests.keys() | self.first_manifests.keys()
                             if manifests.get(k) != self.first_manifests.get(k))
            errors.append(f"manifests differ from the first iteration's: {changed}")
        return errors


class VerifyFast:
    """The nine self-check suites at the fast level; writes nothing."""

    def __init__(self, program, _configs, _seed):
        self.program = program

    def run(self, _out: Path):
        return self.program.run_verify("fast")

    def check(self, _out: Path, results) -> list[str]:
        return checks.check_verify(results)


WORKLOADS = {"run_full": RunFull, "figures": Figures, "verify_fast": VerifyFast}


# ----------------------------------------------------------- measuring


def cpu_seconds() -> float:
    """CPU time of every thread of this process and of waited-for children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def setup_seconds() -> float:
    """Fresh interpreter until the package is imported and configs loaded."""
    probe = [sys.executable, str(Path(__file__).with_name("setup_probe.py"))]
    start = time.perf_counter()
    with subprocess.Popen(probe, stdout=subprocess.PIPE, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if line.strip() != b"ready" or code != 0:
        raise SystemExit(f"benchmark: set-up probe failed with exit code {code}")
    return elapsed


class Loop:
    """Runs and checks iterations; each gets a fresh output directory."""

    def __init__(self, workload, work_dir: Path):
        self.workload, self.work_dir = workload, work_dir
        self.attempted = self.failed = 0

    def iteration(self, call=lambda fn: fn()) -> tuple[float, float]:
        """One checked iteration; returns its wall and CPU seconds."""
        out = self.work_dir / f"iter{self.attempted}"
        self.attempted += 1
        wall0, cpu0 = time.perf_counter(), cpu_seconds()
        try:
            result = call(lambda: self.workload.run(out))
            raised = False
        except Exception:  # a program call that raises is a failed operation
            traceback.print_exc()
            raised = True
        wall, cpu = time.perf_counter() - wall0, cpu_seconds() - cpu0
        if raised:
            errors = ["the program call raised"]
        else:
            try:
                errors = self.workload.check(out, result)
            except Exception as exc:  # products the check cannot read are wrong
                errors = [f"check raised {exc!r}"]
        shutil.rmtree(out, ignore_errors=True)
        if errors:
            self.failed += 1
            print(f"iteration {self.attempted}: " + "; ".join(errors), file=sys.stderr)
        return wall, cpu


def rounds(seconds: float):
    """Yield for each round that should fit in the time left; at least one.

    A round is not started when the previous one's duration would carry
    the run past its time, so a run lasts about `seconds`, not more.
    """
    start = last = time.perf_counter()
    yield
    while True:
        now = time.perf_counter()
        if now + (now - last) - start > seconds:
            return
        last = now
        yield


def untraced_run(loop: Loop, seconds: float) -> dict:
    """Iterations until the time is up, each followed by a set-up probe."""
    loop.iteration()  # warm-up, not counted in the timings
    walls, cpus, setups = [], [], []
    for _ in rounds(seconds):
        wall, cpu = loop.iteration()
        walls.append(wall)
        cpus.append(cpu)
        # spread over the run, so that the median sees the run's conditions
        setups.append(setup_seconds())
    print("iteration walls: " + " ".join(f"{w:.4f}" for w in walls), file=sys.stderr)
    print("set-up probes: " + " ".join(f"{t:.4f}" for t in setups), file=sys.stderr)
    return {
        "setup_s": statistics.median(setups),
        "iter_s": statistics.median(walls),
        "cpu_s_per_iter": statistics.median(cpus),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(wall: float, s: dict) -> dict:
    """Per-layer metrics of one traced iteration that took `wall` seconds."""
    layers = sorted(set(LAYERS.values()) - {"config.load_config"})
    m = {f"{layer}_s": s["self"].get(layer, 0.0) for layer in layers}
    # program time in no layer: the root span, cell glue, the loop's own call
    m["trace.unattributed_s"] = (
        wall - s["wall"] + s["self"]["iteration"] + s["self"].get("parallel.cell", 0.0)
    )
    m["trace.parallel_overlap_s"] = s["overlap"]
    m["trace.iter_s"] = wall
    accounted = sum(m[f"{layer}_s"] for layer in layers) + m["trace.unattributed_s"] - s["overlap"]
    if abs(accounted - wall) > 1e-6 * wall:
        raise SystemExit(f"benchmark: layers account for {accounted} s of {wall} s")
    m["analysis.ring_radius_calls"] = s["calls"].get("analysis.ring_radius", 0)
    m["runner.field_metrics_calls"] = s["calls"].get("runner.field_metrics", 0)
    m["render.bytes_written"] = sum(s["amounts"].get(layer, 0) for layer in RENDER_WRITERS)
    m["runner.hashed_bytes"] = s["amounts"].get("runner.write_manifest", 0)
    m["parallel.queue_wait_s"] = s["queue_wait"]
    m["parallel.worker_busy_share"] = s["busy_share"]
    return m


def traced_run(
    loop: Loop, tracer: Tracer, config_loads: list, seconds: float, trace_path: Path
) -> dict:
    """Alternate untraced and traced iterations; per-layer means of the traced."""
    loop.iteration()  # warm-up, not counted in the timings
    plain, traced, recorded = [], [], []
    for _ in rounds(seconds):
        plain.append(loop.iteration()[0])
        tracer.install()
        try:
            wall = loop.iteration(tracer.run_iteration)[0]
        finally:
            tracer.remove()
        spans = tracer.drain()
        traced.append((wall, summarize(spans)))
        recorded.append(spans)
    trace_path.write_text(json.dumps({
        "span": ["id", "parent", "layer", "start", "end", "thread", "amount"],
        "config_loads": config_loads,
        "iterations": recorded,
    }) + "\n")

    per_iteration = [layer_metrics(wall, summary) for wall, summary in traced]
    metrics = {
        name: (statistics.median_low if name in COUNTS else statistics.fmean)(
            m[name] for m in per_iteration
        )
        for name in per_iteration[0]
    }
    metrics["trace.untraced_iter_s"] = statistics.fmean(plain)
    metrics["trace.overhead_s"] = metrics["trace.iter_s"] - metrics["trace.untraced_iter_s"]
    # set-up is not part of an iteration: the median over the traced set-ups
    metrics["config.load_config_s"] = statistics.median(
        summarize(spans)["self"]["config.load_config"] for spans in config_loads
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # the workloads run with the package's default worker count
    os.environ.pop("VORTEX_TWM_THREADS", None)
    program = load_program()
    tracer = Tracer() if args.trace else None
    config_loads = []
    if tracer:
        tracer.install()
        for _ in range(CONFIG_LOADS):
            configs = load_configs(program)
            config_loads.append(tracer.drain())
        tracer.remove()
    else:
        configs = load_configs(program)
    workload = WORKLOADS[args.workload](program, configs, args.seed)

    runs = ROOT / ".bench_runs"
    runs.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs))
    loop = Loop(workload, work_dir)
    try:
        if tracer:
            trace_path = runs / f"trace-{args.workload}-seed{args.seed}.json"
            metrics = traced_run(loop, tracer, config_loads, args.seconds, trace_path)
        else:
            metrics = untraced_run(loop, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    report = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, entry in report.items():
        print(f"{args.workload} {name} = {entry['value']:.6g} {entry['unit']}")
    print(f"{args.workload} attempted = {loop.attempted}, failed = {loop.failed}")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": report,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
