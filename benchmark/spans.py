"""Per-layer spans recorded from outside the package.

The tracer replaces public functions of ``vortex_twm`` by timing wrappers
in every module namespace that binds them (``figures``, ``runner`` and
``verify`` import functions by name), and restores them on ``remove``.
Spans are kept in memory, one buffer per thread, and carry their thread
and their parent span. A cell function handed to ``map_items`` is
wrapped too, so that its span on a worker thread hangs under the
``map_items`` span and its queue wait is known.
"""
from __future__ import annotations

import functools
import itertools
import os
import sys
import threading
from collections import defaultdict
from time import perf_counter

# (module, function) -> layer. Several functions may share one layer.
LAYERS = {
    ("config", "load_config"): "config.load_config",
    ("beams", "sample_lg"): "beams.sample_lg",
    ("propagation", "output_fields"): "propagation.output_fields",
    ("propagation", "integrate_channel_numeric"): "propagation.integrate_channel_numeric",
    ("medium", "evolve_coherences"): "medium.evolve_coherences",
    ("analysis", "ring_radius"): "analysis.ring_radius",
    ("analysis", "winding_number"): "analysis.winding_number",
    ("analysis", "azimuthal_profile"): "analysis.azimuthal_profile",
    ("render", "write_field_csv"): "render.write_field_csv",
    ("render", "write_intensity_pgm"): "render.write_images",
    ("render", "write_phase_ppm"): "render.write_images",
    ("render", "write_profile_csv"): "render.write_profile_csv",
    ("runner", "field_metrics"): "runner.field_metrics",
    ("runner", "write_manifest"): "runner.write_manifest",
    ("_parallel", "map_items"): "parallel.map_items",
    **{
        ("verify", fn): f"verify.{fn}"
        for fn in (
            "channel_oracle_error",
            "steady_kernel_error",
            "steady_evolution_error",
            "beta_branch_error",
            "decoupled_limit_error",
            "lossless_error",
            "probe_linearity_error",
            "sum_ripple_error",
            "anti_phase_peak_error",
        )
    },
}
PACKAGE = "vortex_twm"
CELL = "parallel.cell"  # a map_items cell; its self time is unattributed
ROOT = "iteration"
RENDER_WRITERS = {"render.write_field_csv", "render.write_images", "render.write_profile_csv"}


def _written_bytes(args, kwargs, _result) -> int:
    return os.path.getsize(kwargs.get("path", args[-1]))


def _hashed_bytes(_args, _kwargs, result) -> int:
    return sum(entry["bytes"] for entry in result["files"])


class Tracer:
    """Records spans as (id, parent, layer, start, end, thread, amount)."""

    def __init__(self):
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._buffers: list[tuple[threading.Thread, list]] = []
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    # ----------------------------------------------------------- buffers

    def _state(self):
        local = self._local
        if not hasattr(local, "spans"):
            local.spans, local.stack = [], []
            with self._lock:
                self._buffers.append((threading.current_thread(), local.spans))
        return local

    def drain(self) -> list[tuple]:
        """Take every recorded span; buffers of finished threads are dropped."""
        with self._lock:
            spans = [s for _t, buf in self._buffers for s in buf]
            for _t, buf in self._buffers:
                buf.clear()
            self._buffers = [(t, buf) for t, buf in self._buffers if t.is_alive()]
        return spans

    # ------------------------------------------------------------- spans

    def span(self, layer: str, parent=None, amount=None):
        """Decorator factory: time calls of fn as spans of `layer`."""

        def decorate(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                state = self._state()
                stack = state.stack
                sid = next(self._ids)
                up = stack[-1] if stack else parent
                stack.append(sid)
                result, done = None, False
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                    done = True
                finally:
                    end = perf_counter()
                    stack.pop()
                    qty = amount(args, kwargs, result) if amount and done else None
                    state.spans.append((sid, up, layer, start, end, threading.get_ident(), qty))
                return result

            return traced

        return decorate

    def run_iteration(self, fn):
        """Call fn() under the root span of one iteration."""
        return self.span(ROOT)(fn)()

    def _map_items(self, fn):
        @functools.wraps(fn)
        def traced_map(cell_fn, items):
            submitted = perf_counter()
            parent = self._state().stack[-1]
            # a cell span's amount is the time its item was submitted
            wrapped = self.span(CELL, parent=parent, amount=lambda *_: submitted)(cell_fn)
            return fn(wrapped, items)

        return self.span(LAYERS[("_parallel", "map_items")])(traced_map)

    # ----------------------------------------------------------- install

    def install(self) -> None:
        """Wrap each LAYERS function in every package namespace binding it."""
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for (mod_name, fn_name), layer in LAYERS.items():
            orig = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], fn_name)
            if fn_name == "map_items":
                wrapper = self._map_items(orig)
            else:
                amount = None
                if layer in RENDER_WRITERS:
                    amount = _written_bytes
                elif layer == "runner.write_manifest":
                    amount = _hashed_bytes
                wrapper = self.span(layer, amount=amount)(orig)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, orig))

    def remove(self) -> None:
        """Put the original functions back."""
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched.clear()


# ------------------------------------------------------------ analysis


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def summarize(spans: list[tuple]) -> dict:
    """Per-layer self time, call counts and amounts of one iteration.

    A span's self time is its duration minus the union of its children's
    intervals. Children on worker threads can overlap one another; their
    surplus over the union is returned as ``overlap``, so that
    sum(self times) - overlap equals the root span's duration.
    """
    children = defaultdict(list)
    for span in spans:
        children[span[1]].append(span)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    amounts = defaultdict(int)
    overlap = 0.0
    queue_wait = 0.0
    cell_busy = 0.0
    pool_capacity = 0.0
    wall = None
    for sid, _parent, layer, start, end, _thread, qty in spans:
        kids = [(k[3], k[4]) for k in children.get(sid, ())]
        covered = _covered(kids, start, end)
        self_time[layer] += (end - start) - covered
        overlap += sum(min(e, end) - max(s, start) for s, e in kids if e > s) - covered
        calls[layer] += 1
        if layer == ROOT:
            wall = end - start
        elif layer == CELL and qty is not None:
            queue_wait += start - qty
        elif qty is not None:
            amounts[layer] += qty
        if layer == "parallel.map_items":
            cells = children.get(sid, ())
            cell_busy += sum(k[4] - k[3] for k in cells)
            pool_capacity += len({k[5] for k in cells}) * (end - start)
    return {
        "wall": wall,
        "self": dict(self_time),
        "calls": dict(calls),
        "amounts": dict(amounts),
        "overlap": overlap,
        "queue_wait": queue_wait,
        "busy_share": cell_busy / pool_capacity if pool_capacity else 0.0,
    }
