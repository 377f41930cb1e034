"""Per-layer tracing from outside the program.

A ``Tracer`` rebinds public functions of a freshly imported peqlab to thin
wrappers that time each call and count it.  Spans nest: the tracer keeps a
stack, so time spent outside every listed layer during the stepping phase
is reported as unattributed, and ``pairwise_dot`` calls made inside
``project`` are counted apart.  Nothing in peqlab is edited; the wrappers
live only in the process that runs the workload.
"""

from __future__ import annotations

import os
from collections import defaultdict
from time import perf_counter


def rebind(modules, original, replacement):
    """Point every module attribute bound to `original` at `replacement`."""
    for mod in modules:
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, replacement)


def solve_flops(g) -> int:
    """Flops of one ImplicitDiffusion.solve, computed from its contractions.

    Each of the six einsum contractions multiplies an n_axis x n_axis factor
    into the (nx, ny, nz) tensor: 2 * n_axis * N flops, two per axis.  The
    eigenvalue division adds N.
    """
    n = g.nx * g.ny * g.nz
    return n * (4 * (g.nx + g.ny + g.nz) + 1)


class Tracer:
    """Call counts and inclusive times per layer, plus stepping coverage."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.stack = []
        self.stepping = False  # set by the benchmark between first step and end
        self.last = None  # (state, grid) of the latest step, set by the benchmark
        self.covered = 0.0  # stepping-phase time inside some top-level span
        self.flops = 0
        self.bytes = 0
        self.records_written = 0
        self.dots_in_project = 0

    def wrap(self, layer, fn, on_exit=None):
        def traced(*args, **kwargs):
            self.stack.append(layer)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                self.stack.pop()
                self.calls[layer] += 1
                self.seconds[layer] += took
                if self.stepping and not self.stack:
                    self.covered += took
                if on_exit is not None:
                    on_exit(args)

        return traced

    def install(self, pq):
        """Wrap the listed layers of one fresh import `pq` (see run.Peqlab)."""
        mods = pq.modules

        def fn(layer, original, on_exit=None):
            rebind(mods, original, self.wrap(layer, original, on_exit))

        def method(layer, cls, name, on_exit=None):
            setattr(cls, name, self.wrap(layer, getattr(cls, name), on_exit))

        def on_solve(args):
            self.flops += solve_flops(args[0].g)

        def on_dot(args):
            if "projection.project" in self.stack:
                self.dots_in_project += 1

        def on_write(path_at, rows_at=None):
            def count(args):
                self.bytes += os.path.getsize(args[path_at])
                self.records_written += 1 if rows_at is None else len(args[rows_at])

            return count

        fn("model.rhs", pq.model.momentum_rhs)
        fn("model.rhs", pq.model.temperature_rhs)
        method("model.refresh_w", pq.model.State, "refresh_w")
        method("integrator.state_copy", pq.model.State, "copy")
        method("diffusion.solve", pq.diffusion.ImplicitDiffusion, "solve", on_solve)
        method("diffusion.setup", pq.diffusion.ImplicitDiffusion, "__post_init__")
        fn("projection.project", pq.projection.project)
        fn("bc.fill_ghosts", pq.bc.fill_ghosts)
        fn("diagnostics.record", pq.diagnostics.compute_record)
        fn("diagnostics.l2sq", pq.diagnostics.l2sq)
        fn("operators.pairwise_sum", pq.operators.pairwise_sum)
        fn("operators.pairwise_dot", pq.operators.pairwise_dot, on_dot)
        fn("io.write", pq.io.write_snapshot, on_write(1))
        fn("io.write", pq.io.write_timeseries, on_write(1, 0))
        # the experiment commands write their CSVs through cli._write_csv
        fn("io.write", pq.cli._write_csv, on_write(0, 2))
        fn("tail.windowed_energy", pq.tail.windowed_T_energy)
        fn("config.parse", pq.config.parse_config_file)
        method("config.initial_state", pq.config.RunConfig, "initial_state")

    def per_call_ms(self, layer) -> float:
        n = self.calls[layer]
        return 1e3 * self.seconds[layer] / n if n else 0.0

    def layer_metrics(self, steps: int, stepping_s: float) -> dict:
        """Per-layer metrics; `steps` counts integrator.step calls traced."""
        per_step = 1.0 / steps

        def ms(layer):
            return 1e3 * self.seconds[layer] * per_step

        solve_s = self.seconds["diffusion.solve"]
        written = max(self.records_written, 1)
        return {
            "model.rhs_ms": (ms("model.rhs"), "ms"),
            "model.refresh_w_ms": (ms("model.refresh_w"), "ms"),
            "diffusion.solve_ms": (self.per_call_ms("diffusion.solve"), "ms"),
            "diffusion.solve_calls": (self.calls["diffusion.solve"] * per_step, "count"),
            "diffusion.solve_gflops": (self.flops / solve_s / 1e9 if solve_s else 0.0, "GFLOP/s"),
            "diffusion.setup_ms": (self.per_call_ms("diffusion.setup"), "ms"),
            "projection.project_ms": (self.per_call_ms("projection.project"), "ms"),
            "projection.dot_calls": (
                self.dots_in_project / max(self.calls["projection.project"], 1), "count"),
            "bc.fill_ghosts_ms": (ms("bc.fill_ghosts"), "ms"),
            "bc.fill_ghosts_calls": (self.calls["bc.fill_ghosts"] * per_step, "count"),
            "integrator.state_copy_ms": (ms("integrator.state_copy"), "ms"),
            "integrator.state_copies": (self.calls["integrator.state_copy"] * per_step, "count"),
            "diagnostics.record_ms": (self.per_call_ms("diagnostics.record"), "ms"),
            "diagnostics.l2sq_calls": (self.calls["diagnostics.l2sq"] * per_step, "count"),
            "operators.pairwise_sum_ms": (ms("operators.pairwise_sum"), "ms"),
            "operators.pairwise_sum_calls": (self.calls["operators.pairwise_sum"] * per_step, "count"),
            "io.snapshot_ms": (1e3 * self.seconds["io.write"] / written, "ms"),
            "io.bytes_written": (self.bytes / written, "B"),
            "tail.windowed_energy_ms": (self.per_call_ms("tail.windowed_energy"), "ms"),
            "config.parse_ms": (self.per_call_ms("config.parse"), "ms"),
            "config.initial_state_ms": (self.per_call_ms("config.initial_state"), "ms"),
            "trace.unattributed_pct": (
                100.0 * (1.0 - self.covered / stepping_s) if stepping_s else 0.0, "%"),
        }
