"""End-to-end and per-layer benchmark for peqlab.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload reference --seed 1 --seconds 25 --trace 0

One process runs whole rounds of a workload until ``--seconds`` are spent.
A round imports peqlab afresh, derives its configs from the committed ones,
runs the workload's commands through ``peqlab.cli`` exactly as the command
line would, and then checks every output against recomputations made in
``checks.py``.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (see ``end_to_end``);
with ``--trace 1`` untraced and traced rounds alternate and the metrics are
the per-layer figures of ``layers.py``.  README.md has the details.
"""

import os

#: BLAS/OpenMP thread counts; set here, never inherited from the caller
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field, replace  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
from layers import Tracer, rebind  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIGS = ROOT / "configs"

#: peqlab modules a round imports afresh (the package itself comes first)
PEQLAB_MODULES = (
    "params", "grid", "bc", "operators", "model", "projection", "diffusion",
    "diagnostics", "integrator", "io", "tail", "mms", "config", "cli",
)

#: the seed scales each listed amplitude by a factor in [1 - JITTER, 1 + JITTER]
JITTER = 0.02

#: rounds every run makes, whatever --seconds says (untraced, traced mode)
MIN_ROUNDS = 3
MIN_ROUNDS_TRACED = 2


@dataclass(frozen=True)
class Command:
    """One peqlab command of a workload, on a config derived from a committed one."""

    verb: str
    config: str
    overrides: dict = field(default_factory=dict)
    jitter: tuple = ()

    @property
    def name(self) -> str:
        return Path(self.config).stem


def horizon(steps: int, dt: float) -> str:
    return repr(steps * dt)


WORKLOADS = {
    # reference physics at 64x32x16, 20 steps, records every 20 steps
    "reference": (
        Command("run", "reference.cfg", {"step.t_end": horizon(20, 0.01)},
                ("init.t_amplitude",)),
    ),
    # same physics at 128x64x32: nx*ny = 8192 puts every projection on Jacobi-PCG
    "large": (
        Command("run", "reference.cfg",
                {"grid.nx": "128", "grid.ny": "64", "grid.nz": "32",
                 "step.t_end": horizon(4, 0.01)},
                ("init.t_amplitude",)),
    ),
    # unforced decay, 50 steps, a record and a snapshot after every step
    "dense_output": (
        Command("run", "dissipation.cfg",
                {"step.t_end": horizon(50, 0.01), "step.output_every": "1",
                 "output.snapshots": "true"},
                ("init.t_amplitude",)),
    ),
    # the committed experiment configs
    "experiments": (
        Command("tail", "tail.cfg", jitter=("q.amplitude",)),
        Command("truncate", "truncation.cfg", jitter=("q.amplitude",)),
        Command("contract", "contraction_default.cfg", jitter=("init.t_amplitude",)),
        Command("contract", "contraction_diffusive.cfg", jitter=("init.t_amplitude",)),
        Command("mms", "mms.cfg"),
    ),
}


def derive_config(command: Command, rng: random.Random) -> str:
    """Committed config text with the command's overrides and seeded amplitudes."""
    text = (CONFIGS / command.config).read_text(encoding="utf-8")
    values = checks.read_cfg(text)
    changes = dict(command.overrides)
    for key in command.jitter:
        scale = 1.0 + JITTER * (2.0 * rng.random() - 1.0)
        changes[key] = repr(float(values[key]) * scale)
    lines = []
    for raw in text.splitlines():
        key = raw.split("#", 1)[0].partition("=")[0].strip()
        lines.append(f"{key} = {changes.pop(key)}" if key in changes else raw)
    lines.extend(f"{key} = {value}" for key, value in changes.items())
    return "\n".join(lines) + "\n"


class Peqlab:
    """One fresh import of peqlab from the checkout; its modules as attributes."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "peqlab" or m.startswith("peqlab.")]:
            del sys.modules[name]
        self.modules = [importlib.import_module("peqlab")]
        for name in PEQLAB_MODULES:
            module = importlib.import_module(f"peqlab.{name}")
            setattr(self, name, module)
            self.modules.append(module)


def factor_grids(pq: Peqlab, cmd: Command, cfg):
    """(params, grid, dt) of every grid a command steps on."""
    p = cfg.params()
    if cmd.verb == "mms":
        return [(p, pq.grid.make_grid(p, n, n, n), cfg["mms.dt"]) for n in cfg["mms.sizes"]]
    dt = cfg["step.dt"]
    if cmd.verb == "truncate":
        nx, ny, nz = cfg["grid.nx"], cfg["grid.ny"], cfg["grid.nz"]
        k = cfg["truncate.factor"]
        wide = replace(p, lx=k * p.lx)
        return [(p, pq.grid.make_grid(p, nx, ny, nz), dt),
                (wide, pq.grid.make_grid(wide, k * nx, ny, nz), dt)]
    return [(p, cfg.grid(), dt)]


def factorize(pq: Peqlab, cmd: Command, cfg_path: Path):
    """Build the eigendecompositions the command's steps use, through its caches."""
    cfg = pq.config.parse_config_file(cfg_path)
    kinds = ("temperature",) if cfg["step.temperature_only"] else ("velocity", "temperature")
    for p, g, dt in factor_grids(pq, cmd, cfg):
        for kind in kinds:
            pq.integrator._cached_diffusion(p, g, dt, kind)
        pq.projection._poisson_factors(g)


@dataclass
class Round:
    setup_s: float = 0.0
    wall_s: float = 0.0
    segments: list = field(default_factory=list)  # per command: step starts and end, diffed
    intervals: dict = field(default_factory=dict)  # (command, grid) -> warm step intervals
    steps: int = 0
    results: list = field(default_factory=list)  # (command, exit code, stdout, outdir)


def warm_intervals(stamps, command: int, into: dict):
    """Intervals between consecutive step calls of one command, by grid stepped.

    Each interval is filed under the grid of the step it starts with.  An
    interval that starts or ends at the first step on a grid is dropped: it
    holds that grid's warm-up (and, between MMS levels, the next set-up).
    """
    seen, first = set(), []
    for _, g in stamps:
        first.append(g not in seen)
        seen.add(g)
    for k in range(len(stamps) - 1):
        if not (first[k] or first[k + 1]):
            g = stamps[k][1]
            key = (command, g.nx, g.ny, g.nz, g.lx)
            into.setdefault(key, []).append(stamps[k + 1][0] - stamps[k][0])


def run_round(commands, cfg_paths, rounddir: Path, tracer=None) -> Round:
    """One timed round: fresh import, then each command through peqlab.cli."""
    out = Round()
    stamps = []
    start = perf_counter()
    pq = Peqlab()
    out.setup_s = perf_counter() - start
    step = pq.integrator.step

    def timed_step(s, dt, p, g, *args, **kwargs):
        stamps.append((perf_counter(), g))
        if tracer is not None:
            tracer.stepping = True
            tracer.last = (s, g)
        return step(s, dt, p, g, *args, **kwargs)

    rebind(pq.modules, step, timed_step)
    if tracer is not None:
        tracer.install(pq)
    for index, (cmd, cfg_path) in enumerate(zip(commands, cfg_paths)):
        cmd_start = perf_counter()
        if tracer is not None:
            tracer.stepping = False
        first = len(stamps)
        outdir = rounddir / cmd.name
        buf = io.StringIO()
        try:
            factorize(pq, cmd, cfg_path)
            with contextlib.redirect_stdout(buf):
                code = pq.cli.main([cmd.verb, str(cfg_path), "--output-dir", str(outdir)])
        except Exception:  # a crash is a failed operation, reported with its traceback
            traceback.print_exc()
            code = -1
        cmd_end = perf_counter()
        own = stamps[first:]
        out.steps += len(own)
        warm_intervals(own, index, out.intervals)
        marks = [t for t, _ in own] + [cmd_end]
        out.setup_s += marks[0] - cmd_start
        out.segments.append([b - a for a, b in zip(marks, marks[1:])])
        out.results.append((cmd, code, buf.getvalue(), outdir))
    out.wall_s = sum(map(sum, out.segments))
    if tracer is not None:
        tracer.stepping = False
        if tracer.calls["tail.windowed_energy"] == 0 and tracer.last is not None:
            # not on this workload's path: time it on the final state instead
            s, g = tracer.last
            for frac in (0.3, 0.4, 0.475):
                pq.tail.windowed_T_energy(s.T[1:-1, 1:-1, 1:-1], frac * g.lx, g)
    return out


TAIL_RADIUS = re.compile(r"smallest radius within epsilon: r=(\S+)")


def check_round(rnd: Round, cfg_texts) -> int:
    """Check each command that exited 0; returns the number that did not."""
    failed = 0
    for (cmd, code, stdout, outdir), text in zip(rnd.results, cfg_texts):
        if code != 0:
            print(f"perfbench: {cmd.verb} {cmd.config} exited {code}", file=sys.stderr)
            failed += 1
            continue
        cfg = checks.read_cfg(text)
        if cmd.verb == "run":
            checks.check_run_output(outdir, cfg,
                                    constraint=cfg.get("step.temperature_only") != "true",
                                    dense=cfg.get("step.output_every") == "1")
        elif cmd.verb == "mms":
            checks.check_mms(outdir / "mms.csv", len(cfg["mms.sizes"].split(",")))
        elif cmd.verb == "contract":
            checks.check_contract(outdir / "contract.csv", cfg)
        elif cmd.verb == "truncate":
            checks.check_truncate(outdir / "truncate.csv", cfg)
        elif cmd.verb == "tail":
            match = TAIL_RADIUS.search(stdout)
            if match is None:
                raise checks.CheckFailed("tail printed no radius within epsilon")
            checks.check_tail(outdir / "tail.csv", cfg, float(match.group(1)))
    return failed


def end_to_end(rounds) -> dict:
    """End-to-end metrics of the untraced rounds.

    Contention from outside the process only ever slows a sample down, and
    on a shared host it comes in phases of a fraction of a second to whole
    minutes, so the timings of the fixed work are taken from the fast end.
    A round's work after set-up is cut at every step start into segments
    (one step with its monitors and output each, the last one running to
    the command's end); wall_s adds up, position by position, the fastest
    round's segment.  step_ms_min adds up the fastest warm step on each
    (command, grid).  setup_s is the median round.
    """
    groups = {}
    for r in rounds:
        for key, xs in r.intervals.items():
            groups.setdefault(key, []).extend(xs)
    wall = sum(
        min(position)
        for c in range(len(rounds[0].segments))
        for position in zip(*(r.segments[c] for r in rounds))
    )
    return {
        "setup_s": (statistics.median(r.setup_s for r in rounds), "s"),
        "wall_s": (wall, "s"),
        "step_ms_min": (1e3 * sum(min(xs) for xs in groups.values()), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
    }


def per_layer(plain, traced, tracer: Tracer) -> dict:
    base = min(r.wall_s for r in plain)
    metrics = tracer.layer_metrics(
        steps=max(sum(r.steps for r in traced), 1),
        stepping_s=sum(r.wall_s for r in traced),
    )
    metrics["trace.overhead_s"] = (min(r.wall_s for r in traced) - base, "s")
    metrics["trace.base_wall_s"] = (base, "s")
    return metrics


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "peqlab" / "__init__.py").is_file() or not CONFIGS.is_dir():
        print(f"perfbench: no peqlab sources or configs under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.dont_write_bytecode = False  # imports load cached bytecode, as installed code does
    import peqlab  # compile and cache bytecode once, outside every timed round

    if Path(peqlab.__file__).resolve().parent != ROOT / "src" / "peqlab":
        print(f"perfbench: imported peqlab from {peqlab.__file__}", file=sys.stderr)
        return 2

    traced_mode = bool(args.trace)
    commands = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    cfg_texts = [derive_config(cmd, rng) for cmd in commands]
    rundir = HERE / "runs" / f"{args.workload}-{os.getpid()}"
    cfg_paths = []
    for cmd, text in zip(commands, cfg_texts):
        path = rundir / "configs" / f"{cmd.name}.cfg"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        cfg_paths.append(path)

    tracer = Tracer() if traced_mode else None
    plain, traced = [], []
    attempted = failed = 0
    correct = True
    deadline = perf_counter() + args.seconds
    longest = 0.0
    try:
        while True:
            began = perf_counter()
            use_tracer = traced_mode and len(plain) > len(traced)
            rounddir = rundir / f"round{len(plain) + len(traced)}"
            gc.collect()
            rnd = run_round(commands, cfg_paths, rounddir, tracer if use_tracer else None)
            (traced if use_tracer else plain).append(rnd)
            attempted += len(commands)
            try:
                failed += check_round(rnd, cfg_texts)
            except (checks.CheckFailed, OSError, ValueError, KeyError) as exc:
                print(f"perfbench: check failed: {exc}", file=sys.stderr)
                correct = False
            shutil.rmtree(rounddir, ignore_errors=True)
            longest = max(longest, perf_counter() - began)
            done = len(plain) + len(traced)
            enough = MIN_ROUNDS_TRACED if traced_mode else MIN_ROUNDS
            if done >= enough and perf_counter() + longest > deadline:
                break
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        with contextlib.suppress(OSError):
            (HERE / "runs").rmdir()

    metrics = per_layer(plain, traced, tracer) if traced_mode else end_to_end(plain)
    print(
        f"perfbench: workload={args.workload} seed={args.seed} rounds={len(plain)}"
        f"+{len(traced)} traced; threads "
        + " ".join(f"{k}={v}" for k, v in THREAD_ENV.items())
        + f"; python {platform.python_version()} numpy {np.__version__}; nproc {os.cpu_count()}"
    )
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
