"""IMEX time stepping and the one trajectory driver.

One step advances the prognostic fields by

  (i)   explicit tendencies (advection, Coriolis, surface-pressure gradient,
        baroclinic gradient, sources),
  (ii)  backward-Euler solve of (I + dt*L) per field with its boundary rows,
  (iii) barotropic projection onto the depth-integrated constraint,
  (iv)  re-diagnosis of w and a ghost refresh,

which keeps the discrete energy balance: transport is skew-neutral, the
implicit solves are contractions, and the projection removes energy.

:func:`trajectory` is the only loop over steps: it advances one or more
states in lockstep under one prologue and one set of run monitors, the
energy method's estimates, always on, and yields each output step to its
caller.  :func:`run`, the ``run`` command and the experiments in
:mod:`peqlab.tail` and :mod:`peqlab.mms` are loops over it.
"""

from __future__ import annotations

import logging
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from . import diagnostics as diag
from . import operators as ops
from .bc import TEMPERATURE_BC, fill_ghosts
from .diffusion import ImplicitDiffusion
from .errors import CheckError, ConfigError, NumericalError
from .grid import INTERIOR, Grid
from .model import State, face_velocities, hydrostatic_integral, momentum_rhs, temperature_rhs
from .params import PhysParams
from .projection import project

log = logging.getLogger(__name__)


#: advisory CFL step: the advective Courant number and the cap
CFL_TARGET = 0.5
DT_MAX = 0.1
#: a Poincare ratio above 1 + POINCARE_TOL or a constraint residual above
#: DIV_TOL aborts a run
POINCARE_TOL = 1e-2
DIV_TOL = 1e-8
#: relative slack of the per-step energy inequality (coupled steps only) and
#: the factor on the decay envelope the Gronwall monitor allows
ENERGY_SLACK = 1e-8
GRONWALL_FACTOR = 1.05
#: cells above which a coupled step runs its per-field tasks concurrently:
#: the measured crossover (README, Numerics), so the 64x32x16 reference grid
#: and the 32^3 MMS level run concurrently and every smaller committed grid serially
CONCURRENT_CELLS = 16_384


@dataclass(frozen=True)
class StepConfig:
    dt: float = 0.01
    t_end: float = 2.0
    output_every: int = 10
    temperature_only: bool = False

    def __post_init__(self):
        if not (0.0 < self.dt < math.inf):
            raise ConfigError(f"dt must be positive and finite, got {self.dt!r}")
        if not (self.output_every % 1 == 0 and self.output_every >= 1):
            raise ConfigError(f"output_every must be an integer >= 1, got {self.output_every!r}")
        # t_end/dt is rarely an exact float (0.2/0.01 is 20.000000000000004)
        steps = self.t_end / self.dt
        if not (0.0 <= steps < math.inf) or abs(steps - round(steps)) > 1e-9 * steps:
            raise ConfigError(
                f"t_end={self.t_end!r} must be a non-negative whole number of steps of dt={self.dt!r}"
            )

    @property
    def n_steps(self) -> int:
        """Number of steps to t_end (a whole number, checked at construction)."""
        return round(self.t_end / self.dt)


def cfl_dt(s: State, g: Grid) -> float:
    """Advisory advective time step, capped at DT_MAX."""
    suggestion = DT_MAX
    for fp, d in ((s.v1, g.dx), (s.v2, g.dy), (s.w, g.dz)):
        vmax = ops.max_abs(fp[INTERIOR])
        if vmax > 0.0:
            suggestion = min(suggestion, CFL_TARGET * d / vmax)
    return suggestion


@lru_cache(maxsize=32)
def _cached_diffusion(p: PhysParams, g: Grid, dt: float, kind: str) -> ImplicitDiffusion:
    return ImplicitDiffusion(p=p, g=g, dt=dt, kind=kind)


class Workspace:
    """One member's face arrays, kept between steps, and the helper threads its steps run on.

    The faces are free once a step has formed every rate, so a step called
    with `keep` has each finishing task copy its fields' previous
    interiors, which an output step's record reads, to the leading cells of
    their faces (`previous`).  A step's other buffers (the hydrostatic
    integral, one rate per field and one scratch array per worker, whose
    planes a slab of T's rate borrows) live only for the step, so no record
    runs beside them.  Above CONCURRENT_CELLS cells a coupled step runs its
    three fork-joins on the calling thread plus min(3, CPUs) - 1 helpers,
    CPUs being those the process may run on (os.cpu_count() where the
    system cannot say); the helpers start on first use and :meth:`close`
    joins them.
    """

    def __init__(self, g: Grid, cfg: StepConfig):
        fields = 1 if cfg.temperature_only else 3
        self.workers = 1
        if g.nx * g.ny * g.nz > CONCURRENT_CELLS:
            # the CPUs this process may run on; sched_getaffinity exists on Linux only
            affinity = getattr(os, "sched_getaffinity", None)
            self.workers = min(fields, len(affinity(0)) if affinity else os.cpu_count() or 1)
        self.faces = tuple(np.empty(n) for n in ((g.nx + 1, g.ny, g.nz), (g.nx, g.ny + 1, g.nz),
                                                  (g.nx, g.ny, g.nz + 1)))
        self.previous = tuple(f.reshape(-1)[:g.nx * g.ny * g.nz].reshape(g.nx, g.ny, g.nz)
                              for f in self.faces)
        self.pool = ThreadPoolExecutor(self.workers - 1, "peqlab-step") if self.workers > 1 else None

    def run(self, task, count: int, scratch: Sequence[np.ndarray]):
        """task(i, scratch[k]) for i < count, task i on worker k = i % workers.

        The calling thread is worker 0.  Each worker stops at its first
        failing task; once all are done, the failure of the lowest i is raised.
        """
        failures = [None] * count

        def lane(k):
            for i in range(k, count, self.workers):
                try:
                    task(i, scratch[k])
                except Exception as exc:
                    failures[i] = exc
                    return

        helpers = [self.pool.submit(lane, k) for k in range(1, min(self.workers, count))]
        try:
            lane(0)
        finally:
            for helper in helpers:
                helper.result()
        for exc in failures:
            if exc is not None:
                raise exc

    def close(self):
        if self.pool is not None:
            self.pool.shutdown()


def _ready_velocity(s: State, dt: float, p: PhysParams, g: Grid, cfg: StepConfig, work=None):
    """Ready the velocity for a step: the projection (v1, v2, p_s ghosts) if coupled, then w."""
    if not cfg.temperature_only:
        project(s, dt, p, g)
    s.refresh_w(p, g, work)


def step(s: State, dt: float, p: PhysParams, g: Grid, cfg: StepConfig, ws: Workspace,
         keep: bool = False) -> State:
    """Advance a readied state (valid ghosts, diagnosed w) by one IMEX step in place.

    Three fork-joins run on the workers of `ws`.  First one task builds the
    x and y faces and another the z faces and, on a coupled step, the
    hydrostatic integral.  Then each velocity component's task forms its
    rate, checks it finite and forms the predictor f + dt * rate in the
    rate's buffer, solving it there; T's rate is split into contiguous
    x-slabs, one per lane the velocity tasks' last round leaves free (two
    on two workers, one on one or three), each formed, checked and made a
    predictor in its own planes.  No field is written, as v2's rate reads
    v1, and the first failure is raised at the join, in the order dv1,
    dv2, dT.  Last the velocity's task writes and readies v1 and v2 beside
    T's task, which solves, writes T and fills its ghosts; a
    temperature-only step runs T's task alone, its velocity and w frozen.
    With `keep`, each finishing task first copies its old interiors to
    ws.previous (T's task all three on a temperature-only step): the faces
    they share are free once every rate is formed.  Each task keeps its
    field's operation order, T's rate is elementwise, and every matrix
    product stays one BLAS call, so the bytes do not depend on the workers.
    """
    names = ("T",) if cfg.temperature_only else ("v1", "v2", "T")
    fields = [getattr(s, name)[INTERIOR] for name in names]
    rates = [np.empty((g.nx, g.ny, g.nz)) for _ in names]
    scratch = [np.empty((g.nx, g.ny, g.nz)) for _ in range(ws.workers)]
    # T's rate splits into x-slabs that fill the lanes the velocity tasks' last round leaves free
    slabs = ws.workers - (len(names) - 1) % ws.workers
    # (field, first plane, end plane) per rate task: each velocity component whole, then T's slabs
    tasks = [(i, 0, g.nx) for i in range(len(names) - 1)]
    tasks += [(len(names) - 1, g.nx * k // slabs, g.nx * (k + 1) // slabs) for k in range(slabs)]
    integral = []

    def build(i, buf):
        face_velocities(s.v1, s.v2, s.w, g, ws.faces, ((0, 1), (2,))[i])
        if i and not cfg.temperature_only:
            integral.append(hydrostatic_integral(s.T, g))

    def predict(i, buf):
        f, lo, hi = tasks[i]
        r = rates[f][lo:hi]
        if names[f] == "T":
            temperature_rhs(s, ws.faces, r, buf[lo:hi], lo, hi)
        else:
            momentum_rhs(s, p, g, ws.faces, integral[0], f, r, buf)
        finite = np.isfinite(r)
        if not finite.all():
            idx = tuple(int(v) for v in np.argwhere(~finite)[0] + (lo, 0, 0))
            raise NumericalError(f"non-finite tendency d{names[f]} at interior index {idx}")
        # the predictor f + dt * rate, formed (and solved, for the velocity) in the rate's own buffer
        r *= dt
        r += fields[f][lo:hi]
        if names[f] != "T":
            _cached_diffusion(p, g, dt, "velocity").solve(r, buf)

    def keep_previous(first: int, end: int):
        if keep:
            for previous, f in zip(ws.previous[first:end], s.interiors()[first:end]):
                previous[...] = f

    def finish_velocity(buf):
        keep_previous(0, 2)
        for k in (0, 1):
            fields[k][...] = rates[k]
        _ready_velocity(s, dt, p, g, cfg, (rates[0], buf))

    def finish_temperature(buf):
        keep_previous(0 if cfg.temperature_only else 2, 3)
        _cached_diffusion(p, g, dt, "temperature").solve(rates[-1], buf)
        fields[-1][...] = rates[-1]
        fill_ghosts(s.T, TEMPERATURE_BC, p, g)

    ws.run(build, 2, scratch)
    ws.run(predict, len(tasks), scratch)
    finishing = (finish_temperature,) if cfg.temperature_only else (finish_velocity, finish_temperature)
    ws.run(lambda i, buf: finishing[i](buf), len(finishing), scratch)
    return s


def initial_norms(s: State, g: Grid) -> tuple:
    """The squared norms |v|^2, |T|^2 and |Q|^2 of an initial state.

    Finite fields whose squares overflow, which no step can honour, are a
    ConfigError; a field that already holds a nan or inf passes, for a
    monitor or the step to fail it.
    """
    fields = (*s.interiors(), s.Q)
    with np.errstate(over="ignore", invalid="ignore"):
        l2_v1, l2_v2, l2_t, l2_q = (diag.l2sq(f, g) for f in fields)
    if math.isinf(l2_v1 + l2_v2 + l2_t + l2_q) and all(np.isfinite(f).all() for f in fields):
        raise ConfigError(f"initial squared norms overflow: |v|^2={l2_v1 + l2_v2:.6g} "
                          f"|T|^2={l2_t:.6g} |Q|^2={l2_q:.6g}")
    return l2_v1 + l2_v2, l2_t, l2_q


class _Member:
    """One trajectory's state, readied in place (ghosts, then _ready_velocity), its workspace and run monitors.

    The monitors are the energy method's estimates, always on: after every
    step the energy inequality when Q is identically zero and no body force
    acts, and on every record the Poincare ratios, the constraint residual
    (coupled steps) and the decay envelope
    |T(t)|^2 <= |T0|^2 e^(-t/kappa) + kappa^2 |Q|^2, each compared as the
    record holds it.  A nan fails each of them.  The initial norms come from
    initial_norms, which rejects an overflow.
    """

    def __init__(self, s: State, p: PhysParams, g: Grid, cfg: StepConfig):
        s.fill_all_ghosts(p, g)
        _ready_velocity(s, cfg.dt, p, g, cfg)
        l2_v, self.l2_t0, self.l2_q = initial_norms(s, g)
        suggestion = cfl_dt(s, g)
        if cfg.dt > suggestion:
            log.warning("dt=%g exceeds the advective CFL suggestion %g", cfg.dt, suggestion)
        self.s, self.p, self.g, self.cfg = s, p, g, cfg
        self.ws = Workspace(g, cfg)
        # the energy inequality holds for an unforced system only
        self.energy = l2_v + self.l2_t0 if self.l2_q == 0.0 and s.body_force is None else None

    def _energy(self) -> float:
        with np.errstate(over="ignore", invalid="ignore"):
            return sum(diag.l2sq(f, self.g) for f in self.s.interiors())

    def check_energy_step(self, t: float):
        """The energy inequality after a step of an unforced member."""
        if self.energy is None:
            return
        energy = self._energy()
        slack = 0.0 if self.cfg.temperature_only else ENERGY_SLACK
        if not energy <= self.energy * (1.0 + slack):
            raise CheckError(f"energy increased at t={t:.6g}: {self.energy:.17g} -> {energy:.17g}")
        self.energy = energy

    def record(self, t: float, prev: Optional[tuple]) -> diag.DiagRecord:
        """The DiagRecord of the current state, checked against the inequality monitors."""
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails a monitor below
            rec = diag.compute_record(self.s, prev, self.cfg.dt, self.p, self.g, t, self.l2_t0, self.l2_q)
        for name, ratio in (("temperature", rec.poincare_T), ("velocity", rec.poincare_v)):
            if not ratio <= 1.0 + POINCARE_TOL:
                raise CheckError(f"{name} Poincare ratio {ratio:.6g} > 1 + {POINCARE_TOL} at t={t:.6g}")
        # a temperature-only step never projects the (frozen) velocity
        if not self.cfg.temperature_only and not rec.constraint_residual <= DIV_TOL:
            raise CheckError(
                f"constraint residual {rec.constraint_residual:.3e} > {DIV_TOL:.1e} at t={t:.6g}"
            )
        bound = rec.envelope_T * GRONWALL_FACTOR
        if not rec.l2_T <= bound:
            raise CheckError(
                f"temperature energy {rec.l2_T:.6g} above decay envelope {bound:.6g} at t={t:.6g}"
            )
        return rec


def trajectory(members: Sequence[Tuple[State, PhysParams, Grid]], cfg: StepConfig) -> Iterator[tuple]:
    """Advance (state, params, grid) members in lockstep to t_end, in place.

    Each member is its own State; members may share only their read-only Q.
    Every member gets the same prologue and run monitors (see _Member).  At
    t = 0 and every output_every steps (and the last) each member's
    DiagRecord is evaluated and checked, then (n, t, states, records) is
    yielded: the caller's states, advanced in place by the next step.  An exception from a failed step keeps
    its type and carries the last valid time as a note (PEP 678).  The
    members' helper threads are joined when the generator is exhausted,
    fails or is closed.
    """
    group = []
    try:
        group.extend(_Member(s, p, g, cfg) for s, p, g in members)
        states = [m.s for m in group]
        yield 0, 0.0, states, [m.record(0.0, None) for m in group]
        n_steps = cfg.n_steps
        for n in range(1, n_steps + 1):
            emits = n % cfg.output_every == 0 or n == n_steps
            try:
                for m in group:
                    # the time-derivative norms of a record need v1, v2 and T one step back
                    step(m.s, cfg.dt, m.p, m.g, cfg, m.ws, emits)
            except Exception as exc:
                exc.add_note(f"run aborted; last valid time t={(n - 1) * cfg.dt:.6g}")
                raise
            t = n * cfg.dt
            for m in group:
                m.check_energy_step(t)
            if emits:
                yield n, t, states, [m.record(t, m.ws.previous) for m in group]
    finally:
        for m in group:
            m.ws.close()


def run(s: State, p: PhysParams, g: Grid, cfg: StepConfig):
    """Advance a state to t_end in place under the run monitors; returns (s, records), one per output step."""
    return s, [rec for _, _, _, (rec,) in trajectory([(s, p, g)], cfg)]
