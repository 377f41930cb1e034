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
states in lockstep under one prologue and one set of run monitors, and
yields each output step to its caller.  :func:`run`, the ``run`` command
and the experiments in :mod:`peqlab.tail` are loops over it.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from . import diagnostics as diag
from . import operators as ops
from .bc import TEMPERATURE_BC, fill_ghosts
from .diffusion import ImplicitDiffusion
from .errors import CheckError, NumericalError
from .grid import INTERIOR, Grid
from .model import State, face_velocities, momentum_rhs, temperature_rhs
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


@dataclass(frozen=True)
class StepConfig:
    dt: float = 0.01
    t_end: float = 2.0
    output_every: int = 10
    temperature_only: bool = False

    def __post_init__(self):
        if not (self.dt > 0.0):
            raise ValueError("dt must be positive")
        if self.output_every < 1:
            raise ValueError("output_every must be >= 1")
        # t_end/dt is rarely an exact float (0.2/0.01 is 20.000000000000004)
        steps = self.t_end / self.dt
        if not (0.0 <= steps < math.inf) or abs(steps - round(steps)) > 1e-9 * steps:
            raise ValueError(
                f"t_end={self.t_end!r} must be a non-negative whole number of steps of dt={self.dt!r}"
            )

    @property
    def n_steps(self) -> int:
        """Number of steps to t_end (a whole number, checked at construction)."""
        return round(self.t_end / self.dt)


@dataclass(frozen=True)
class RunChecks:
    """Inequality monitors evaluated during a run; violations abort it."""

    energy: str = "auto"  # on, off, or auto: on when Q is identically zero
    gronwall: bool = False

    def __post_init__(self):
        if self.energy not in ("auto", "on", "off"):
            raise ValueError(f"check.energy must be auto, on, or off, got {self.energy!r}")


def cfl_dt(s: State, g: Grid) -> float:
    """Advisory advective time step, capped at DT_MAX."""
    suggestion = DT_MAX
    for fp, d in ((s.v1, g.dx), (s.v2, g.dy), (s.w, g.dz)):
        vmax = ops.max_abs(fp[INTERIOR])
        if vmax > 0.0:
            suggestion = min(suggestion, CFL_TARGET * d / vmax)
    return suggestion


#: the implicit diffusion operator of each prognostic field
_DIFFUSION = {"v1": "velocity", "v2": "velocity", "T": "temperature"}


@lru_cache(maxsize=32)
def _cached_diffusion(p: PhysParams, g: Grid, dt: float, kind: str) -> ImplicitDiffusion:
    return ImplicitDiffusion(p=p, g=g, dt=dt, kind=kind)


def step(s: State, dt: float, p: PhysParams, g: Grid, cfg: StepConfig) -> State:
    """Advance a state (valid ghosts, diagnosed w) by one IMEX step in place.

    The face velocities are built once and shared by every advected field,
    and every rate is checked finite before the first field is written.
    """
    # faces stays referenced to the end of the step: freed before the solves,
    # its memory lets glibc trim the heap top on every step
    faces = face_velocities(s.v1, s.v2, s.w, g)
    dT = temperature_rhs(s, faces)
    if cfg.temperature_only:
        rates = (("T", dT),)
    else:
        dv1, dv2 = momentum_rhs(s, p, g, faces)
        rates = (("v1", dv1), ("v2", dv2), ("T", dT))
    for name, rate in rates:
        finite = np.isfinite(rate)
        if not finite.all():
            idx = tuple(int(v) for v in np.argwhere(~finite)[0])
            raise NumericalError(f"non-finite tendency d{name} at interior index {idx}")
    for name, rate in rates:
        f = getattr(s, name)
        # the predictor f + dt * rate, formed in the rate's own buffer
        rate *= dt
        rate += f[INTERIOR]
        f[INTERIOR] = _cached_diffusion(p, g, dt, _DIFFUSION[name]).solve(rate)
    # project refills the v1, v2 and p_s ghosts, refresh_w those of w
    fill_ghosts(s.T, TEMPERATURE_BC, p, g)
    if not cfg.temperature_only:
        project(s, dt, p, g)
    s.refresh_w(p, g)
    return s


class _Member:
    """One trajectory's state, readied in place (ghosts, projection, w), and its run monitors."""

    def __init__(self, s: State, p: PhysParams, g: Grid, cfg: StepConfig, checks: RunChecks):
        s.fill_all_ghosts(p, g)
        if not cfg.temperature_only:
            project(s, cfg.dt, p, g)
        s.refresh_w(p, g)
        suggestion = cfl_dt(s, g)
        if cfg.dt > suggestion:
            log.warning("dt=%g exceeds the advective CFL suggestion %g", cfg.dt, suggestion)
        self.s, self.p, self.g, self.cfg, self.checks = s, p, g, cfg, checks
        self.l2_q = diag.l2sq(s.Q, g)
        self.l2_t0 = diag.l2sq(s.T[INTERIOR], g)
        on = checks.energy == "on" or (checks.energy == "auto" and self.l2_q == 0.0)
        self.energy = self._energy() if on else None

    def _energy(self) -> float:
        return sum(diag.l2sq(f, self.g) for f in self.s.interiors())

    def check_energy_step(self, t: float):
        """The energy inequality after a step, when enabled (Q == 0 by default)."""
        if self.energy is None:
            return
        energy = self._energy()
        slack = 0.0 if self.cfg.temperature_only else ENERGY_SLACK
        if energy > self.energy * (1.0 + slack):
            raise CheckError(f"energy increased at t={t:.6g}: {self.energy:.17g} -> {energy:.17g}")
        self.energy = energy

    def record(self, t: float, prev: Optional[tuple]) -> diag.DiagRecord:
        """The DiagRecord of the current state, checked against the inequality monitors."""
        rec = diag.compute_record(self.s, prev, self.cfg.dt, self.p, self.g, t=t)
        for name, ratio in (("temperature", diag.check_poincare_T(rec, self.p)),
                            ("velocity", diag.check_poincare_v(rec, self.p))):
            if ratio > 1.0 + POINCARE_TOL:
                raise CheckError(f"{name} Poincare ratio {ratio:.6g} > 1 + {POINCARE_TOL} at t={t:.6g}")
        # a temperature-only step never projects the (frozen) velocity
        if not self.cfg.temperature_only and rec.constraint_residual > DIV_TOL:
            raise CheckError(
                f"constraint residual {rec.constraint_residual:.3e} > {DIV_TOL:.1e} at t={t:.6g}"
            )
        if self.checks.gronwall:
            envelope = diag.gronwall_T_envelope(t, self.l2_t0, self.l2_q, diag.kappa(self.p))
            bound = envelope * GRONWALL_FACTOR
            if rec.l2_T > bound:
                raise CheckError(
                    f"temperature energy {rec.l2_T:.6g} above decay envelope {bound:.6g} at t={t:.6g}"
                )
        return rec


def trajectory(members: Sequence[Tuple[State, PhysParams, Grid]], cfg: StepConfig,
               checks: Optional[RunChecks] = None) -> Iterator[tuple]:
    """Advance (state, params, grid) members in lockstep to t_end, in place.

    Each member is its own State; members may share only their read-only Q.
    Every member gets the same prologue and run monitors.  At t = 0 and every
    output_every steps (and the last) each member's DiagRecord is evaluated
    and checked, then (n, t, states, records) is yielded: the caller's states,
    advanced in place by the next step.  An exception from a failed step keeps
    its type and carries the last valid time as a note (PEP 678).
    """
    checks = checks or RunChecks()
    group = [_Member(s, p, g, cfg, checks) for s, p, g in members]
    states = [m.s for m in group]
    yield 0, 0.0, states, [m.record(0.0, None) for m in group]
    n_steps = cfg.n_steps
    for n in range(1, n_steps + 1):
        emits = n % cfg.output_every == 0 or n == n_steps
        # the time-derivative norms of a record need v1, v2 and T one step back
        prev = [tuple(f.copy() for f in s.interiors()) for s in states] if emits else None
        try:
            for m in group:
                step(m.s, cfg.dt, m.p, m.g, cfg)
        except Exception as exc:
            exc.add_note(f"run aborted; last valid time t={(n - 1) * cfg.dt:.6g}")
            raise
        t = n * cfg.dt
        for m in group:
            m.check_energy_step(t)
        if emits:
            yield n, t, states, [m.record(t, sp) for m, sp in zip(group, prev)]


def run(s: State, p: PhysParams, g: Grid, cfg: StepConfig, checks: Optional[RunChecks] = None):
    """Advance a state to t_end in place; returns (s, records), one record per output step."""
    return s, [rec for _, _, _, (rec,) in trajectory([(s, p, g)], cfg, checks)]
