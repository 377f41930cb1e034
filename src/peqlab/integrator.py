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
hands each output step to a caller's sampler.  :func:`run` and the
experiments in :mod:`peqlab.tail` are samplers on it.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import diagnostics as diag
from .bc import TEMPERATURE_BC, fill_ghosts
from .diffusion import ImplicitDiffusion
from .errors import CheckError
from .grid import INTERIOR, Grid
from .model import State, momentum_rhs, temperature_rhs
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


@dataclass(frozen=True)
class StepConfig:
    dt: float = 0.01
    t_end: float = 1.0
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

    energy_slack: float = 1e-8
    gronwall_factor: float = 1.05
    check_poincare: bool = True
    check_constraint: bool = True
    check_energy: Optional[bool] = None  # None: enabled when Q is identically zero
    check_gronwall: bool = False


def cfl_dt(s: State, g: Grid) -> float:
    """Advisory advective time step, capped at DT_MAX."""
    suggestion = DT_MAX
    for vmax, d in (
        (float(np.abs(s.v1[INTERIOR]).max()), g.dx),
        (float(np.abs(s.v2[INTERIOR]).max()), g.dy),
        (float(np.abs(s.w[INTERIOR]).max()), g.dz),
    ):
        if vmax > 0.0:
            suggestion = min(suggestion, CFL_TARGET * d / vmax)
    return suggestion


@lru_cache(maxsize=32)
def _cached_diffusion(p: PhysParams, g: Grid, dt: float, kind: str) -> ImplicitDiffusion:
    return ImplicitDiffusion(p=p, g=g, dt=dt, kind=kind)


def step(s: State, dt: float, p: PhysParams, g: Grid, cfg: StepConfig) -> State:
    """Advance a state (valid ghosts, diagnosed w) by one IMEX step in place."""
    I = INTERIOR
    tem = temperature_rhs(s, p, g)
    if cfg.temperature_only:
        tem.validate()
        t_star = s.T[I] + dt * tem.dT
        s.T[I] = _cached_diffusion(p, g, dt, "temperature").solve(t_star)
    else:
        mom = momentum_rhs(s, p, g)
        # single non-finite sweep for the whole step
        mom.dT = tem.dT
        mom.validate()
        v1_star = s.v1[I] + dt * mom.dv1
        v2_star = s.v2[I] + dt * mom.dv2
        t_star = s.T[I] + dt * tem.dT
        velocity = _cached_diffusion(p, g, dt, "velocity")
        s.v1[I] = velocity.solve(v1_star)
        s.v2[I] = velocity.solve(v2_star)
        s.T[I] = _cached_diffusion(p, g, dt, "temperature").solve(t_star)
    # project refills the v1, v2 and p_s ghosts, refresh_w those of w
    fill_ghosts(s.T, TEMPERATURE_BC, p, g)
    if not cfg.temperature_only:
        project(s, dt, p, g)
    s.refresh_w(p, g)
    return s


class _Member:
    """One trajectory's state after the prologue, and its run monitors."""

    def __init__(self, initial: State, p: PhysParams, g: Grid, cfg: StepConfig, checks: RunChecks):
        s = initial.copy()
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
        on = checks.check_energy
        self.energy = self._energy() if on or (on is None and self.l2_q == 0.0) else None

    def _energy(self) -> float:
        return sum(diag.l2sq(f[INTERIOR], self.g) for f in (self.s.v1, self.s.v2, self.s.T))

    def check_energy_step(self, t: float):
        """The energy inequality after a step, when enabled (Q == 0 by default)."""
        if self.energy is None:
            return
        energy = self._energy()
        slack = 0.0 if self.cfg.temperature_only else self.checks.energy_slack
        if energy > self.energy * (1.0 + slack):
            raise CheckError(f"energy increased at t={t:.6g}: {self.energy:.17g} -> {energy:.17g}")
        self.energy = energy

    def record(self, t: float, s_prev: Optional[State]) -> diag.DiagRecord:
        """The DiagRecord of the current state, checked against the inequality monitors."""
        rec = diag.compute_record(self.s, s_prev, self.cfg.dt, self.p, self.g, t=t)
        checks = self.checks
        if checks.check_poincare:
            for name, ratio in (("temperature", diag.check_poincare_T(rec, self.p)),
                                ("velocity", diag.check_poincare_v(rec, self.p))):
                if ratio > 1.0 + POINCARE_TOL:
                    raise CheckError(f"{name} Poincare ratio {ratio:.6g} > 1 + {POINCARE_TOL}")
        # a temperature-only step never projects the (frozen) velocity
        if (checks.check_constraint and not self.cfg.temperature_only
                and rec.constraint_residual > DIV_TOL):
            raise CheckError(
                f"constraint residual {rec.constraint_residual:.3e} > {DIV_TOL:.1e} at t={t:.6g}"
            )
        if checks.check_gronwall:
            envelope = diag.gronwall_T_envelope(t, self.l2_t0, self.l2_q, diag.kappa(self.p))
            bound = envelope * checks.gronwall_factor
            if rec.l2_T > bound:
                raise CheckError(
                    f"temperature energy {rec.l2_T:.6g} above decay envelope {bound:.6g} at t={t:.6g}"
                )
        return rec


def trajectory(members: Sequence[Tuple[State, PhysParams, Grid]], cfg: StepConfig,
               checks: Optional[RunChecks] = None, observe: Optional[Callable] = None) -> List[State]:
    """Advance (initial, params, grid) members in lockstep to t_end.

    Every member gets the same prologue and run monitors.  At t = 0 and every
    output_every steps (and the last) each member's DiagRecord is evaluated
    and checked, then observe(n, t, states, records) is called.  Returns the
    final states.  An exception from a failed step keeps its type and carries
    the last valid time as a note (PEP 678).
    """
    checks = checks or RunChecks()
    group = [_Member(initial, p, g, cfg, checks) for initial, p, g in members]
    states = [m.s for m in group]

    def emit(n, t, prev):
        records = [m.record(t, sp) for m, sp in zip(group, prev)]
        if observe is not None:
            observe(n, t, states, records)

    emit(0, 0.0, [None] * len(group))
    n_steps = cfg.n_steps
    for n in range(1, n_steps + 1):
        emits = n % cfg.output_every == 0 or n == n_steps
        # the time-derivative norms of a record need the state one step back
        prev = [s.copy() for s in states] if emits else None
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
            emit(n, t, prev)
    return states


def run(
    initial: State,
    p: PhysParams,
    g: Grid,
    cfg: StepConfig,
    checks: Optional[RunChecks] = None,
    record_sink: Optional[Callable] = None,
    snapshot_sink: Optional[Callable] = None,
):
    """Advance one state to t_end, emitting a DiagRecord every output_every steps.

    Returns (final_state, records); see :func:`trajectory`.
    """
    records = []

    def observe(n, t, states, recs):
        records.append(recs[0])
        if record_sink is not None:
            record_sink(recs[0])
        if snapshot_sink is not None:
            snapshot_sink(states[0], t, n)

    (final,) = trajectory([(initial, p, g)], cfg, checks, observe)
    return final, records
