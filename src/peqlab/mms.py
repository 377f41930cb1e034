"""Manufactured-solution harness.

A closed-form steady state compatible with every boundary condition is made
an exact solution of the forced system: the momentum equation gains an
artificial body force (verification only, physics runs never carry one) and
the heat source slot receives the matching temperature forcing.  Integrating
the forced system must then hold the manufactured fields to the scheme's
spatial order, which the refinement study measures.

Manufactured family (amplitudes a1, a2, aT), one separable product per field:

  v1* = a1 cos(pi x / 2 lx) sin(pi y / l) cos(pi z / h)
  v2* = a2 sin(pi x / lx)   sin(pi y / l) cos(pi z / h)
  T*  = aT cos(pi x / lx)   cos(pi y / l) cos(kz (z + h))

with kz the root of kz tan(kz h) = alpha rt2, so the surface Robin exchange
holds exactly; the velocity depth-means vanish, so the barotropic constraint
is satisfied with p_s* = 0.  MmsSpec.factors holds this table; values,
derivatives and forcing are all read from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .diagnostics import distance_sq
from .grid import INTERIOR, Grid, make_grid
from .integrator import StepConfig, run
from .model import State, coriolis_f
from .params import PhysParams


def robin_wavenumber(p: PhysParams) -> float:
    """Root of k tan(k h) = alpha * rt2 in (0, pi/(2h)) by bisection."""
    target = p.alpha * p.rt2
    lo, hi = 1e-12, math.pi / (2.0 * p.h) - 1e-12

    def f(k):
        return k * math.tan(k * p.h) - target

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _cos(k: float, shift: float = 0.0):
    """The factor cos(k (s + shift)): s -> (f, f', f'')."""

    def factor(s):
        a = k * (s + shift)
        c = np.cos(a)
        return c, -k * np.sin(a), -k * k * c

    return factor


def _sin(k: float):
    """The factor sin(k s): s -> (f, f', f'')."""

    def factor(s):
        sn = np.sin(k * s)
        return sn, k * np.cos(k * s), -k * k * sn

    return factor


@dataclass(frozen=True)
class MmsSpec:
    p: PhysParams
    amp_v1: float = 0.3
    amp_v2: float = 0.2
    amp_T: float = 0.4

    @cached_property
    def kz(self) -> float:
        """T's vertical wavenumber, the Robin root."""
        return robin_wavenumber(self.p)

    @cached_property
    def factors(self) -> dict:
        """Field name -> (amplitude, x factor, y factor, z factor)."""
        p = self.p
        y_v, z_v = _sin(math.pi / p.l), _cos(math.pi / p.h)
        return {
            "v1": (self.amp_v1, _cos(math.pi / (2 * p.lx)), y_v, z_v),
            "v2": (self.amp_v2, _sin(math.pi / p.lx), y_v, z_v),
            "T": (self.amp_T, _cos(math.pi / p.lx), _cos(math.pi / p.l), _cos(self.kz, p.h)),
        }

    def _at(self, x, y, z) -> dict:
        """Field name -> (amplitude, X, Y, Z), each factor's (f, f', f'') at the coordinates."""
        return {name: (amp, fx(x), fy(y), fz(z)) for name, (amp, fx, fy, fz) in self.factors.items()}

    def evaluate(self, x, y, z):
        """Manufactured (v1, v2, T, w) at arbitrary coordinates."""
        return self._values(self._at(x, y, z), z)

    def _values(self, at: dict, z):
        """Manufactured (v1, v2, T, w) from the table `at` of :meth:`_at` at depths z."""
        v1, v2, T = (amp * X[0] * Y[0] * Z[0] for amp, X, Y, Z in at.values())
        (a1, X1, Y1, _), (a2, X2, Y2, _) = at["v1"], at["v2"]
        # w = -div_h of the depth integral from -h of the shared z factor cos(pi z/h)
        k = math.pi / self.p.h
        w = -(a1 * X1[1] * Y1[0] + a2 * X2[0] * Y2[1]) * ((np.sin(k * z) - math.sin(-math.pi)) / k)
        return v1, v2, T, w

    def forced_state(self, g: Grid) -> State:
        """The manufactured interiors and the steady forcing (momentum pair, heat source).

        As for every initial state, the run's prologue fills the ghosts and w.
        """
        p = self.p
        s = State.zeros(g)
        x, y, z = g.coords()
        at = self._at(x, y, z)
        v1, v2, s.T[INTERIOR], w = self._values(at, z)
        s.v1[INTERIOR], s.v2[INTERIOR] = v1, v2
        # each field's gradient, horizontal Laplacian and d2/dz2, expanded once and held together:
        # a smaller peak here left 32^3 steps re-faulting their heap pages, 20-30% slower
        terms = {name: (amp * dX * Y * Z, amp * X * dY * Z, amp * X * Y * dZ,
                        amp * (d2X * Y + X * d2Y) * Z, amp * X * Y * d2Z)
                 for name, (amp, (X, dX, d2X), (Y, dY, d2Y), (Z, dZ, d2Z)) in at.items()}

        def transport(name, r1, r2):
            """-lap_h/r1 - d2/dz2 /r2 of one field, plus its advection by (v1, v2, w)."""
            gx, gy, gz, lap_h, d2z = terms[name]
            return -lap_h / r1 - d2z / r2 + (v1 * gx + v2 * gy + w * gz)

        # the baroclinic integral int_0^z grad_h T, from T's z factor cos(kz (z + h))
        aT, (XT, dXT, _), (YT, dYT, _), _ = at["T"]
        jz = (np.sin(self.kz * (z + p.h)) - math.sin(self.kz * p.h)) / self.kz
        f_cor = coriolis_f(y, p) / p.ro
        s.body_force = (transport("v1", p.re1, p.re2) - f_cor * v2 - aT * dXT * YT * jz,
                        transport("v2", p.re1, p.re2) + f_cor * v1 - aT * XT * dYT * jz)
        s.Q = transport("T", p.rt1, p.rt2)
        return s


class ConvergenceResult(NamedTuple):
    order: float
    monotone: bool


def convergence_order(errors) -> ConvergenceResult:
    """Least-squares slope of log error against log spacing."""
    pts = [(float(d), float(e)) for d, e in errors]
    if len(pts) < 2:
        raise ValueError("need at least two refinement levels")
    deltas = np.array([d for d, _ in pts])
    errs = np.array([e for _, e in pts])
    if np.any(errs <= 0.0):
        return ConvergenceResult(order=float("nan"), monotone=False)
    order_sorted = np.argsort(deltas)[::-1]  # coarse to fine
    monotone = bool(np.all(np.diff(errs[order_sorted]) <= 0.0))
    if np.allclose(errs, errs[0], atol=0.0):  # relative: errors may all lie far below 1
        return ConvergenceResult(order=0.0, monotone=monotone)
    slope, _ = np.polyfit(np.log(deltas), np.log(errs), 1)
    return ConvergenceResult(order=float(slope), monotone=monotone)


class MmsReport(NamedTuple):
    levels: tuple  # (delta, err_v1, err_v2, err_T) per grid, in the order run
    order_v: float
    order_T: float
    monotone: bool
    header = ("delta", "err_v1", "err_v2", "err_T", "order_v", "order_T")

    def rows(self):
        return [(*level, self.order_v, self.order_T) for level in self.levels]


def mms_convergence_study(p: PhysParams, sizes, dt: float, horizon: float) -> MmsReport:
    """Integrate the forced system on refined grids; measure held-state error."""
    spec = MmsSpec(p)
    cfg = StepConfig(dt=dt, t_end=horizon)
    cfg = replace(cfg, output_every=max(1, cfg.n_steps))
    levels = []
    for nx, ny, nz in sizes:
        g = make_grid(p, nx, ny, nz)
        final, _ = run(spec.forced_state(g), p, g, cfg)
        # distance_sq reads only the interiors: the manufactured values at the cell centres
        v1, v2, T, _ = spec.evaluate(*g.coords())
        errs = (math.sqrt(d) for d in distance_sq(final, (v1, v2, T), g))
        levels.append((max(g.dx, g.dy, g.dz), *errs))
    rv = convergence_order((delta, math.hypot(e1, e2)) for delta, e1, e2, _ in levels)
    rt = convergence_order((delta, eT) for delta, _, _, eT in levels)
    return MmsReport(tuple(levels), rv.order, rt.order, rv.monotone and rt.monotone)
