"""Manufactured-solution harness.

A closed-form steady state compatible with every boundary condition is made
an exact solution of the forced system: the momentum equation gains an
artificial body force (verification only, physics runs never carry one) and
the heat source slot receives the matching temperature forcing.  Integrating
the forced system must then hold the manufactured fields to the scheme's
spatial order, which the refinement study measures.

Manufactured family (amplitudes a1, a2, aT):

  v1* = a1 cos(pi x / 2 lx) sin(pi y / l) cos(pi z / h)
  v2* = a2 sin(pi x / lx)   sin(pi y / l) cos(pi z / h)
  T*  = aT cos(pi x / lx)   cos(pi y / l) cos(kz (z + h))

with kz the root of kz tan(kz h) = alpha rt2, so the surface Robin exchange
holds exactly; the velocity depth-means vanish, so the barotropic constraint
is satisfied with p_s* = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import List

import numpy as np

from .diagnostics import l2sq
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


@dataclass(frozen=True)
class MmsSpec:
    p: PhysParams
    amp_v1: float = 0.3
    amp_v2: float = 0.2
    amp_T: float = 0.4

    @property
    def kz(self) -> float:
        return robin_wavenumber(self.p)

    # separable factors and their derivatives -------------------------------
    def _xv1(self, x):  # cos(pi x / 2 lx)
        k = math.pi / (2 * self.p.lx)
        return np.cos(k * x), -k * np.sin(k * x), -k * k * np.cos(k * x)

    def _xv2(self, x):  # sin(pi x / lx)
        k = math.pi / self.p.lx
        return np.sin(k * x), k * np.cos(k * x), -k * k * np.sin(k * x)

    def _yv(self, y):  # sin(pi y / l)
        k = math.pi / self.p.l
        return np.sin(k * y), k * np.cos(k * y), -k * k * np.sin(k * y)

    def _zv(self, z):  # cos(pi z / h)
        k = math.pi / self.p.h
        return np.cos(k * z), -k * np.sin(k * z), -k * k * np.cos(k * z)

    def _xt(self, x):  # cos(pi x / lx)
        k = math.pi / self.p.lx
        return np.cos(k * x), -k * np.sin(k * x), -k * k * np.cos(k * x)

    def _yt(self, y):  # cos(pi y / l)
        k = math.pi / self.p.l
        return np.cos(k * y), -k * np.sin(k * y), -k * k * np.cos(k * y)

    def _zt(self, z):  # cos(kz (z + h))
        k = self.kz
        return np.cos(k * (z + self.p.h)), -k * np.sin(k * (z + self.p.h)), -k * k * np.cos(k * (z + self.p.h))

    # field evaluation -------------------------------------------------------
    def evaluate(self, x, y, z):
        """Manufactured (v1, v2, T, w) at arbitrary coordinates."""
        xv1, _, _ = self._xv1(x)
        xv2, _, _ = self._xv2(x)
        yv, _, _ = self._yv(y)
        zv, _, _ = self._zv(z)
        xt, _, _ = self._xt(x)
        yt, _, _ = self._yt(y)
        zt, _, _ = self._zt(z)
        v1 = self.amp_v1 * xv1 * yv * zv
        v2 = self.amp_v2 * xv2 * yv * zv
        T = self.amp_T * xt * yt * zt
        w = -self._div2(x, y) * self._int_zv(z)
        return v1, v2, T, w

    def _div2(self, x, y):
        _, dxv1, _ = self._xv1(x)
        xv2, _, _ = self._xv2(x)
        yv, dyv, _ = self._yv(y)
        return self.amp_v1 * dxv1 * yv + self.amp_v2 * xv2 * dyv

    def _int_zv(self, z):
        # integral of cos(pi z/h) from -h to z
        k = math.pi / self.p.h
        return (np.sin(k * z) - math.sin(-math.pi)) / k

    def _int_zt_from_surface(self, z):
        # integral of cos(kz (z'+h)) from 0 to z
        k = self.kz
        return (np.sin(k * (z + self.p.h)) - math.sin(k * self.p.h)) / k

    def state(self, g: Grid) -> State:
        """State holding the manufactured fields with BC-filled ghosts."""
        s = State.zeros(g)
        x, y, z = g.coords()
        v1, v2, T, w = self.evaluate(x, y, z)
        shape = (g.nx, g.ny, g.nz)
        s.v1[INTERIOR] = np.broadcast_to(v1, shape)
        s.v2[INTERIOR] = np.broadcast_to(v2, shape)
        s.T[INTERIOR] = np.broadcast_to(T, shape)
        s.fill_all_ghosts(self.p, g)
        s.refresh_w(self.p, g)
        return s

    def forced_state(self, g: Grid) -> State:
        """The manufactured state carrying the forcing that makes it steady."""
        s = self.state(g)
        f1, f2, s.Q = mms_forcing(self, g)
        s.body_force = (f1, f2)
        return s


def mms_forcing(spec: MmsSpec, g: Grid):
    """Steady forcing (momentum pair, heat source) for the manufactured fields."""
    p = spec.p
    x, y, z = g.coords()

    xv1, dxv1, d2xv1 = spec._xv1(x)
    xv2, dxv2, d2xv2 = spec._xv2(x)
    yv, dyv, d2yv = spec._yv(y)
    zv, dzv, d2zv = spec._zv(z)
    xt, dxt, d2xt = spec._xt(x)
    yt, dyt, d2yt = spec._yt(y)
    zt, dzt, d2zt = spec._zt(z)

    a1, a2, aT = spec.amp_v1, spec.amp_v2, spec.amp_T
    v1, v2, _, w = spec.evaluate(x, y, z)

    # first derivatives
    v1x, v1y, v1z = a1 * dxv1 * yv * zv, a1 * xv1 * dyv * zv, a1 * xv1 * yv * dzv
    v2x, v2y, v2z = a2 * dxv2 * yv * zv, a2 * xv2 * dyv * zv, a2 * xv2 * yv * dzv
    Tx, Ty, Tz = aT * dxt * yt * zt, aT * xt * dyt * zt, aT * xt * yt * dzt

    # viscosity / diffusion operators
    L1v1 = -(a1 * (d2xv1 * yv + xv1 * d2yv) * zv) / p.re1 - (a1 * xv1 * yv * d2zv) / p.re2
    L1v2 = -(a2 * (d2xv2 * yv + xv2 * d2yv) * zv) / p.re1 - (a2 * xv2 * yv * d2zv) / p.re2
    L2T = -(aT * (d2xt * yt + xt * d2yt) * zt) / p.rt1 - (aT * xt * yt * d2zt) / p.rt2

    # baroclinic integrals int_0^z grad T
    jz = spec._int_zt_from_surface(z)
    baro_x = aT * dxt * yt * jz
    baro_y = aT * xt * dyt * jz

    f_cor = coriolis_f(y, p) / p.ro

    shape = (g.nx, g.ny, g.nz)
    adv_v1 = v1 * v1x + v2 * v1y + w * v1z
    adv_v2 = v1 * v2x + v2 * v2y + w * v2z
    adv_T = v1 * Tx + v2 * Ty + w * Tz

    f1 = np.broadcast_to(L1v1 + adv_v1 - f_cor * v2 - baro_x, shape).copy()
    f2 = np.broadcast_to(L1v2 + adv_v2 + f_cor * v1 - baro_y, shape).copy()
    q = np.broadcast_to(L2T + adv_T, shape).copy()
    return f1, f2, q


@dataclass(frozen=True)
class ConvergenceResult:
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
    if np.allclose(errs, errs[0]):
        return ConvergenceResult(order=0.0, monotone=monotone)
    slope, _ = np.polyfit(np.log(deltas), np.log(errs), 1)
    return ConvergenceResult(order=float(slope), monotone=monotone)


@dataclass
class MmsReport:
    levels: List[dict] = field(default_factory=list)
    order_v: float = float("nan")
    order_T: float = float("nan")
    monotone: bool = True

    def rows(self):
        out = []
        for lv in self.levels:
            out.append(
                (lv["delta"], lv["err_v1"], lv["err_v2"], lv["err_T"], self.order_v, self.order_T)
            )
        return out


def mms_convergence_study(p: PhysParams, sizes, dt: float, horizon: float) -> MmsReport:
    """Integrate the forced system on refined grids; measure held-state error."""
    report = MmsReport()
    errs_v, errs_T = [], []
    for nx, ny, nz in sizes:
        g = make_grid(p, nx, ny, nz)
        spec = MmsSpec(p)
        s = spec.forced_state(g)
        cfg = StepConfig(dt=dt, t_end=horizon)
        cfg = replace(cfg, output_every=max(1, cfg.n_steps))
        final, _ = run(s, p, g, cfg)
        ref = spec.state(g)
        err_v1, err_v2, err_T = (math.sqrt(l2sq(a[INTERIOR] - b[INTERIOR], g))
                                 for a, b in ((final.v1, ref.v1), (final.v2, ref.v2), (final.T, ref.T)))
        delta = max(g.dx, g.dy, g.dz)
        report.levels.append({"delta": delta, "err_v1": err_v1, "err_v2": err_v2, "err_T": err_T})
        errs_v.append((delta, math.hypot(err_v1, err_v2)))
        errs_T.append((delta, err_T))
    rv = convergence_order(errs_v)
    rt = convergence_order(errs_T)
    report.order_v = rv.order
    report.order_T = rt.order
    report.monotone = rv.monotone and rt.monotone
    return report
