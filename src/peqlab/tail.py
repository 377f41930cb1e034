"""Windowed tail energies, truncation studies, and the contraction probe.

A smooth cutoff of the squared stretched coordinate x^2/r^2 isolates the
temperature energy living beyond |x| ~ r.  The experiments here exhibit the
behavior that justifies truncating the unbounded channel: tail energy stays
a small fraction of the total once the window clears the heat source,
doubling the truncation half-length barely changes the solution on the
common subdomain, and paired trajectories contract.

Each experiment is a sampler on :func:`peqlab.integrator.trajectory`, so it
advances under the same prologue and run monitors (``checks``) as a run and
reads the norms it shares with a DiagRecord from the members' records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional

import numpy as np

from .diagnostics import l2sq
from .errors import ConfigError
from .grid import INTERIOR, Grid, make_grid
from .integrator import RunChecks, StepConfig, trajectory
from .model import State
from .params import PhysParams


@dataclass(frozen=True)
class TailConfig:
    radii: tuple = (0.6, 0.8, 1.0)
    epsilon: float = 1e-3
    tau_probe: float = 1.0

    def validate(self, g: Grid):
        radii = tuple(self.radii)
        if not radii or any(r <= 0 for r in radii):
            raise ConfigError("tail radii must be positive")
        if any(b <= a for a, b in zip(radii, radii[1:])):
            raise ConfigError("tail radii must be strictly increasing")
        if max(radii) >= g.lx / 2:
            raise ConfigError(
                f"largest tail radius {max(radii)} must stay below lx/2 = {g.lx / 2}"
            )
        return self


def cutoff_eta(s):
    """Smooth window: 0 below 1, 1 above 2, quintic smoothstep between."""
    s = np.asarray(s, dtype=float)
    u = np.clip(s - 1.0, 0.0, 1.0)
    val = u * u * u * (10.0 + u * (-15.0 + 6.0 * u))
    return val if val.ndim else float(val)


def windowed_T_energy(T: np.ndarray, r: float, g: Grid) -> float:
    """Quadrature of eta(x^2/r^2)^2 |T|^2 over the grid (interior field)."""
    if r <= 0:
        raise ValueError("window radius must be positive")
    x = g.x(np.arange(g.nx))[:, None, None]
    return l2sq(cutoff_eta(x**2 / r**2) * np.asarray(T), g)


@dataclass
class TailReport:
    radii: tuple
    tau_probe: float
    epsilon: float
    times: List[float] = field(default_factory=list)
    totals: List[float] = field(default_factory=list)
    windowed: List[List[float]] = field(default_factory=list)  # [radius][time]
    sup_rel: List[float] = field(default_factory=list)
    r_star: Optional[float] = None
    passed: bool = False

    def finish(self):
        mask = [t >= self.tau_probe for t in self.times]
        self.sup_rel = []
        for series in self.windowed:
            vals = [w for w, m in zip(series, mask) if m]
            tot = [max(T, 1e-300) for T, m in zip(self.totals, mask) if m]
            self.sup_rel.append(max(w / T for w, T in zip(vals, tot)))
        self.r_star = None
        for i, r in enumerate(self.radii):
            if all(s <= self.epsilon for s in self.sup_rel[i:]):
                self.r_star = r
                break
        self.passed = self.r_star is not None
        return self


def _q_support_radius(Q: np.ndarray, g: Grid) -> float:
    peak = np.abs(Q).max()
    if peak == 0.0:
        return 0.0
    x = np.abs(g.x(np.arange(g.nx)))
    occupied = np.abs(Q).max(axis=(1, 2)) > 1e-12 * peak
    return float(x[occupied].max()) if occupied.any() else 0.0


def tail_decay_experiment(
    tail: TailConfig,
    initial: State,
    p: PhysParams,
    g: Grid,
    cfg: StepConfig,
    checks: Optional[RunChecks] = None,
) -> TailReport:
    """Run the simulation and track windowed tail energies per radius.

    The heat source must live well inside the smallest window radius, and
    tau_probe no later than the last output time, n_steps * dt.
    """
    tail.validate(g)
    if tail.tau_probe > cfg.n_steps * cfg.dt:
        raise ConfigError("tau_probe lies beyond the simulated horizon")
    support = _q_support_radius(initial.Q, g)
    if support > 0.75 * min(tail.radii):
        raise ConfigError(
            f"heat source support |x| <= {support:.3g} is not well inside the "
            f"smallest window radius {min(tail.radii)}"
        )
    report = TailReport(radii=tuple(tail.radii), tau_probe=tail.tau_probe, epsilon=tail.epsilon)
    report.windowed = [[] for _ in tail.radii]

    def observe(n, t, states, records):
        report.times.append(t)
        report.totals.append(records[0].l2_T)
        for i, r in enumerate(tail.radii):
            report.windowed[i].append(windowed_T_energy(states[0].T[INTERIOR], r, g))

    trajectory([(initial, p, g)], cfg, checks, observe)
    return report.finish()


@dataclass
class TruncationReport:
    factor: int
    times: List[float] = field(default_factory=list)
    rel_diff: List[float] = field(default_factory=list)

    @property
    def max_rel_diff(self) -> float:
        return max(self.rel_diff) if self.rel_diff else float("nan")


def truncation_convergence(
    p: PhysParams,
    counts: tuple,
    cfg: StepConfig,
    q_fn: Callable,
    factor: int = 2,
    factor_base: int = 1,
    checks: Optional[RunChecks] = None,
) -> TruncationReport:
    """Compare runs of the same physics on channels widened by two factors.

    q_fn(grid) gives the heat source on either grid.  The default pairs the
    base half-length with factor times it.  Both grids keep the spacing (nx
    scales with the factor), so the narrow domain's cells are a subset of the
    wide one's; the report holds the relative L2 difference of (v1, v2, T) on
    the narrow domain at every output time.
    """
    nx, ny, nz = counts
    fa, fb = int(factor_base), int(factor)
    if fa != factor_base or fb != factor or fa < 1 or fb <= fa:
        raise ConfigError("truncation factors must be integers with factor > factor_base >= 1")
    offset, rem = divmod(nx * (fb - fa), 2)
    if rem:
        raise ConfigError(f"nx * {fb - fa} must be even for aligned grids")

    def member(f):
        pp = replace(p, lx=f * p.lx)
        gg = make_grid(pp, f * nx, ny, nz)
        s = State.zeros(gg)
        s.Q[...] = q_fn(gg)
        return s, pp, gg

    members = [member(fa), member(fb)]
    g_a, g_b = members[0][2], members[1][2]
    na = g_a.nx
    if not np.allclose(g_a.x(np.arange(na)), g_b.x(np.arange(offset, offset + na))):
        raise ConfigError("incompatible grids: cell centers do not align")

    report = TruncationReport(factor=fb)
    sl = np.s_[1 + offset:1 + offset + na, 1:-1, 1:-1]

    def observe(n, t, states, records):
        base, wide = states
        # the narrow domain is the whole interior of the base grid
        num = sum(l2sq(w[sl] - b[INTERIOR], g_a) for w, b in (
            (wide.v1, base.v1), (wide.v2, base.v2), (wide.T, base.T)))
        den = records[0].l2_v + records[0].l2_T
        report.times.append(t)
        report.rel_diff.append(math.sqrt(num) / math.sqrt(den) if den > 0 else math.sqrt(num))

    trajectory(members, cfg, checks, observe)
    return report


@dataclass
class ContractionReport:
    times: List[float] = field(default_factory=list)
    dist_v: List[float] = field(default_factory=list)
    dist_T: List[float] = field(default_factory=list)
    dist_l2: List[float] = field(default_factory=list)
    v_proxy: List[float] = field(default_factory=list)


def two_trajectory_contraction(
    s_a: State,
    s_b: State,
    p: PhysParams,
    g: Grid,
    cfg: StepConfig,
    checks: Optional[RunChecks] = None,
) -> ContractionReport:
    """Integrate two states side by side and track their separation.

    Emits the L2 distances and a V-level proxy sqrt(d_L2) * sqrt(H2_a + H2_b)
    from the interpolation form with constant one (reported, never asserted
    against an analytic value).  Both states must share the heat source.
    """
    if not np.array_equal(s_a.Q, s_b.Q):
        raise ConfigError("contraction probe requires identical heat sources")
    report = ContractionReport()

    def observe(n, t, states, records):
        a, b = states
        dv1, dv2, dT2 = (l2sq(x[INTERIOR] - y[INTERIOR], g)
                         for x, y in ((a.v1, b.v1), (a.v2, b.v2), (a.T, b.T)))
        dv, dT = math.sqrt(dv1 + dv2), math.sqrt(dT2)
        dist = math.hypot(dv, dT)
        h2 = sum(math.sqrt(rec.l2_L1v + rec.l2_L2T) for rec in records)
        report.times.append(t)
        report.dist_v.append(dv)
        report.dist_T.append(dT)
        report.dist_l2.append(dist)
        report.v_proxy.append(math.sqrt(dist) * math.sqrt(h2))

    trajectory([(s_a, p, g), (s_b, p, g)], cfg, checks, observe)
    return report
