"""Windowed tail energies, truncation studies, and the contraction probe.

A smooth cutoff of the squared stretched coordinate x^2/r^2 isolates the
temperature energy living beyond |x| ~ r.  The experiments here exhibit the
behavior that justifies truncating the unbounded channel: tail energy stays
a small fraction of the total once the window clears the heat source,
doubling the truncation half-length barely changes the solution on the
common subdomain, and paired trajectories contract.

Each experiment is a loop over :func:`peqlab.integrator.trajectory`, so it
advances under the same prologue and run monitors as a run and
reads the norms it shares with a DiagRecord from the members' records.  It
yields one row of its CSV table at every output step, so ``list`` of an
experiment is its table.  Inputs are checked on the first ``next``, before
the first step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterator, List, NamedTuple, Optional

import numpy as np

from .diagnostics import distance_sq, l2sq
from .errors import ConfigError
from .grid import INTERIOR, Grid, make_grid
from .integrator import StepConfig, trajectory
from .model import State
from .params import PhysParams


@dataclass(frozen=True)
class TailConfig:
    radii: tuple[float, ...] = (1.2, 1.6, 1.9)
    epsilon: float = 1e-3
    tau_probe: float = 2.0

    def validate(self, g: Grid):
        radii = tuple(self.radii)
        if not radii:
            raise ConfigError("tail radii: at least one radius is needed")
        if any(r <= 0 for r in radii):
            raise ConfigError("tail radii must be positive")
        if any(b <= a for a, b in zip(radii, radii[1:])):
            raise ConfigError("tail radii must be strictly increasing")
        # the header's w_{r:g} names repeat only between neighbours, as rounding keeps order
        for a, b in zip(radii, radii[1:]):
            if f"{a:g}" == f"{b:g}":
                raise ConfigError(f"tail radii {a!r} and {b!r} both name the CSV column w_{a:g}")
        if not self.epsilon >= 0.0:
            raise ConfigError(f"tail.epsilon must be >= 0, got {self.epsilon!r}")
        if max(radii) >= g.lx / 2:
            raise ConfigError(
                f"largest tail radius {max(radii)} must stay below lx/2 = {g.lx / 2}"
            )

    @property
    def header(self) -> tuple:
        """The tail table's columns: time, total T energy, windowed energy per radius."""
        return ("t", "total", *(f"w_{r:g}" for r in self.radii))

    def sup_rel(self, rows) -> List[float]:
        """Per radius, the sup over t >= tau_probe of windowed over total energy."""
        late = [row for row in rows if row[0] >= self.tau_probe]
        return [max(row[i] / max(row[1], 1e-300) for row in late)
                for i in range(2, 2 + len(self.radii))]

    def r_star(self, rows) -> Optional[float]:
        """The smallest radius from which on every sup ratio is within epsilon, if any."""
        sup = self.sup_rel(rows)
        return next((r for i, r in enumerate(self.radii)
                     if all(s <= self.epsilon for s in sup[i:])), None)


def cutoff_eta(s):
    """Smooth window: 0 below 1, 1 above 2, quintic smoothstep between."""
    u = np.clip(s - 1.0, 0.0, 1.0)
    return u * u * u * (10.0 + u * (-15.0 + 6.0 * u))


def windowed_T_energy(T: np.ndarray, r: float, g: Grid) -> float:
    """Quadrature of eta(x^2/r^2)^2 |T|^2 over the grid (interior field)."""
    if r <= 0:
        raise ValueError("window radius must be positive")
    x = g.x(np.arange(g.nx))[:, None, None]
    return l2sq(cutoff_eta(x**2 / r**2) * np.asarray(T), g)


def _q_support_radius(Q: np.ndarray, g: Grid) -> float:
    peak = np.abs(Q).max()
    if peak == 0.0:
        return 0.0
    x = np.abs(g.x(np.arange(g.nx)))
    occupied = np.abs(Q).max(axis=(1, 2)) > 1e-12 * peak
    return float(x[occupied].max())


def tail_decay_experiment(
    tail: TailConfig,
    initial: State,
    p: PhysParams,
    g: Grid,
    cfg: StepConfig,
) -> Iterator[tuple]:
    """Run the simulation and track windowed tail energies per radius.

    Yields one row ``(t, total, w_r, ...)`` of ``tail.header`` per output time.

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
    for _, t, (state,), (rec,) in trajectory([(initial, p, g)], cfg):
        yield (t, rec.l2_T, *(windowed_T_energy(state.T[INTERIOR], r, g) for r in tail.radii))


class TruncationRow(NamedTuple):
    t: float
    rel_diff: float


def truncation_convergence(
    p: PhysParams,
    counts: tuple,
    cfg: StepConfig,
    initial: Callable[[PhysParams, Grid], State],
    factor: int = 2,
    factor_base: int = 1,
) -> Iterator[TruncationRow]:
    """Compare runs of the same physics on channels widened by two factors.

    initial(params, grid) gives the initial state, heat source included, on
    either channel.  The default pairs the base half-length with factor
    times it.  Both grids keep the spacing (nx scales with the factor), so
    the narrow domain's cells are a subset of the wide one's; each row holds
    the relative L2 difference of (v1, v2, T) on the narrow domain.
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
        return initial(pp, gg), pp, gg

    members = [member(fa), member(fb)]
    g_a = members[0][2]
    sl = np.s_[1 + offset:1 + offset + g_a.nx, 1:-1, 1:-1]

    for _, t, (base, wide), (rec, _) in trajectory(members, cfg):
        # the narrow domain is the whole interior of the base grid
        num = sum(distance_sq(wide, base.interiors(), g_a, sl))
        den = rec.l2_v + rec.l2_T
        yield TruncationRow(t, math.sqrt(num) / math.sqrt(den) if den > 0 else math.sqrt(num))


class ContractionRow(NamedTuple):
    t: float
    dist_v: float
    dist_T: float
    dist_l2: float
    v_proxy: float


def two_trajectory_contraction(
    s_a: State,
    s_b: State,
    p: PhysParams,
    g: Grid,
    cfg: StepConfig,
) -> Iterator[ContractionRow]:
    """Integrate two states side by side and track their separation.

    Yields the L2 distances and a V-level proxy sqrt(d_L2) * sqrt(H2_a + H2_b)
    from the interpolation form with constant one (reported, never asserted
    against an analytic value).  Both states must share the heat source.
    """
    if not np.array_equal(s_a.Q, s_b.Q):
        raise ConfigError("contraction probe requires identical heat sources")

    for _, t, (a, b), records in trajectory([(s_a, p, g), (s_b, p, g)], cfg):
        dv1, dv2, dT2 = distance_sq(a, b.interiors(), g)
        dv, dT = math.sqrt(dv1 + dv2), math.sqrt(dT2)
        dist = math.hypot(dv, dT)
        h2 = sum(math.sqrt(rec.l2_L1v + rec.l2_L2T) for rec in records)
        yield ContractionRow(t, dv, dT, dist, math.sqrt(dist) * math.sqrt(h2))
