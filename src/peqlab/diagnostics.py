"""Norm and energy monitors for state snapshots.

Every functional tracked by the energy method is evaluated here with the
same deterministic quadrature (uniform cell weights, i.e. the trapezoid rule
with mirrored boundary faces; single-threaded float64 sums).  A DiagRecord is one
time-stamped bundle of all of them plus the constraint residual; the two
Poincare-type inequality checks and the exponential decay envelope for the
temperature energy are evaluated against records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from . import operators as ops
from .grid import INTERIOR, INTERIOR2D, Grid
from .model import State, apply_L1, apply_L2
from .params import PhysParams
from .projection import constraint_residual, depth_mean


@dataclass(frozen=True)
class DiagRecord:
    """One output record; its fields, in order, are the frozen CSV schema."""

    t: float
    l2_T: float
    l2_v: float
    l6_T: float
    l6_vtilde: float
    l6_vz: float
    l6_Tz: float
    v1norm_v: float
    v2norm_T: float
    grad_vbar_2d: float
    l2_vz: float
    l2_gradv: float
    l2_L1v: float
    l2_L2T: float
    l2_vt: float
    l2_Tt: float
    constraint_residual: float

    def row(self):
        return tuple(getattr(self, name) for name in CSV_COLUMNS)


#: CSV schema: column order is frozen (golden-header tested)
CSV_COLUMNS = tuple(f.name for f in fields(DiagRecord))


def kappa_scalar(rt2: float, h: float, alpha: float) -> float:
    """Poincare/decay constant 2*rt2*h^2 + 2*h/alpha (plain arithmetic)."""
    return 2.0 * rt2 * h * h + 2.0 * h / alpha


def kappa(p: PhysParams) -> float:
    return kappa_scalar(p.rt2, p.h, p.alpha)


def gronwall_T_envelope(t: float, l2_T0: float, l2_Q: float, kap: float) -> float:
    """Decay envelope ||T0||^2 exp(-t/kappa) + kappa^2 ||Q||^2."""
    return l2_T0 * math.exp(-t / kap) + kap * kap * l2_Q


def l2sq(f: np.ndarray, g: Grid) -> float:
    """Squared L2 norm of an interior field (deterministic quadrature)."""
    return g.cell_volume * ops.pairwise_sum(np.asarray(f) ** 2)


def norm6(g: Grid, *components: np.ndarray) -> float:
    """L6 norm of the pointwise magnitude of interior component fields."""
    mag2 = sum(np.asarray(c) ** 2 for c in components)
    return (g.cell_volume * ops.pairwise_sum(mag2**3)) ** (1.0 / 6.0)


def surface_integral_sq(Tp: np.ndarray, g: Grid) -> float:
    """Integral of T^2 over the surface z=0, sampled from the top cell layer."""
    top = Tp[1:-1, 1:-1, -2]
    return g.dx * g.dy * ops.pairwise_sum(top**2)


def compute_record(
    s: State,
    s_prev: Optional[State],
    dt: float,
    p: PhysParams,
    g: Grid,
    t: float = 0.0,
) -> DiagRecord:
    """Evaluate every monitored norm on a snapshot with valid ghosts.

    Time-derivative norms use backward differences against s_prev and are
    NaN (missing) on the first record.
    """
    I = INTERIOR

    v1, v2, T = s.v1, s.v2, s.T
    l2_T = l2sq(T[I], g)
    l2_v = l2sq(v1[I], g) + l2sq(v2[I], g)
    l6_T = norm6(g, T[I])

    vbar1, vbar2 = depth_mean(v1, p, g), depth_mean(v2, p, g)
    vt1 = v1[I] - vbar1[INTERIOR2D][:, :, None]
    vt2 = v2[I] - vbar2[INTERIOR2D][:, :, None]
    l6_vtilde = norm6(g, vt1, vt2)

    v1z = ops.d_dz(v1, g)
    v2z = ops.d_dz(v2, g)
    Tz = ops.d_dz(T, g)
    l6_vz = norm6(g, v1z, v2z)
    l6_Tz = norm6(g, Tz)
    l2_vz = l2sq(v1z, g) + l2sq(v2z, g)

    g1x, g1y = ops.grad_h(v1, g)
    g2x, g2y = ops.grad_h(v2, g)
    l2_gradv = l2sq(g1x, g) + l2sq(g1y, g) + l2sq(g2x, g) + l2sq(g2y, g)
    tx, ty = ops.grad_h(T, g)
    l2_gradT = l2sq(tx, g) + l2sq(ty, g)
    l2_Tz = l2sq(Tz, g)

    v1norm_v = l2_gradv / p.re1 + l2_vz / p.re2
    v2norm_T = l2_gradT / p.rt1 + l2_Tz / p.rt2 + p.alpha * surface_integral_sq(T, g)

    # depth-mean shear: 2D integral of |grad vbar|^2
    b1x, b1y = ops.grad_h(vbar1, g)
    b2x, b2y = ops.grad_h(vbar2, g)
    area = g.dx * g.dy
    grad_vbar_2d = area * (
        ops.pairwise_sum(b1x**2) + ops.pairwise_sum(b1y**2)
        + ops.pairwise_sum(b2x**2) + ops.pairwise_sum(b2y**2)
    )

    l2_L1v = l2sq(apply_L1(v1, p, g), g) + l2sq(apply_L1(v2, p, g), g)
    l2_L2T = l2sq(apply_L2(T, p, g), g)

    if s_prev is not None:
        l2_vt = (
            l2sq((v1[I] - s_prev.v1[I]) / dt, g)
            + l2sq((v2[I] - s_prev.v2[I]) / dt, g)
        )
        l2_Tt = l2sq((T[I] - s_prev.T[I]) / dt, g)
    else:
        l2_vt = float("nan")
        l2_Tt = float("nan")

    return DiagRecord(
        t=t,
        l2_T=l2_T, l2_v=l2_v,
        l6_T=l6_T, l6_vtilde=l6_vtilde, l6_vz=l6_vz, l6_Tz=l6_Tz,
        v1norm_v=v1norm_v, v2norm_T=v2norm_T, grad_vbar_2d=grad_vbar_2d,
        l2_vz=l2_vz, l2_gradv=l2_gradv,
        l2_L1v=l2_L1v, l2_L2T=l2_L2T,
        l2_vt=l2_vt, l2_Tt=l2_Tt,
        constraint_residual=constraint_residual(v1, v2, g),
    )


def check_poincare_T(rec: DiagRecord, p: PhysParams) -> float:
    """||T||_2^2 / (kappa ||T||_V^2); at most 1 + O(dx^2) on valid states."""
    if rec.v2norm_T <= 0.0:
        return 0.0 if rec.l2_T == 0.0 else float("inf")
    return rec.l2_T / (kappa(p) * rec.v2norm_T)


def check_poincare_v(rec: DiagRecord, p: PhysParams) -> float:
    """||v||_2 / (2 l ||grad v||_2); zero gradient with nonzero v is a violation."""
    if rec.l2_gradv <= 0.0:
        return 0.0 if rec.l2_v == 0.0 else float("inf")
    return math.sqrt(rec.l2_v) / (2.0 * p.l * math.sqrt(rec.l2_gradv))


def absorbing_entry_time(records: Sequence[DiagRecord], radius_sq: float) -> Optional[float]:
    """First time after which v1norm_v + v2norm_T stays within radius_sq."""
    level = [rec.v1norm_v + rec.v2norm_T for rec in records]
    entry = None
    for rec, value in zip(records, level):
        if value <= radius_sq:
            if entry is None:
                entry = rec.t
        else:
            entry = None
    return entry
