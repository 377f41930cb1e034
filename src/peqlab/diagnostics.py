"""Norm and energy monitors for state snapshots.

Every functional tracked by the energy method is evaluated here with the
same deterministic quadrature: uniform cell weights, i.e. the trapezoid rule
with mirrored boundary faces.  A DiagRecord is one time-stamped bundle of
all of them plus the constraint residual and the three values the run
monitors compare (see monitored).  compute_record evaluates its 3D
integrands over slabs of whole x-planes holding at most SLAB_CELLS interior
cells, building each field's stencils once per slab; each slab is reduced
by the single-threaded float64 pairwise sum, and the slab sums are combined
exactly by math.fsum.  A grid of up to SLAB_CELLS cells is one slab, so its
record equals the whole-array formulas bit for bit (oracle.record_reference).
The two Poincare-type inequality checks and the exponential decay envelope
for the temperature energy are evaluated on records and stored in them.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from . import operators as ops
from .grid import INTERIOR, Grid
from .model import State
from .params import PhysParams
from .projection import constraint_residual, depth_mean


class DiagRecord(NamedTuple):
    """One output record; its fields, in order, are the frozen CSV schema.

    The last three, filled in by monitored, are the values the run monitors compare.
    """

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
    envelope_T: float = math.nan
    poincare_T: float = math.nan
    poincare_v: float = math.nan


#: CSV schema: column order is frozen (golden-header tested)
CSV_COLUMNS = DiagRecord._fields

#: interior cells a record slab of whole x-planes may hold (one plane at least);
#: a grid of up to this many cells is one slab, its sums those of whole arrays
SLAB_CELLS = 32768


def kappa(p: PhysParams) -> float:
    """Poincare/decay constant 2*rt2*h^2 + 2*h/alpha."""
    return 2.0 * p.rt2 * p.h * p.h + 2.0 * p.h / p.alpha


def gronwall_T_envelope(t: float, l2_T0: float, l2_Q: float, kap: float) -> float:
    """Decay envelope ||T0||^2 exp(-t/kappa) + kappa^2 ||Q||^2."""
    return l2_T0 * math.exp(-t / kap) + kap * kap * l2_Q


def l2sq(f: np.ndarray, g: Grid) -> float:
    """Squared L2 norm of an interior field (deterministic quadrature)."""
    return g.cell_volume * ops.pairwise_sum(np.asarray(f) ** 2)


def distance_sq(a: State, b, g: Grid, region=INTERIOR) -> tuple:
    """Squared L2 distances of a's (v1, v2, T), read over region, from the interior fields b."""
    return tuple(l2sq(fa[region] - fb, g) for fa, fb in zip((a.v1, a.v2, a.T), b))


def _squares(fp: np.ndarray, g: Grid, r_h: float, r_z: float):
    """Squared stencils of one padded field over a slab of whole x-planes, one at a time.

    Yields the squares of the interior value, of d/dz, d/dx and d/dy, and of
    L = -lap_h/r_h - d2/dz2/r_z, the viscosity (L1) or diffusion (L2)
    operator, whose three second differences share one 2.0*centre.  Each
    element is computed in the order of the whole-array stencils,
    :func:`oracle.d_dz`, :func:`operators.grad_h` and
    :func:`oracle.apply_L1`; only the buffers are reused.
    """
    c = fp[1:-1, 1:-1, 1:-1]
    xp, xm = fp[2:, 1:-1, 1:-1], fp[:-2, 1:-1, 1:-1]
    yp, ym = fp[1:-1, 2:, 1:-1], fp[1:-1, :-2, 1:-1]
    zp, zm = fp[1:-1, 1:-1, 2:], fp[1:-1, 1:-1, :-2]
    yield np.square(c)
    for plus, minus, d in ((zp, zm, g.dz), (xp, xm, g.dx), (yp, ym, g.dy)):
        a = np.subtract(plus, minus)
        a /= 2.0 * d
        yield np.square(a, out=a)
    two_c = 2.0 * c
    lap = np.subtract(xp, two_c)
    lap += xm
    lap /= g.dx**2
    a = np.subtract(yp, two_c)
    a += ym
    a /= g.dy**2
    lap += a
    d2z = np.subtract(zp, two_c, out=two_c)
    d2z += zm
    d2z /= g.dz**2
    np.negative(lap, out=lap)
    lap /= r_h
    d2z /= r_z
    lap -= d2z
    yield np.square(lap, out=lap)


#: squares _slab_sums keeps past their own sums: the pointwise magnitudes of the L6 norms
_L6_SQUARES = ("v1z", "v2z", "T", "Tz")


def _slab_sums(s: State, prev, vbar1, vbar2, dt: float, p: PhysParams, g: Grid, lo: int, hi: int):
    """Pairwise sums of every record integrand over the interior x-planes lo..hi-1."""
    S = ops.pairwise_sum
    x = slice(lo + 1, hi + 1)
    I = (x, slice(1, -1), slice(1, -1))
    out, kept = {}, {}
    for name, f, r_h, r_z in (("v1", s.v1, p.re1, p.re2), ("v2", s.v2, p.re1, p.re2),
                              ("T", s.T, p.rt1, p.rt2)):
        keys = (name, name + "z", name + "x", name + "y", name + "L")
        for key, sq in zip(keys, _squares(f[lo:hi + 2], g, r_h, r_z)):
            out[key] = S(sq)
            if key in _L6_SQUARES:
                kept[key] = sq
    v1z = kept["v1z"]
    v1z += kept["v2z"]
    for key, mag2 in (("vz6", v1z), ("T6", kept["T"]), ("Tz6", kept["Tz"])):
        mag2 **= 3
        out[key] = S(mag2)
    vt1 = np.subtract(s.v1[I], vbar1[x, 1:-1, None], out=v1z)
    vt2 = np.subtract(s.v2[I], vbar2[x, 1:-1, None], out=kept["v2z"])
    np.square(vt1, out=vt1)
    vt1 += np.square(vt2, out=vt2)
    vt1 **= 3
    out["vt6"] = S(vt1)
    out["top"] = S(s.T[x, 1:-1, -2] ** 2)
    if prev is not None:
        for key, f, f_prev in (("v1t", s.v1, prev[0]), ("v2t", s.v2, prev[1]), ("Tt", s.T, prev[2])):
            ft = np.subtract(f[I], f_prev[lo:hi], out=vt1)
            ft /= dt
            out[key] = S(np.square(ft, out=ft))
    return out


def compute_record(s: State, prev: Optional[tuple], dt: float, p: PhysParams, g: Grid, t: float = 0.0,
                   l2_t0: float = 0.0, l2_q: float = 0.0) -> DiagRecord:
    """Evaluate every monitored norm on a snapshot with valid ghosts.

    prev holds the interior (v1, v2, T) one step back; the time-derivative
    norms are its backward differences, and NaN (missing) when prev is None.
    l2_t0 and l2_q, the initial |T0|^2 and |Q|^2, set the decay envelope.
    """
    planes = max(1, SLAB_CELLS // (g.ny * g.nz))
    vbar1, vbar2 = depth_mean(s.v1, p, g), depth_mean(s.v2, p, g)
    slabs = [_slab_sums(s, prev, vbar1, vbar2, dt, p, g, lo, min(lo + planes, g.nx))
             for lo in range(0, g.nx, planes)]
    total = {key: math.fsum(sums[key] for sums in slabs) for key in slabs[0]}
    cv = g.cell_volume

    def l2(*keys):
        """Sum of the squared L2 norms of the named integrands, added left to right."""
        return sum(cv * total[key] for key in keys)

    def l6(key):
        return (cv * total[key]) ** (1.0 / 6.0)

    l2_vz, l2_gradv = l2("v1z", "v2z"), l2("v1x", "v1y", "v2x", "v2y")
    surface = g.dx * g.dy * total["top"]

    # depth-mean shear: 2D integral of |grad vbar|^2
    b1x, b1y = ops.grad_h(vbar1, g)
    b2x, b2y = ops.grad_h(vbar2, g)
    area = g.dx * g.dy
    grad_vbar_2d = area * (
        ops.pairwise_sum(b1x**2) + ops.pairwise_sum(b1y**2)
        + ops.pairwise_sum(b2x**2) + ops.pairwise_sum(b2y**2)
    )

    nan = float("nan")
    return monitored(DiagRecord(
        t=t,
        l2_T=l2("T"), l2_v=l2("v1", "v2"),
        l6_T=l6("T6"), l6_vtilde=l6("vt6"), l6_vz=l6("vz6"), l6_Tz=l6("Tz6"),
        v1norm_v=l2_gradv / p.re1 + l2_vz / p.re2,
        v2norm_T=l2("Tx", "Ty") / p.rt1 + l2("Tz") / p.rt2 + p.alpha * surface,
        grad_vbar_2d=grad_vbar_2d,
        l2_vz=l2_vz, l2_gradv=l2_gradv,
        l2_L1v=l2("v1L", "v2L"), l2_L2T=l2("TL"),
        l2_vt=nan if prev is None else l2("v1t", "v2t"),
        l2_Tt=nan if prev is None else l2("Tt"),
        constraint_residual=constraint_residual(vbar1, vbar2, s.v1, s.v2, g),
    ), p, l2_t0, l2_q)


def monitored(rec: DiagRecord, p: PhysParams, l2_t0: float, l2_q: float) -> DiagRecord:
    """rec with the values its run monitors compare, each from its own fields."""
    return rec._replace(envelope_T=gronwall_T_envelope(rec.t, l2_t0, l2_q, kappa(p)),
                        poincare_T=check_poincare_T(rec, p), poincare_v=check_poincare_v(rec, p))


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

