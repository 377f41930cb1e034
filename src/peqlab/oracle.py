"""Dense-matrix oracles for the discrete operators.

Matrices are assembled by explicit index bookkeeping (loop over cells,
per-face ghost elimination written out long-hand), deliberately independent
of the vectorized stencil code they cross-check.  Sizes are capped at 4096
unknowns; these exist for verification only.  `helmholtz_apply` is the
stencil side of one such cross-check: (I + dt*L) applied through the ghost
fills and `apply_L1`/`apply_L2`, which the tests compare with the dense
matrix.  Those two, with `lap_h`, `d_dz` and `d2_dz2`, are the whole-array
stencils of the diffusion operators; the production path applies them only
through the implicit solves and, slab by slab, in the diagnostic record.
`advect_reference` is the textbook split form of the skew-symmetric
advection, against which the tests check the production face-sum form.
`full_rhs` is the full tendency, the step's explicit tendency minus L1 v and
L2 T, which the tests take to the manufactured solution's discrete residual.
`record_reference`, with `norm6` and `surface_integral_sq`, is the
diagnostic record from whole-array formulas, one reduction per integrand,
against which the tests check the slab-blocked `diagnostics.compute_record`.
"""

from __future__ import annotations

import numpy as np

from . import operators as ops
from .bc import BcKind, FieldBcs, TEMPERATURE_BC, VELOCITY_BC, fill_ghosts, robin_ghost_factor
from .diagnostics import DiagRecord, l2sq, monitored
from .grid import INTERIOR, INTERIOR2D, Grid
from .model import State, face_velocities, hydrostatic_integral, momentum_rhs, temperature_rhs
from .params import PhysParams
from .projection import constraint_residual, depth_mean

MAX_UNKNOWNS = 4096


def _ghost_gamma(kind: BcKind, p: PhysParams, g: Grid) -> float:
    if kind is BcKind.DIRICHLET:
        return -1.0
    if kind is BcKind.NEUMANN:
        return 1.0
    return robin_ghost_factor(p, g)


def dense_second_derivative_3d(g: Grid, p: PhysParams, bcs: FieldBcs, coefs) -> np.ndarray:
    """Dense matrix of -(cx d2/dx2 + cy d2/dy2 + cz d2/dz2) with ghost elimination."""
    n = g.nx * g.ny * g.nz
    if n > MAX_UNKNOWNS:
        raise ValueError(f"oracle size cap exceeded: {n} > {MAX_UNKNOWNS}")
    cx, cy, cz = coefs
    a = np.zeros((n, n))

    def row(i, j, k):
        return (i * g.ny + j) * g.nz + k

    spans = (
        (0, g.nx, g.dx, cx, bcs.xlo, bcs.xhi),
        (1, g.ny, g.dy, cy, bcs.ylo, bcs.yhi),
        (2, g.nz, g.dz, cz, bcs.zlo, bcs.zhi),
    )
    for i in range(g.nx):
        for j in range(g.ny):
            for k in range(g.nz):
                r = row(i, j, k)
                idx = [i, j, k]
                for axis, count, d, coef, lo, hi in spans:
                    w = coef / d**2
                    a[r, r] += 2.0 * w
                    for step, kind in ((-1, lo), (+1, hi)):
                        nb = idx.copy()
                        nb[axis] += step
                        if 0 <= nb[axis] < count:
                            a[r, row(*nb)] -= w
                        else:
                            # neighbor is a ghost: ghost = gamma * this cell
                            a[r, r] -= w * _ghost_gamma(kind, p, g)
    return a


def dense_operator_oracle(g: Grid, op: str, p: PhysParams, dt: float | None = None) -> np.ndarray:
    """Dense form of a named discrete operator on grid g.

    op: "L1" (momentum viscosity), "L2" (heat diffusion),
        "helmholtz_v"/"helmholtz_T" (I + dt*L, dt required).
    """
    if op == "L1":
        return dense_second_derivative_3d(g, p, VELOCITY_BC, (1 / p.re1, 1 / p.re1, 1 / p.re2))
    if op == "L2":
        return dense_second_derivative_3d(g, p, TEMPERATURE_BC, (1 / p.rt1, 1 / p.rt1, 1 / p.rt2))
    if op in ("helmholtz_v", "helmholtz_T"):
        if dt is None:
            raise ValueError("helmholtz oracle needs dt")
        base = dense_operator_oracle(g, "L1" if op.endswith("v") else "L2", p)
        return np.eye(base.shape[0]) + dt * base
    raise ValueError(f"unknown operator id {op!r}")


def lap_h(fp: np.ndarray, g: Grid):
    """Horizontal five-point Laplacian of a padded 2D or 3D field."""
    centre = ops._shifted(fp, 0, 0)
    return (ops._shifted(fp, 1, 0) - 2.0 * centre + ops._shifted(fp, -1, 0)) / g.dx**2 + (
        ops._shifted(fp, 0, 1) - 2.0 * centre + ops._shifted(fp, 0, -1)
    ) / g.dy**2


def d_dz(fp: np.ndarray, g: Grid):
    """Centered vertical derivative of a padded 3D field."""
    return (fp[1:-1, 1:-1, 2:] - fp[1:-1, 1:-1, :-2]) / (2.0 * g.dz)


def d2_dz2(fp: np.ndarray, g: Grid):
    """Centered second vertical derivative of a padded 3D field."""
    return (fp[1:-1, 1:-1, 2:] - 2.0 * fp[1:-1, 1:-1, 1:-1] + fp[1:-1, 1:-1, :-2]) / g.dz**2


def apply_L1(vp: np.ndarray, p: PhysParams, g: Grid) -> np.ndarray:
    """Momentum viscosity operator -(1/re1) lap_h - (1/re2) d2/dz2."""
    return -lap_h(vp, g) / p.re1 - d2_dz2(vp, g) / p.re2


def apply_L2(Tp: np.ndarray, p: PhysParams, g: Grid) -> np.ndarray:
    """Heat diffusion operator -(1/rt1) lap_h - (1/rt2) d2/dz2."""
    return -lap_h(Tp, g) / p.rt1 - d2_dz2(Tp, g) / p.rt2


def helmholtz_apply(x: np.ndarray, p: PhysParams, g: Grid, dt: float, kind: str) -> np.ndarray:
    """(I + dt*L) x through the ghost-based stencils (interior in/out)."""
    pad = g.zeros()
    pad[INTERIOR] = x
    if kind == "velocity":
        fill_ghosts(pad, VELOCITY_BC, p, g)
        return x + dt * apply_L1(pad, p, g)
    fill_ghosts(pad, TEMPERATURE_BC, p, g)
    return x + dt * apply_L2(pad, p, g)


def full_rhs(s: State, p: PhysParams, g: Grid) -> tuple:
    """(dv1, dv2, dT) of the full equations: the explicit tendency with diffusion added."""
    faces = face_velocities(s.v1, s.v2, s.w, g)
    P = hydrostatic_integral(s.T, g)
    dv1, dv2 = (momentum_rhs(s, p, g, faces, P, axis) for axis in (0, 1))
    dT = temperature_rhs(s, faces) - apply_L2(s.T, p, g)
    return dv1 - apply_L1(s.v1, p, g), dv2 - apply_L1(s.v2, p, g), dT


def advect_reference(u1p: np.ndarray, u2p: np.ndarray, wp: np.ndarray, fp: np.ndarray, g: Grid) -> np.ndarray:
    """0.5 [ u.grad f + div(u f) ] with centred differences, term by term (interior out)."""
    I = INTERIOR
    conv = (
        u1p[I] * (fp[2:, 1:-1, 1:-1] - fp[:-2, 1:-1, 1:-1]) / (2.0 * g.dx)
        + u2p[I] * (fp[1:-1, 2:, 1:-1] - fp[1:-1, :-2, 1:-1]) / (2.0 * g.dy)
        + wp[I] * (fp[1:-1, 1:-1, 2:] - fp[1:-1, 1:-1, :-2]) / (2.0 * g.dz)
    )
    f1 = u1p * fp
    f2 = u2p * fp
    f3 = wp * fp
    dive = (
        (f1[2:, 1:-1, 1:-1] - f1[:-2, 1:-1, 1:-1]) / (2.0 * g.dx)
        + (f2[1:-1, 2:, 1:-1] - f2[1:-1, :-2, 1:-1]) / (2.0 * g.dy)
        + (f3[1:-1, 1:-1, 2:] - f3[1:-1, 1:-1, :-2]) / (2.0 * g.dz)
    )
    return 0.5 * (conv + dive)


def flatten(field: np.ndarray) -> np.ndarray:
    """Interior field to the oracle's unknown ordering."""
    return np.asarray(field).reshape(-1)


def unflatten(vec: np.ndarray, g: Grid) -> np.ndarray:
    return np.asarray(vec).reshape(g.nx, g.ny, g.nz)


def norm6(g: Grid, *components: np.ndarray) -> float:
    """L6 norm of the pointwise magnitude of interior component fields."""
    mag2 = sum(np.asarray(c) ** 2 for c in components)
    return (g.cell_volume * ops.pairwise_sum(mag2**3)) ** (1.0 / 6.0)


def surface_integral_sq(Tp: np.ndarray, g: Grid) -> float:
    """Integral of T^2 over the surface z=0, sampled from the top cell layer."""
    top = Tp[1:-1, 1:-1, -2]
    return g.dx * g.dy * ops.pairwise_sum(top**2)


def record_reference(s: State, prev, dt: float, p: PhysParams, g: Grid, t: float = 0.0,
                     l2_t0: float = 0.0, l2_q: float = 0.0) -> DiagRecord:
    """The DiagRecord of a snapshot with valid ghosts, each integrand a whole array.

    prev holds the interior (v1, v2, T) one step back, or is None for a
    first record; the time-derivative norms are then NaN.
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

    v1z = d_dz(v1, g)
    v2z = d_dz(v2, g)
    Tz = d_dz(T, g)
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

    b1x, b1y = ops.grad_h(vbar1, g)
    b2x, b2y = ops.grad_h(vbar2, g)
    area = g.dx * g.dy
    grad_vbar_2d = area * (
        ops.pairwise_sum(b1x**2) + ops.pairwise_sum(b1y**2)
        + ops.pairwise_sum(b2x**2) + ops.pairwise_sum(b2y**2)
    )

    l2_L1v = l2sq(apply_L1(v1, p, g), g) + l2sq(apply_L1(v2, p, g), g)
    l2_L2T = l2sq(apply_L2(T, p, g), g)

    if prev is not None:
        p1, p2, pT = prev
        l2_vt = l2sq((v1[I] - p1) / dt, g) + l2sq((v2[I] - p2) / dt, g)
        l2_Tt = l2sq((T[I] - pT) / dt, g)
    else:
        l2_vt = float("nan")
        l2_Tt = float("nan")

    return monitored(DiagRecord(
        t=t,
        l2_T=l2_T, l2_v=l2_v,
        l6_T=l6_T, l6_vtilde=l6_vtilde, l6_vz=l6_vz, l6_Tz=l6_Tz,
        v1norm_v=v1norm_v, v2norm_T=v2norm_T, grad_vbar_2d=grad_vbar_2d,
        l2_vz=l2_vz, l2_gradv=l2_gradv,
        l2_L1v=l2_L1v, l2_L2T=l2_L2T,
        l2_vt=l2_vt, l2_Tt=l2_Tt,
        constraint_residual=constraint_residual(vbar1, vbar2, v1, v2, g),
    ), p, l2_t0, l2_q)
