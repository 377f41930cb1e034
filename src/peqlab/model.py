"""Continuous-model operators of the reformulated hydrostatic system.

The prognostic variables are the horizontal velocity (v1, v2) and the
temperature T.  The vertical velocity w is diagnosed from the horizontal
divergence, the pressure splits into a surface part p_s(x, y) plus the
hydrostatic integral of T, and the equations read

  dv/dt = -adv(v) - grad p_s - (f/Ro) k x v + int_0^z grad T dz' - L1 v
  dT/dt = -adv(T) - L2 T + Q

with the advection in skew-symmetric split form, evaluated as face sums, so
that its discrete energy contribution cancels exactly.  `momentum_rhs` and
`temperature_rhs` give the explicit part of the step, everything but the
diffusion terms -L1 v and -L2 T, which the step solves implicitly; both
advect by the face velocities the step builds once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import operators as ops
from .bc import SURFACE_PRESSURE_BC, TEMPERATURE_BC, VELOCITY_BC, W_BC, fill_ghosts
from .grid import INTERIOR, Grid
from .params import PhysParams


def coriolis_f(y, p: PhysParams):
    """Beta-plane Coriolis parameter f0 + beta*y."""
    return p.f0 + p.beta * np.asarray(y, dtype=float)


@dataclass
class State:
    """Prognostic fields (padded), diagnosed fields, and the heat source."""

    v1: np.ndarray
    v2: np.ndarray
    T: np.ndarray
    w: np.ndarray
    p_s: np.ndarray
    Q: np.ndarray
    body_force: Optional[tuple] = None  # verification-only momentum forcing

    @classmethod
    def zeros(cls, g: Grid):
        return cls(
            v1=g.zeros(), v2=g.zeros(), T=g.zeros(), w=g.zeros(),
            p_s=g.zeros2d(), Q=np.zeros((g.nx, g.ny, g.nz)),
        )

    def copy(self):
        return State(
            v1=self.v1.copy(), v2=self.v2.copy(), T=self.T.copy(),
            w=self.w.copy(), p_s=self.p_s.copy(), Q=self.Q.copy(),
            body_force=self.body_force,
        )

    def interiors(self) -> tuple:
        """Interior views of the prognostic fields (v1, v2, T)."""
        return self.v1[INTERIOR], self.v2[INTERIOR], self.T[INTERIOR]

    def fill_all_ghosts(self, p: PhysParams, g: Grid):
        fill_ghosts(self.v1, VELOCITY_BC, p, g)
        fill_ghosts(self.v2, VELOCITY_BC, p, g)
        fill_ghosts(self.T, TEMPERATURE_BC, p, g)
        fill_ghosts(self.w, W_BC, p, g)
        fill_ghosts(self.p_s, SURFACE_PRESSURE_BC, p, g)
        return self

    def refresh_w(self, p: PhysParams, g: Grid):
        """Re-diagnose w from the current velocity ghosts."""
        self.w[INTERIOR] = diagnose_w(self.v1, self.v2, g)
        fill_ghosts(self.w, W_BC, p, g)
        return self


def diagnose_w(v1p: np.ndarray, v2p: np.ndarray, g: Grid) -> np.ndarray:
    """Vertical velocity from the continuity equation, zero at the bottom face.

    w(z) = -int_{-h}^{z} div_h(v) dz', accumulated by the trapezoid rule from
    the bottom, so the surface value equals -h times the uniform depth mean
    of the divergence.
    """
    w = ops.integrate_from_bottom(ops.div_h(v1p, v2p, g), g)
    return np.negative(w, out=w)


def baroclinic_pressure_gradient(Tp: np.ndarray, g: Grid):
    """int_0^z grad T dz' as the pair of interior component fields.

    Computed as -grad_h of the one hydrostatic integral int_z^0 T dz' over
    the laterally padded T: the integral acts column by column, so it
    commutes with the horizontal differences, and the mirrored lateral ghosts
    of T give valid ghost columns of the integral.
    """
    P = ops.integrate_from_top(Tp[:, :, 1:-1], g)
    bx = P[:-2, 1:-1] - P[2:, 1:-1]
    bx *= 0.5 / g.dx
    by = P[1:-1, :-2] - P[1:-1, 2:]
    by *= 0.5 / g.dy
    return bx, by


def face_velocities(u1p: np.ndarray, u2p: np.ndarray, wp: np.ndarray, g: Grid):
    """Pre-scaled face velocities U_{i+1/2} = (u_i + u_{i+1}) / (4 d), one array per axis.

    Each array holds the faces between consecutive padded cells along its
    axis (interior in the other two), ghost faces included.
    """
    ux = u1p[:-1, 1:-1, 1:-1] + u1p[1:, 1:-1, 1:-1]
    ux *= 0.25 / g.dx
    uy = u2p[1:-1, :-1, 1:-1] + u2p[1:-1, 1:, 1:-1]
    uy *= 0.25 / g.dy
    uz = wp[1:-1, 1:-1, :-1] + wp[1:-1, 1:-1, 1:]
    uz *= 0.25 / g.dz
    return ux, uy, uz


def advect_faces(faces, fp: np.ndarray) -> np.ndarray:
    """Skew-symmetric advection 0.5 [ u.grad f + div(u f) ] of the padded field fp (interior out).

    Per axis the centred split form 0.5 [u_i (f_{i+1} - f_{i-1})
    + u_{i+1} f_{i+1} - u_{i-1} f_{i-1}] / (2d) regroups into the face-sum
    form U_{i+1/2} f_{i+1} - U_{i-1/2} f_{i-1} with the faces of
    :func:`face_velocities` (Morinishi et al., J. Comput. Phys. 143, 1998).
    Summed against f, the term U_{i+1/2} f_i f_{i+1} appears once with each
    sign, so <advect_faces(faces, f), f> telescopes to the two wall faces,
    where U vanishes exactly because the advecting normal component is odd
    across the wall (u_ghost = -u).
    """
    ux, uy, uz = faces
    out = ux[1:] * fp[2:, 1:-1, 1:-1]
    buf = np.multiply(ux[:-1], fp[:-2, 1:-1, 1:-1])
    out -= buf
    np.multiply(uy[:, 1:], fp[1:-1, 2:, 1:-1], out=buf)
    out += buf
    np.multiply(uy[:, :-1], fp[1:-1, :-2, 1:-1], out=buf)
    out -= buf
    np.multiply(uz[:, :, 1:], fp[1:-1, 1:-1, 2:], out=buf)
    out += buf
    np.multiply(uz[:, :, :-1], fp[1:-1, 1:-1, :-2], out=buf)
    out -= buf
    return out


def momentum_rhs(s: State, p: PhysParams, g: Grid, faces) -> tuple:
    """Explicit momentum tendency (dv1, dv2), no L1 v; needs current ghosts, p_s and the step's faces."""
    f = coriolis_f(g.y(np.arange(g.ny)), p)[None, :, None] / p.ro
    px, py = ops.grad_h(s.p_s, g)
    dv1, dv2 = baroclinic_pressure_gradient(s.T, g)
    dv1 -= advect_faces(faces, s.v1)
    dv1 += f * s.v2[INTERIOR]
    dv1 -= px[:, :, None]
    dv2 -= advect_faces(faces, s.v2)
    dv2 -= f * s.v1[INTERIOR]
    dv2 -= py[:, :, None]
    if s.body_force is not None:
        dv1 += s.body_force[0]
        dv2 += s.body_force[1]
    return dv1, dv2


def temperature_rhs(s: State, faces) -> np.ndarray:
    """Explicit temperature tendency dT, no L2 T; needs current ghosts and the step's faces."""
    dT = advect_faces(faces, s.T)
    return np.subtract(s.Q, dT, out=dT)
