"""Continuous-model operators of the reformulated hydrostatic system.

The prognostic variables are the horizontal velocity (v1, v2) and the
temperature T.  The vertical velocity w is diagnosed from the horizontal
divergence, the pressure splits into a surface part p_s(x, y) plus the
hydrostatic integral of T, and the equations read

  dv/dt = -adv(v) - grad p_s - (f/Ro) k x v + int_0^z grad T dz' - L1 v
  dT/dt = -adv(T) - L2 T + Q

with the advection in skew-symmetric split form, evaluated as face sums, so
that its discrete energy contribution cancels exactly.  `momentum_rhs` (one
velocity component per call) and `temperature_rhs` give the explicit part of
the step, everything but the diffusion terms -L1 v and -L2 T, which the step
solves implicitly; both advect by the face velocities the step builds once,
and both can form their tendency in buffers the caller lends.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from . import operators as ops
from .bc import SURFACE_PRESSURE_BC, TEMPERATURE_BC, VELOCITY_BC, W_BC, fill_ghosts
from .grid import INTERIOR, Grid
from .params import PhysParams


def coriolis_f(y, p: PhysParams):
    """Beta-plane Coriolis parameter f0 + beta*y."""
    return p.f0 + p.beta * np.asarray(y, dtype=float)


@lru_cache(maxsize=16)
def _coriolis_rows(p: PhysParams, g: Grid) -> np.ndarray:
    """f / Ro at the cell rows, shaped (1, ny, 1) to scale interior fields; cached read-only."""
    f = coriolis_f(g.y(np.arange(g.ny)), p)[None, :, None] / p.ro
    f.setflags(write=False)
    return f


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

    def refresh_w(self, p: PhysParams, g: Grid, work=None):
        """Re-diagnose w from the current velocity ghosts; `work` may lend diagnose_w its two buffers."""
        self.w[INTERIOR] = diagnose_w(self.v1, self.v2, g, *(work or ()))
        fill_ghosts(self.w, W_BC, p, g)
        return self


def diagnose_w(v1p: np.ndarray, v2p: np.ndarray, g: Grid, out=None, buf=None) -> np.ndarray:
    """Vertical velocity from the continuity equation, zero at the bottom face.

    w(z) = -int_{-h}^{z} div_h(v) dz', accumulated by the trapezoid rule from
    the bottom, so the surface value equals -h times the uniform depth mean
    of the divergence.  Given two interior-shaped buffers, the divergence
    goes to `buf` and w to `out`, with the same operations.
    """
    w = ops.integrate_from_bottom(ops.div_h(v1p, v2p, g, buf, out), g, out)
    return np.negative(w, out=w)


def hydrostatic_integral(Tp: np.ndarray, g: Grid) -> np.ndarray:
    """int_z^0 T dz' over the laterally padded T, shape (nx + 2, ny + 2, nz).

    The integral acts column by column, so it commutes with the horizontal
    differences of :func:`momentum_rhs`, and the mirrored lateral ghosts of T
    give valid ghost columns of the integral.  The columns are read as one
    strided view of Tp, so no copy of T is made.
    """
    columns = Tp.reshape(-1, Tp.shape[-1])[:, 1:-1]
    return ops.integrate_from_top(columns, g).reshape(Tp.shape[0], Tp.shape[1], -1)


#: interior columns of a laterally padded field one cell behind and ahead along x, then y
_NEIGHBOURS = (((slice(None, -2), slice(1, -1)), (slice(2, None), slice(1, -1))),
               ((slice(1, -1), slice(None, -2)), (slice(1, -1), slice(2, None))))


def baroclinic_pressure_gradient(P: np.ndarray, g: Grid, axis: int, out=None) -> np.ndarray:
    """Component `axis` (0: x, 1: y) of int_0^z grad T dz', interior-shaped.

    Computed as -grad_h of the hydrostatic integral P of
    :func:`hydrostatic_integral`, whose ghost columns make the centred
    difference valid up to the walls.
    """
    behind, ahead = _NEIGHBOURS[axis]
    out = np.subtract(P[behind], P[ahead], out=out)
    out *= 0.5 / (g.dx, g.dy)[axis]
    return out


def face_velocities(u1p: np.ndarray, u2p: np.ndarray, wp: np.ndarray, g: Grid, out=(None,) * 3):
    """Pre-scaled face velocities U_{i+1/2} = (u_i + u_{i+1}) / (4 d), one array per axis.

    Each array holds the faces between consecutive padded cells along its
    axis (interior in the other two), ghost faces included; `out` may give
    the three arrays to fill.
    """
    ux = np.add(u1p[:-1, 1:-1, 1:-1], u1p[1:, 1:-1, 1:-1], out=out[0])
    ux *= 0.25 / g.dx
    uy = np.add(u2p[1:-1, :-1, 1:-1], u2p[1:-1, 1:, 1:-1], out=out[1])
    uy *= 0.25 / g.dy
    uz = np.add(wp[1:-1, 1:-1, :-1], wp[1:-1, 1:-1, 1:], out=out[2])
    uz *= 0.25 / g.dz
    return ux, uy, uz


def advect_faces(faces, fp: np.ndarray, out=None, buf=None) -> np.ndarray:
    """Skew-symmetric advection 0.5 [ u.grad f + div(u f) ] of the padded field fp (interior out).

    Per axis the centred split form 0.5 [u_i (f_{i+1} - f_{i-1})
    + u_{i+1} f_{i+1} - u_{i-1} f_{i-1}] / (2d) regroups into the face-sum
    form U_{i+1/2} f_{i+1} - U_{i-1/2} f_{i-1} with the faces of
    :func:`face_velocities` (Morinishi et al., J. Comput. Phys. 143, 1998).
    Summed against f, the term U_{i+1/2} f_i f_{i+1} appears once with each
    sign, so <advect_faces(faces, f), f> telescopes to the two wall faces,
    where U vanishes exactly because the advecting normal component is odd
    across the wall (u_ghost = -u).  The result goes to `out`, and `buf`
    (both interior-shaped, allocated when not given) holds each product.
    """
    ux, uy, uz = faces
    out = np.multiply(ux[1:], fp[2:, 1:-1, 1:-1], out=out)
    buf = np.multiply(ux[:-1], fp[:-2, 1:-1, 1:-1], out=buf)
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


def momentum_rhs(s: State, p: PhysParams, g: Grid, faces, P: np.ndarray, axis: int,
                 out=None, buf=None) -> np.ndarray:
    """Explicit tendency of v1 (axis 0) or v2 (axis 1), no L1 v, formed in `out`.

    Needs current ghosts, p_s, the step's faces and the hydrostatic integral
    P of T; `buf` is scratch.  The terms enter in one order: the baroclinic
    gradient, minus the advection, the Coriolis term, minus grad p_s, then
    any body force.
    """
    u, u_across = (s.v1, s.v2) if axis == 0 else (s.v2, s.v1)
    out = advect_faces(faces, u, out, buf)
    buf = baroclinic_pressure_gradient(P, g, axis, buf)
    np.subtract(buf, out, out=out)
    np.multiply(_coriolis_rows(p, g), u_across[INTERIOR], out=buf)
    if axis == 0:
        out += buf
    else:
        out -= buf
    behind, ahead = _NEIGHBOURS[axis]
    # component `axis` of ops.grad_h(p_s), alone
    out -= ((s.p_s[ahead] - s.p_s[behind]) / (2.0 * (g.dx, g.dy)[axis]))[:, :, None]
    if s.body_force is not None:
        out += s.body_force[axis]
    return out


def temperature_rhs(s: State, faces, out=None, buf=None) -> np.ndarray:
    """Explicit temperature tendency dT, no L2 T, formed in `out`; needs current ghosts and the step's faces."""
    dT = advect_faces(faces, s.T, out, buf)
    return np.subtract(s.Q, dT, out=dT)
