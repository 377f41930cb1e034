"""Surface-pressure Poisson solve and barotropic projection.

The depth-integrated incompressibility constraint div_h(vbar) = 0 is
enforced by a pressure-correction step: solve

    div_h(grad_h(phi)) = div_h(vbar*) / dt

with mirror (Neumann) closure on phi and the odd (Dirichlet) wall closure on
the corrected velocity, then subtract dt * grad_h(phi) at every depth.  The
composite operator is the Kronecker sum of 1D factors -Gx^T Gx and -Gy^T Gy
whose only null vector is the constant, so the zero-mean gauge falls out of
dropping that single mode.  Every grid size uses the exact eigen-tensor
solve: two small eigendecompositions, cached per grid, and four matrix
products per solve.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import operators as ops
from .bc import SURFACE_PRESSURE_BC, VELOCITY_BC, fill_ghosts
from .grid import INTERIOR, INTERIOR2D, Grid
from .params import PhysParams


def centered_gradient_matrix(n: int, d: float) -> np.ndarray:
    """1D centered difference with mirror end closure (acts on phi)."""
    m = np.eye(n, k=1) - np.eye(n, k=-1)
    m[0, 0], m[-1, -1] = -1.0, 1.0  # phi_ghost = phi_adjacent
    return m / (2.0 * d)


@lru_cache(maxsize=8)
def _poisson_factors(g: Grid):
    gx = centered_gradient_matrix(g.nx, g.dx)
    gy = centered_gradient_matrix(g.ny, g.dy)
    wx, qx = np.linalg.eigh(gx.T @ gx)
    wy, qy = np.linalg.eigh(gy.T @ gy)
    lam = wx[:, None] + wy[None, :]
    scale = lam.max()
    null = lam < 1e-12 * scale
    return qx, qy, lam, null


def solve_surface_pressure(vbar_star, dt: float, g: Grid) -> np.ndarray:
    """Pressure increment phi from the padded depth-mean predictor velocity.

    Returns the interior 2D field with zero mean; the Neumann problem's
    right-hand side is compatible by construction (wall-normal velocity
    ghosts are odd, so the discrete divergence integrates to rounding).
    """
    v1bar_p, v2bar_p = vbar_star
    rhs = ops.div_h(v1bar_p, v2bar_p, g) / dt
    qx, qy, lam, null = _poisson_factors(g)
    r = qx.T @ (-rhs) @ qy
    r = np.where(null, 0.0, r / np.where(null, 1.0, lam))
    phi = qx @ r @ qy.T
    return phi - phi.mean()


def depth_mean(vp: np.ndarray, p: PhysParams, g: Grid) -> np.ndarray:
    """Depth mean of a padded velocity component, padded with the wall closure.

    The trapezoid rule with stress-free mirrored faces collapses to uniform
    weights, so the split into mean and fluctuation is an exact projection.
    Only the interior layers of vp are read; its ghosts may be stale.
    """
    bar = g.zeros2d()
    bar[INTERIOR2D] = vp[INTERIOR].mean(axis=2)
    return fill_ghosts(bar, VELOCITY_BC, p, g)


def constraint_residual(vbar1: np.ndarray, vbar2: np.ndarray, v1p: np.ndarray, v2p: np.ndarray,
                        g: Grid) -> float:
    """Peak div_h of the padded depth means relative to the advective velocity scale.

    vbar1, vbar2 come from :func:`depth_mean`; of the padded velocity v1p,
    v2p only the interior is read, for the scale.
    """
    div = ops.div_h(vbar1, vbar2, g)
    scale = ops.max_abs(v1p[INTERIOR]) / g.dx + ops.max_abs(v2p[INTERIOR]) / g.dy
    peak = ops.max_abs(div)
    if scale == 0.0:
        return 0.0 if peak == 0.0 else float("inf")
    return peak / float(scale)


def project(s, dt: float, p: PhysParams, g: Grid) -> None:
    """Project the state's velocity onto the constraint in place, by the pressure increment phi.

    The correction -dt * grad_h(phi) is depth-independent, so the baroclinic
    part of the velocity is untouched; p_s accumulates phi and keeps its zero
    mean.  Ghosts of the modified fields are refreshed.
    """
    phi = solve_surface_pressure((depth_mean(s.v1, p, g), depth_mean(s.v2, p, g)), dt, g)

    pad = g.zeros2d()
    pad[INTERIOR2D] = phi
    fill_ghosts(pad, SURFACE_PRESSURE_BC, p, g)
    gx, gy = ops.grad_h(pad, g)
    s.v1[1:-1, 1:-1, 1:-1] -= dt * gx[:, :, None]
    s.v2[1:-1, 1:-1, 1:-1] -= dt * gy[:, :, None]
    s.p_s[INTERIOR2D] += phi
    s.p_s[INTERIOR2D] -= s.p_s[INTERIOR2D].mean()
    fill_ghosts(s.v1, VELOCITY_BC, p, g)
    fill_ghosts(s.v2, VELOCITY_BC, p, g)
    fill_ghosts(s.p_s, SURFACE_PRESSURE_BC, p, g)
