import numpy as np
import pytest

from peqlab import PhysParams, State, make_grid
from peqlab import operators as ops
from peqlab.bc import SURFACE_PRESSURE_BC, VELOCITY_BC, fill_ghosts
from peqlab.grid import INTERIOR, INTERIOR2D
from peqlab.projection import (
    centered_gradient_matrix,
    constraint_residual,
    depth_mean,
    depth_mean_divergence,
    project,
    solve_surface_pressure,
)

P = PhysParams(lx=1.0, l=1.0, h=1.0)
DT = 0.02


def padded2d(g, interior, bcs, p=P):
    f = g.zeros2d()
    f[INTERIOR2D] = interior
    return fill_ghosts(f, bcs, p, g)


def test_divergence_free_input_gives_zero():
    g = make_grid(P, 16, 16, 4)
    x, y = g.coords2d()
    # stream-function velocity: (psi_y, -psi_x) is exactly div-free for the
    # centered stencils only up to commutation, so use zero velocity instead
    v1 = padded2d(g, np.zeros((g.nx, g.ny)), VELOCITY_BC)
    v2 = padded2d(g, np.zeros((g.nx, g.ny)), VELOCITY_BC)
    phi = solve_surface_pressure((v1, v2), DT, g)
    assert np.abs(phi).max() <= 1e-14


def test_manufactured_gradient_recovered():
    """vbar* built as grad of a known psi: the solve returns psi/dt (zero mean)."""
    g = make_grid(P, 24, 20, 4)
    x, y = g.coords2d()
    psi = np.cos(np.pi * x / P.lx) * np.cos(np.pi * y / P.l)
    psi_pad = padded2d(g, psi, SURFACE_PRESSURE_BC)
    gx, gy = ops.grad_h(psi_pad, g)
    v1 = padded2d(g, gx, VELOCITY_BC)
    v2 = padded2d(g, gy, VELOCITY_BC)
    # the discrete operator sees exactly div(grad psi), so recovery is exact
    # apart from the wall ghosts of v differing from grad(psi)'s extension
    phi = solve_surface_pressure((v1, v2), DT, g)
    target = (psi - psi.mean()) / DT
    err = np.abs(phi - target).max() / np.abs(target).max()
    assert err <= 0.08  # wall-ring closure difference, shrinks with resolution


def test_random_field_projection_residual():
    g = make_grid(P, 32, 32, 4)
    rng = np.random.default_rng(0)
    s = State.zeros(g)
    s.v1[INTERIOR] = rng.standard_normal((g.nx, g.ny, g.nz))
    s.v2[INTERIOR] = rng.standard_normal((g.nx, g.ny, g.nz))
    s.fill_all_ghosts(P, g)
    before = np.abs(depth_mean_divergence(s.v1, s.v2, g)).max()
    project(s, DT, P, g)
    after = np.abs(depth_mean_divergence(s.v1, s.v2, g)).max()
    assert after <= 1e-8 * np.abs(s.v1).max() / g.dx
    assert after <= 1e-6 * before  # at least six orders of magnitude


def test_projection_idempotent_and_preserves_fluctuation():
    g = make_grid(P, 16, 12, 8)
    rng = np.random.default_rng(1)
    s = State.zeros(g)
    s.v1[INTERIOR] = rng.standard_normal((g.nx, g.ny, g.nz))
    s.v2[INTERIOR] = rng.standard_normal((g.nx, g.ny, g.nz))
    s.fill_all_ghosts(P, g)
    tilde1_before = s.v1[INTERIOR] - depth_mean(s.v1, P, g)[INTERIOR2D][:, :, None]
    project(s, DT, P, g)
    tilde1_after = s.v1[INTERIOR] - depth_mean(s.v1, P, g)[INTERIOR2D][:, :, None]
    scale = np.abs(s.v1).max()
    assert np.abs(tilde1_after - tilde1_before).max() <= 1e-12 * scale

    # second projection changes nothing beyond solver roundoff
    v1_once = s.v1.copy()
    project(s, DT, P, g)
    assert np.abs(s.v1 - v1_once).max() <= 1e-12 * scale


def test_depth_mean_reads_the_interior_only():
    # inside a step the velocity ghosts are stale when the projection runs
    g = make_grid(P, 7, 5, 4)
    rng = np.random.default_rng(5)
    v = fill_ghosts(rng.standard_normal(g.zeros().shape), VELOCITY_BC, P, g)
    stale = rng.standard_normal(v.shape)
    stale[INTERIOR] = v[INTERIOR]
    bar = depth_mean(v, P, g)
    assert np.array_equal(depth_mean(stale, P, g), bar)
    assert np.array_equal(bar[INTERIOR2D], v[INTERIOR].mean(axis=2))
    assert np.array_equal(bar, fill_ghosts(bar.copy(), VELOCITY_BC, P, g))


def test_depth_independent_gradient_projected_to_zero():
    g = make_grid(P, 16, 16, 4)
    x, y = g.coords2d()
    psi = np.cos(np.pi * x / P.lx) * np.cos(np.pi * y / P.l)
    psi_pad = padded2d(g, psi, SURFACE_PRESSURE_BC)
    gx, gy = ops.grad_h(psi_pad, g)
    s = State.zeros(g)
    s.v1[INTERIOR] = gx[:, :, None] * np.ones(g.nz)
    s.v2[INTERIOR] = gy[:, :, None] * np.ones(g.nz)
    s.fill_all_ghosts(P, g)
    scale = np.abs(s.v1).max()
    project(s, DT, P, g)
    # a pure (discrete) gradient is annihilated up to the wall-ring closure
    assert np.abs(s.v1[INTERIOR]).max() <= 0.1 * scale
    assert np.abs(depth_mean_divergence(s.v1, s.v2, g)).max() <= 1e-10


def test_neumann_compatibility_of_rhs():
    g = make_grid(P, 12, 10, 4)
    rng = np.random.default_rng(2)
    v1 = padded2d(g, rng.standard_normal((g.nx, g.ny)), VELOCITY_BC)
    v2 = padded2d(g, rng.standard_normal((g.nx, g.ny)), VELOCITY_BC)
    div = ops.div_h(v1, v2, g)
    total = abs(ops.pairwise_sum(div)) * g.dx * g.dy
    assert total <= 1e-12 * np.abs(div).max()


def test_direct_solve_residual_at_128x64():
    """The eigen solve meets the composite operator to rounding at 128x64.

    The residual applies the two 1D factors from either side, with no
    assembled 2D matrix and none of the eigendecompositions the solve uses.
    """
    g = make_grid(P, 128, 64, 4)
    rng = np.random.default_rng(3)
    v1 = padded2d(g, rng.standard_normal((g.nx, g.ny)), VELOCITY_BC)
    v2 = padded2d(g, rng.standard_normal((g.nx, g.ny)), VELOCITY_BC)
    phi = solve_surface_pressure((v1, v2), DT, g)
    gx = centered_gradient_matrix(g.nx, g.dx)
    gy = centered_gradient_matrix(g.ny, g.dy)
    rhs = ops.div_h(v1, v2, g) / DT
    target = -(rhs - rhs.mean())
    residual = (gx.T @ gx) @ phi + phi @ (gy.T @ gy).T - target
    assert np.abs(residual).max() <= 1e-10 * np.abs(target).max()
    assert abs(phi.mean()) <= 1e-14 * np.abs(phi).max()


def test_zero_velocity_zero_residual():
    g = make_grid(P, 8, 8, 4)
    s = State.zeros(g).fill_all_ghosts(P, g)
    assert constraint_residual(s.v1, s.v2, g) == 0.0


def test_surface_w_vanishes_once_constrained():
    """The diagnosed w at the surface face is -h times the depth-mean
    divergence, so projecting drives it to the constraint tolerance."""
    from peqlab import operators as ops
    from peqlab.model import diagnose_w

    g = make_grid(P, 16, 12, 8)
    rng = np.random.default_rng(5)
    s = State.zeros(g)
    s.v1[INTERIOR] = rng.standard_normal((g.nx, g.ny, g.nz))
    s.v2[INTERIOR] = rng.standard_normal((g.nx, g.ny, g.nz))
    s.fill_all_ghosts(P, g)
    project(s, DT, P, g)
    div = ops.div_h(s.v1, s.v2, g)
    w = diagnose_w(s.v1, s.v2, g)
    w_surface = w[:, :, -1] - 0.5 * g.dz * div[:, :, -1]  # continue the quadrature to z=0
    scale = np.abs(s.v1).max() / g.dx
    assert np.abs(w_surface).max() <= 1e-8 * P.h * scale
