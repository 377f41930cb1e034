import numpy as np
import pytest

from peqlab import PhysParams, make_grid
from peqlab import operators as ops
from peqlab.bc import SURFACE_PRESSURE_BC, VELOCITY_BC, fill_ghosts
from peqlab.grid import INTERIOR, INTERIOR2D
from peqlab.projection import depth_mean


def padded(g, values):
    f = g.zeros()
    f[INTERIOR] = values
    return f


def test_constant_field_zero_derivatives():
    p = PhysParams()
    g = make_grid(p, 6, 6, 6)
    f = padded(g, 3.5)
    fill_ghosts(f, SURFACE_PRESSURE_BC, p, g)  # mirror everywhere
    fx, fy = ops.grad_h(f, g)
    assert np.abs(fx).max() == 0.0 and np.abs(fy).max() == 0.0
    assert np.abs(ops.lap_h(f, g)).max() == 0.0
    assert np.abs(ops.d_dz(f, g)).max() == 0.0
    assert np.abs(ops.d2_dz2(f, g)).max() == 0.0


def test_linear_in_x_exact_gradient():
    p = PhysParams(lx=1.0)
    g = make_grid(p, 8, 6, 4)
    x, y, z = g.coords()
    f = padded(g, x + 0 * y + 0 * z)
    # interior-only check: skip the stencil ring touching ghosts
    fx, _ = ops.grad_h(f, g)
    assert np.abs(fx[1:-1] - 1.0).max() < 1e-13


def vertical_average(f, g):
    """Depth mean (through projection.depth_mean) and fluctuation of an interior field."""
    fbar = depth_mean(padded(g, f), PhysParams(), g)[INTERIOR2D]
    return fbar, f - fbar[:, :, None]


def _two_grid_order(op_error, sizes=(16, 32)):
    errs = []
    for n in sizes:
        errs.append(op_error(n))
    return np.log(errs[0] / errs[1]) / np.log(2.0)


@pytest.mark.parametrize("which", ["gradx", "grady", "lap", "dz", "dzz"])
def test_sin_product_order_two(which):
    p = PhysParams(lx=1.0, l=1.0, h=1.0)

    def err(n):
        g = make_grid(p, n, n, n)
        x, y, z = g.coords()
        f = padded(g, np.sin(np.pi * x / p.lx) * np.sin(np.pi * y / p.l) * np.sin(np.pi * z / p.h))
        # analytic ghosts so only the stencil error is measured
        X = g.x(np.arange(-1, g.nx + 1))[:, None, None]
        Y = g.y(np.arange(-1, g.ny + 1))[None, :, None]
        Z = g.z(np.arange(-1, g.nz + 1))[None, None, :]
        f[...] = np.sin(np.pi * X / p.lx) * np.sin(np.pi * Y / p.l) * np.sin(np.pi * Z / p.h)
        sx = np.sin(np.pi * x / p.lx); cx = np.cos(np.pi * x / p.lx)
        sy = np.sin(np.pi * y / p.l); cy = np.cos(np.pi * y / p.l)
        sz = np.sin(np.pi * z / p.h); cz = np.cos(np.pi * z / p.h)
        if which == "gradx":
            got = ops.grad_h(f, g)[0]
            exact = (np.pi / p.lx) * cx * sy * sz
        elif which == "grady":
            got = ops.grad_h(f, g)[1]
            exact = (np.pi / p.l) * sx * cy * sz
        elif which == "lap":
            got = ops.lap_h(f, g)
            exact = -((np.pi / p.lx) ** 2 + (np.pi / p.l) ** 2) * sx * sy * sz
        elif which == "dz":
            got = ops.d_dz(f, g)
            exact = (np.pi / p.h) * sx * sy * cz
        else:
            got = ops.d2_dz2(f, g)
            exact = -((np.pi / p.h) ** 2) * sx * sy * sz
        return np.abs(got - exact).max()

    order = _two_grid_order(err)
    assert 1.8 <= order <= 2.2


def test_vertical_average_z_independent():
    g = make_grid(PhysParams(), 4, 4, 8)
    f = np.broadcast_to(np.arange(16.0).reshape(4, 4, 1), (4, 4, 8)).copy()
    fbar, ftil = vertical_average(f, g)
    assert np.array_equal(fbar, f[:, :, 0])
    assert np.abs(ftil).max() == 0.0


def test_vertical_average_odd_linear_profile():
    p = PhysParams(h=1.0)
    g = make_grid(p, 4, 4, 16)
    _, _, z = g.coords()
    f = (z + p.h / 2) * np.ones((g.nx, g.ny, g.nz))
    fbar, _ = vertical_average(f, g)
    assert np.abs(fbar).max() < 1e-14


def test_vertical_average_projection_and_fluctuation():
    g = make_grid(PhysParams(), 6, 5, 12)
    rng = np.random.default_rng(3)
    f = rng.standard_normal((g.nx, g.ny, g.nz))
    fbar, ftil = vertical_average(f, g)
    # fluctuation depth-averages to zero
    assert np.abs(ftil.mean(axis=2)).max() <= 1e-12 * np.abs(f).max()
    # averaging the constant-in-z extension of fbar returns fbar (machine precision)
    ext = np.repeat(fbar[:, :, None], g.nz, axis=2)
    fbar2, _ = vertical_average(ext, g)
    assert np.abs(fbar2 - fbar).max() <= 4 * np.finfo(float).eps * np.abs(fbar).max()


def test_vertical_average_projection_bitwise_power_of_two():
    # with nz a power of two the mean of identical layers is exact in floats
    g = make_grid(PhysParams(), 6, 5, 16)
    rng = np.random.default_rng(4)
    fbar = rng.standard_normal((g.nx, g.ny))
    ext = np.repeat(fbar[:, :, None], g.nz, axis=2)
    fbar2, ftil = vertical_average(ext, g)
    assert np.array_equal(fbar, fbar2)
    assert np.abs(ftil).max() == 0.0


def test_integration_by_parts_duality():
    """<div_h(u), phi> = -<u, grad_h(phi)> with odd u ghosts and mirror phi ghosts."""
    p = PhysParams(lx=1.3, l=0.9, h=0.7)
    g = make_grid(p, 9, 7, 5)
    rng = np.random.default_rng(11)
    u1 = padded(g, rng.standard_normal((g.nx, g.ny, g.nz)))
    u2 = padded(g, rng.standard_normal((g.nx, g.ny, g.nz)))
    phi = padded(g, rng.standard_normal((g.nx, g.ny, g.nz)))
    fill_ghosts(u1, VELOCITY_BC, p, g)
    fill_ghosts(u2, VELOCITY_BC, p, g)
    fill_ghosts(phi, SURFACE_PRESSURE_BC, p, g)
    lhs = ops.pairwise_sum(ops.div_h(u1, u2, g) * phi[INTERIOR])
    gx, gy = ops.grad_h(phi, g)
    rhs = -(ops.pairwise_sum(u1[INTERIOR] * gx) + ops.pairwise_sum(u2[INTERIOR] * gy))
    scale = max(abs(lhs), abs(rhs), 1.0)
    assert abs(lhs - rhs) <= 1e-12 * scale


def test_integrate_from_bottom_constant():
    p = PhysParams(h=1.0)
    g = make_grid(p, 4, 4, 8)
    _, _, z = g.coords()
    f = np.ones((4, 4, 8))
    got = ops.integrate_from_bottom(f, g)
    assert np.abs(got - (z + p.h)).max() < 1e-14


def test_integrate_from_top_linear_exact():
    p = PhysParams(h=1.0)
    g = make_grid(p, 4, 4, 8)
    _, _, z = g.coords()
    zf = z * np.ones((4, 4, 8))
    got = ops.integrate_from_top(zf, g)
    assert np.abs(got - (-(z**2) / 2.0)).max() < 1e-14


def test_vertical_quadratures_match_trapezoid_loop():
    p = PhysParams(h=0.7)
    g = make_grid(p, 5, 4, 7)
    f = np.random.default_rng(3).standard_normal((7, 6, g.nz))  # lateral ghosts included
    dz = g.dz
    bottom = np.empty_like(f)
    top = np.empty_like(f)
    for i in range(f.shape[0]):
        for j in range(f.shape[1]):
            col = f[i, j]
            acc = 0.5 * dz * col[0]  # mirrored bottom face
            bottom[i, j, 0] = acc
            for k in range(1, g.nz):
                acc += 0.5 * dz * (col[k - 1] + col[k])
                bottom[i, j, k] = acc
            acc = dz * (5.0 * col[-1] - col[-2]) / 8.0  # extrapolated surface face
            top[i, j, -1] = acc
            for k in range(g.nz - 2, -1, -1):
                acc += 0.5 * dz * (col[k] + col[k + 1])
                top[i, j, k] = acc
    for got, ref in ((ops.integrate_from_bottom(f, g), bottom), (ops.integrate_from_top(f, g), top)):
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


def test_pairwise_sum_matches_math_fsum():
    import math

    rng = np.random.default_rng(5)
    a = rng.standard_normal(10001) * 1e3
    assert ops.pairwise_sum(a) == pytest.approx(math.fsum(a), rel=1e-13)


def test_pairwise_sum_deterministic_shape_only():
    a = np.arange(1025, dtype=float) * 1e-3
    assert ops.pairwise_sum(a) == ops.pairwise_sum(a.copy())


def test_lateral_stencils_one_path_for_both_ranks():
    """A 3D field's lateral stencils equal the 2D ones on each z-layer, bitwise."""
    p = PhysParams(lx=1.3, l=0.7)
    g = make_grid(p, 7, 5, 4)
    rng = np.random.default_rng(11)
    f, u, v = (rng.standard_normal(g.zeros().shape) for _ in range(3))
    fx, fy = ops.grad_h(f, g)
    div = ops.div_h(u, v, g)
    lap = ops.lap_h(f, g)
    for k in range(1, g.nz + 1):
        fx2, fy2 = ops.grad_h(f[:, :, k], g)
        assert np.array_equal(fx[:, :, k - 1], fx2)
        assert np.array_equal(fy[:, :, k - 1], fy2)
        assert np.array_equal(div[:, :, k - 1], ops.div_h(u[:, :, k], v[:, :, k], g))
        assert np.array_equal(lap[:, :, k - 1], ops.lap_h(f[:, :, k], g))
