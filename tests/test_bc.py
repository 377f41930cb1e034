import numpy as np
import pytest

from peqlab import PhysParams, make_grid
from peqlab.bc import (
    SURFACE_PRESSURE_BC,
    TEMPERATURE_BC,
    VELOCITY_BC,
    W_BC,
    BcKind,
    FieldBcs,
    fill_ghosts,
    ghost_factors,
    robin_ghost_factor,
)
from peqlab.grid import INTERIOR


@pytest.fixture
def setup():
    p = PhysParams(lx=1.0, l=1.0, h=1.0, alpha=0.7, rt2=1.3)
    g = make_grid(p, 6, 5, 4)
    return p, g


def test_zero_field_all_kinds(setup):
    p, g = setup
    for bcs in (VELOCITY_BC, TEMPERATURE_BC, W_BC):
        f = g.zeros()
        fill_ghosts(f, bcs, p, g)
        assert np.all(f == 0.0)


def test_dirichlet_reflection(setup):
    p, g = setup
    f = g.zeros()
    f[INTERIOR] = 1.0
    fill_ghosts(f, VELOCITY_BC, p, g)
    assert np.all(f[:, 0, 1:-1][1:-1] == -1.0)
    assert np.all(f[0, 1:-1, 1:-1] == -1.0)
    # stress-free top/bottom mirror
    assert np.all(f[1:-1, 1:-1, 0] == 1.0)
    assert np.all(f[1:-1, 1:-1, -1] == 1.0)


def test_robin_ghost_reproduces_analytic_extension(setup):
    """T(z) = 1 - alpha*rt2*z satisfies (1/rt2) dT/dz + alpha T = 0 at z=0."""
    p, g = setup
    f = g.zeros()
    zc = g.z(np.arange(g.nz))
    profile = 1.0 - p.alpha * p.rt2 * zc
    f[INTERIOR] = profile[None, None, :]
    fill_ghosts(f, TEMPERATURE_BC, p, g)
    z_ghost = -p.h + (g.nz + 0.5) * g.dz
    expected = 1.0 - p.alpha * p.rt2 * z_ghost
    got = f[1:-1, 1:-1, -1]
    assert np.abs(got - expected).max() <= 1e-12 * abs(expected)


def test_robin_factor_matches_half_cell_realization(setup):
    p, g = setup
    c = 0.5 * p.alpha * p.rt2 * g.dz
    assert robin_ghost_factor(p, g) == pytest.approx((1 - c) / (1 + c), rel=1e-15)


def test_fill_twice_idempotent(setup):
    p, g = setup
    rng = np.random.default_rng(7)
    for bcs in (VELOCITY_BC, TEMPERATURE_BC, W_BC):
        f = g.zeros()
        f[...] = rng.standard_normal(f.shape)  # garbage ghosts on purpose
        once = fill_ghosts(f.copy(), bcs, p, g)
        twice = fill_ghosts(once.copy(), bcs, p, g)
        assert np.array_equal(once, twice)


def test_unknown_kind_rejected(setup):
    p, g = setup
    bad = FieldBcs(
        BcKind.ROBIN_TOP, BcKind.NEUMANN, BcKind.NEUMANN,
        BcKind.NEUMANN, BcKind.NEUMANN, BcKind.NEUMANN,
    )
    f = g.zeros()
    with pytest.raises(ValueError):
        fill_ghosts(f, bad, p, g)


def test_ghost_factor_table(setup):
    p, g = setup
    gamma = robin_ghost_factor(p, g)
    assert ghost_factors(VELOCITY_BC, p, g) == (-1.0, -1.0, -1.0, -1.0, 1.0, 1.0)
    assert ghost_factors(TEMPERATURE_BC, p, g) == (1.0, 1.0, 1.0, 1.0, 1.0, gamma)
    assert ghost_factors(W_BC, p, g) == (1.0, 1.0, 1.0, 1.0, -1.0, -1.0)


def test_fill_reads_each_grids_own_robin_factor():
    """Fills on many short-lived grids, interleaved and past any cache bound, each use
    the Robin factor of their own grid and params."""
    rng = np.random.default_rng(7)
    for _ in range(3):
        for nz in range(4, 84):
            p = PhysParams(alpha=0.5 + 0.01 * nz, rt2=1.3)
            g = make_grid(p, 4, 4, nz)
            f = rng.standard_normal(g.zeros().shape)
            fill_ghosts(f, TEMPERATURE_BC, p, g)
            assert np.array_equal(f[:, :, -1], robin_ghost_factor(p, g) * f[:, :, -2])


@pytest.mark.parametrize("bcs", [VELOCITY_BC, TEMPERATURE_BC, W_BC, SURFACE_PRESSURE_BC])
def test_3d_fill_matches_2d_fill_per_layer(setup, bcs):
    """One fill path for both ranks: each z-layer's x/y faces get the 2D fill."""
    p, g = setup
    f = np.random.default_rng(3).standard_normal(g.zeros().shape)
    filled = fill_ghosts(f.copy(), bcs, p, g)
    for k in range(1, g.nz + 1):
        layer = fill_ghosts(f[:, :, k].copy(), bcs, p, g)
        assert np.array_equal(filled[:, :, k], layer)


def test_other_ranks_rejected(setup):
    p, g = setup
    for shape in ((g.nx + 2,), (g.nx + 2, g.ny + 2, g.nz + 2, 2)):
        with pytest.raises(ValueError, match="2D or 3D"):
            fill_ghosts(np.zeros(shape), VELOCITY_BC, p, g)
