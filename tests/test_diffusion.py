import numpy as np
import pytest

from peqlab import PhysParams, make_grid
from peqlab.diffusion import ImplicitDiffusion, tridiag_second_derivative
from peqlab.grid import INTERIOR
from peqlab.oracle import dense_operator_oracle, flatten, helmholtz_apply, unflatten

P = PhysParams(lx=1.0, l=0.8, h=0.6, re1=2.0, re2=0.5, rt1=1.5, rt2=1.1, alpha=0.9)
DT = 0.05


@pytest.fixture(scope="module")
def small_grid():
    return make_grid(P, 6, 6, 6)


@pytest.mark.parametrize("kind,op", [("velocity", "helmholtz_v"), ("temperature", "helmholtz_T")])
def test_eigen_solve_matches_dense(small_grid, kind, op):
    g = small_grid
    rng = np.random.default_rng(1)
    b = rng.standard_normal((g.nx, g.ny, g.nz))
    a = dense_operator_oracle(g, op, P, dt=DT)
    x_dense = unflatten(np.linalg.solve(a, flatten(b)), g)
    x_eigen = ImplicitDiffusion(P, g, DT, kind).solve(b, np.empty_like(b))
    assert x_eigen is b
    assert np.abs(x_eigen - x_dense).max() <= 1e-11 * np.abs(x_dense).max()


@pytest.mark.parametrize("kind,op", [("velocity", "helmholtz_v"), ("temperature", "helmholtz_T")])
def test_eigen_solve_uneven_grid_strided_input(kind, op):
    """Axis lengths all differ, and the input is a contiguous copy of a padded field's interior view."""
    g = make_grid(P, 7, 5, 4)
    padded = np.random.default_rng(2).standard_normal((g.nx + 2, g.ny + 2, g.nz + 2))
    b = padded[INTERIOR]
    assert not b.flags.c_contiguous
    a = dense_operator_oracle(g, op, P, dt=DT)
    x_dense = unflatten(np.linalg.solve(a, flatten(b)), g)
    x_eigen = ImplicitDiffusion(P, g, DT, kind).solve(np.ascontiguousarray(b), np.empty(b.shape))
    assert np.abs(x_eigen - x_dense).max() <= 1e-11 * np.abs(x_dense).max()


@pytest.mark.parametrize("kind,op", [("velocity", "helmholtz_v"), ("temperature", "helmholtz_T")])
def test_helmholtz_apply_matches_dense_matvec(small_grid, kind, op):
    g = small_grid
    rng = np.random.default_rng(3)
    x = rng.standard_normal((g.nx, g.ny, g.nz))
    a = dense_operator_oracle(g, op, P, dt=DT)
    via_matrix = unflatten(a @ flatten(x), g)
    via_stencil = helmholtz_apply(x, P, g, DT, kind)
    assert np.abs(via_matrix - via_stencil).max() <= 1e-13 * np.abs(via_matrix).max()


def test_backward_euler_is_a_contraction(small_grid):
    g = small_grid
    rng = np.random.default_rng(4)
    for kind in ("velocity", "temperature"):
        solver = ImplicitDiffusion(P, g, DT, kind)
        for seed in range(5):
            b = np.random.default_rng(seed).standard_normal((g.nx, g.ny, g.nz))
            x = solver.solve(b.copy(), np.empty_like(b))
            assert np.linalg.norm(x) <= np.linalg.norm(b)


def test_tridiagonal_boundary_rows():
    a = tridiag_second_derivative(5, 0.5, 2.0, -1.0, 1.0)
    w = 2.0 / 0.25
    assert a[0, 0] == pytest.approx(3 * w)   # Dirichlet end
    assert a[-1, -1] == pytest.approx(1 * w)  # Neumann end
    assert a[2, 2] == pytest.approx(2 * w)
    assert np.allclose(a, a.T)
