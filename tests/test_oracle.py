import numpy as np
import pytest

from peqlab import PhysParams, make_grid
from peqlab.bc import TEMPERATURE_BC, VELOCITY_BC, fill_ghosts
from peqlab.grid import INTERIOR
from peqlab.oracle import (
    apply_L1,
    apply_L2,
    dense_operator_oracle,
    flatten,
    unflatten,
)

P = PhysParams(lx=1.0, l=0.8, h=0.6, re1=2.0, re2=0.5, rt1=1.5, rt2=1.1, alpha=0.9)


def stencil_apply(op, g, bcs, x):
    pad = g.zeros()
    pad[INTERIOR] = x
    fill_ghosts(pad, bcs, P, g)
    return op(pad, P, g)


@pytest.mark.parametrize("op,bcs,fn", [
    ("L1", VELOCITY_BC, apply_L1),
    ("L2", TEMPERATURE_BC, apply_L2),
])
@pytest.mark.parametrize("n", [6, 8])
def test_dense_matches_stencil(op, bcs, fn, n):
    g = make_grid(P, n, n, n)
    a = dense_operator_oracle(g, op, P)
    rng = np.random.default_rng(n)
    x = rng.standard_normal((n, n, n))
    via_matrix = unflatten(a @ flatten(x), g)
    via_stencil = stencil_apply(fn, g, bcs, x)
    scale = np.abs(via_matrix).max()
    assert np.abs(via_matrix - via_stencil).max() <= 1e-13 * scale


def test_diffusion_matrices_symmetric_psd():
    g = make_grid(P, 8, 8, 8)  # 512 unknowns
    for op, strict in (("L1", True), ("L2", True)):
        a = dense_operator_oracle(g, op, P)
        assert np.abs(a - a.T).max() <= 1e-12 * np.abs(a).max()
        eig = np.linalg.eigvalsh(a)
        assert eig.min() >= -1e-12 * eig.max()
        if strict:
            # Dirichlet walls (L1) and the Robin surface row (L2) pin the constant
            assert eig.min() > 0.0


def test_size_cap_enforced():
    g = make_grid(PhysParams(), 17, 16, 16)
    with pytest.raises(ValueError, match="cap"):
        dense_operator_oracle(g, "L1", PhysParams())


def test_helmholtz_oracle_contains_identity():
    g = make_grid(P, 4, 4, 4)
    dt = 0.07
    a = dense_operator_oracle(g, "helmholtz_T", P, dt=dt)
    l2 = dense_operator_oracle(g, "L2", P)
    assert np.allclose(a, np.eye(64) + dt * l2)
