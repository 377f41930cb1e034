"""Backward-Euler solves for the stiff viscosity/diffusion operators.

The discrete operators are Kronecker sums of 1D symmetric tridiagonal
operators (one per axis, the field's bc.ghost_factors folded into the end
rows), so (I + dt*L) can be inverted exactly through the 1D
eigendecompositions: the fast diagonalisation method of Lynch, Rice &
Thomas (Numer. Math. 6, 1964).  A solve transforms into the eigenbasis one
axis at a time, divides by the Kronecker-sum eigenvalues and transforms
back; each axis transform is one BLAS matrix product over a reshaped view
of the field.  The dense oracle
in oracle.py cross-checks the result in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bc import TEMPERATURE_BC, VELOCITY_BC, ghost_factors
from .grid import Grid
from .params import PhysParams


def tridiag_second_derivative(n: int, d: float, coef: float, gamma_lo: float, gamma_hi: float) -> np.ndarray:
    """Dense 1D operator for -coef * d2/dxi2 with ghost = gamma * adjacent cell."""
    a = np.zeros((n, n))
    idx = np.arange(n)
    a[idx, idx] = 2.0 * coef / d**2
    a[idx[:-1], idx[:-1] + 1] = -coef / d**2
    a[idx[1:], idx[1:] - 1] = -coef / d**2
    a[0, 0] = (2.0 - gamma_lo) * coef / d**2
    a[-1, -1] = (2.0 - gamma_hi) * coef / d**2
    return a


def axis_operators(p: PhysParams, g: Grid, kind: str):
    """The three 1D operators whose Kronecker sum is L1 (velocity) or L2 (temperature)."""
    if kind == "velocity":
        bcs, coefs = VELOCITY_BC, (p.re1, p.re1, p.re2)
    elif kind == "temperature":
        bcs, coefs = TEMPERATURE_BC, (p.rt1, p.rt1, p.rt2)
    else:
        raise ValueError(f"unknown operator kind {kind!r}")
    gamma = ghost_factors(bcs, p, g)
    return tuple(
        tridiag_second_derivative(n, d, 1.0 / c, gamma[2 * axis], gamma[2 * axis + 1])
        for axis, (n, d, c) in enumerate(zip((g.nx, g.ny, g.nz), (g.dx, g.dy, g.dz), coefs))
    )


@dataclass
class ImplicitDiffusion:
    """Cached exact solver for (I + dt*L) u = b on interior fields."""

    p: PhysParams
    g: Grid
    dt: float
    kind: str

    def __post_init__(self):
        ax, ay, az = axis_operators(self.p, self.g, self.kind)
        wx, self.qx = np.linalg.eigh(ax)
        wy, self.qy = np.linalg.eigh(ay)
        wz, self.qz = np.linalg.eigh(az)
        lam = wx[:, None, None] + wy[None, :, None] + wz[None, None, :]
        self.denominator = 1.0 + self.dt * lam

    def solve(self, b: np.ndarray, work: np.ndarray) -> np.ndarray:
        """Overwrite b with (I + dt*L)^-1 b by six products ping-ponging with `work`, both C-contiguous."""
        nx, ny, nz = b.shape
        np.matmul(self.qx.T, b.reshape(nx, ny * nz), out=work.reshape(nx, ny * nz))
        np.matmul(self.qy.T, work, out=b)
        np.matmul(b.reshape(nx * ny, nz), self.qz, out=work.reshape(nx * ny, nz))
        work /= self.denominator
        np.matmul(self.qx, work.reshape(nx, ny * nz), out=b.reshape(nx, ny * nz))
        np.matmul(self.qy, b, out=work)
        np.matmul(work.reshape(nx * ny, nz), self.qz.T, out=b.reshape(nx * ny, nz))
        return b
