"""Backward-Euler solves for the stiff viscosity/diffusion operators.

The discrete operators are Kronecker sums of 1D symmetric tridiagonal
operators (one per axis, boundary closure folded into the end rows), so
(I + dt*L) can be inverted exactly through the 1D eigendecompositions:
the fast diagonalisation method of Lynch, Rice & Thomas (Numer. Math. 6,
1964).  A solve transforms into the eigenbasis one axis at a time, divides
by the Kronecker-sum eigenvalues and transforms back; each axis transform is
one BLAS matrix product over a reshaped view of the field.  The dense oracle
in oracle.py cross-checks the result in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bc import robin_ghost_factor
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
        ax = tridiag_second_derivative(g.nx, g.dx, 1.0 / p.re1, -1.0, -1.0)
        ay = tridiag_second_derivative(g.ny, g.dy, 1.0 / p.re1, -1.0, -1.0)
        az = tridiag_second_derivative(g.nz, g.dz, 1.0 / p.re2, 1.0, 1.0)
    elif kind == "temperature":
        ax = tridiag_second_derivative(g.nx, g.dx, 1.0 / p.rt1, 1.0, 1.0)
        ay = tridiag_second_derivative(g.ny, g.dy, 1.0 / p.rt1, 1.0, 1.0)
        az = tridiag_second_derivative(g.nz, g.dz, 1.0 / p.rt2, 1.0, robin_ghost_factor(p, g))
    else:
        raise ValueError(f"unknown operator kind {kind!r}")
    return ax, ay, az


@dataclass
class ImplicitDiffusion:
    """Cached exact solver for (I + dt*L) u = b on interior fields."""

    p: PhysParams
    g: Grid
    dt: float
    kind: str

    def __post_init__(self):
        ax, ay, az = axis_operators(self.p, self.g, self.kind)
        self.wx, self.qx = np.linalg.eigh(ax)
        self.wy, self.qy = np.linalg.eigh(ay)
        self.wz, self.qz = np.linalg.eigh(az)
        lam = (
            self.wx[:, None, None] + self.wy[None, :, None] + self.wz[None, None, :]
        )
        self.denominator = 1.0 + self.dt * lam

    def solve(self, b: np.ndarray) -> np.ndarray:
        nx, ny, nz = b.shape
        t = (self.qx.T @ b.reshape(nx, ny * nz)).reshape(nx, ny, nz)
        t = np.matmul(self.qy.T, t)
        t = (t.reshape(nx * ny, nz) @ self.qz).reshape(nx, ny, nz)
        t /= self.denominator
        t = (self.qx @ t.reshape(nx, ny * nz)).reshape(nx, ny, nz)
        t = np.matmul(self.qy, t)
        return (t.reshape(nx * ny, nz) @ self.qz.T).reshape(nx, ny, nz)
