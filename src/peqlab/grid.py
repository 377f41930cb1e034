"""Structured collocated mesh over the truncated channel.

All prognostic and diagnosed fields are cell-centered with one ghost layer
per face; an interior array of shape (nx, ny, nz) is stored padded to
(nx+2, ny+2, nz+2).  Index k runs bottom (z just above -h) to top (z just
below 0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .params import PhysParams

#: slice selecting the interior of a ghost-padded 3D array
INTERIOR = np.s_[1:-1, 1:-1, 1:-1]
#: same for a ghost-padded 2D (x, y) array
INTERIOR2D = np.s_[1:-1, 1:-1]


@dataclass(frozen=True)
class Grid:
    nx: int
    ny: int
    nz: int
    lx: float
    l: float
    h: float

    @property
    def dx(self):
        return 2.0 * self.lx / self.nx

    @property
    def dy(self):
        return self.l / self.ny

    @property
    def dz(self):
        return self.h / self.nz

    @property
    def cell_volume(self):
        return self.dx * self.dy * self.dz

    def x(self, i):
        """Cell-center x coordinate of interior index i (0-based)."""
        return -self.lx + (np.asarray(i) + 0.5) * self.dx

    def y(self, j):
        return (np.asarray(j) + 0.5) * self.dy

    def z(self, k):
        return -self.h + (np.asarray(k) + 0.5) * self.dz

    def coords(self):
        """Interior cell-center coordinates as broadcastable 3D arrays."""
        x = self.x(np.arange(self.nx))[:, None, None]
        y = self.y(np.arange(self.ny))[None, :, None]
        z = self.z(np.arange(self.nz))[None, None, :]
        return x, y, z

    def zeros(self):
        """Ghost-padded 3D scalar field initialized to zero."""
        return np.zeros((self.nx + 2, self.ny + 2, self.nz + 2))

    def zeros2d(self):
        return np.zeros((self.nx + 2, self.ny + 2))


def check_counts(nx, ny, nz):
    """Reject cell counts no grid can have: each must be an integer >= 4."""
    for name, n in (("nx", nx), ("ny", ny), ("nz", nz)):
        # n % 1 is nan for nan and inf, so neither passes
        if not (n % 1 == 0 and n >= 4):
            raise ConfigError(f"{name} must be an integer >= 4, got {n!r}")


def make_grid(p: PhysParams, nx: int, ny: int, nz: int) -> Grid:
    """Build the collocated mesh; rejects degenerate cell counts."""
    check_counts(nx, ny, nz)
    # PhysParams has checked that lx, l and h are positive
    return Grid(nx=int(nx), ny=int(ny), nz=int(nz), lx=p.lx, l=p.l, h=p.h)
