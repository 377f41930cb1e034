"""Ghost-layer boundary conditions.

Each prognostic field assigns one condition kind per face.  Ghost values are
set so the centered two-point formula across the face realizes the condition
to second order:

  DIRICHLET   ghost = -interior      (field vanishes at the face)
  NEUMANN     ghost = +interior      (normal derivative vanishes)
  ROBIN_TOP   ghost = interior * (1 - c) / (1 + c),  c = alpha*rt2*dz/2
              realizing (1/rt2) dT/dz + alpha T = 0 at the surface z = 0

Velocity walls are Dirichlet in y (channel walls) and in x (truncation);
tops and bottoms are stress-free (Neumann).  Temperature is insulated on
every face except the surface Robin exchange.  The diagnosed vertical
velocity vanishes at top and bottom faces, hence Dirichlet in z.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .grid import Grid
from .params import PhysParams


class BcKind(enum.Enum):
    DIRICHLET = "dirichlet"
    NEUMANN = "neumann"
    ROBIN_TOP = "robin_top"


@dataclass(frozen=True)
class FieldBcs:
    """Condition kind per face: (xlo, xhi, ylo, yhi, zlo, zhi)."""

    xlo: BcKind
    xhi: BcKind
    ylo: BcKind
    yhi: BcKind
    zlo: BcKind
    zhi: BcKind


VELOCITY_BC = FieldBcs(
    BcKind.DIRICHLET, BcKind.DIRICHLET,
    BcKind.DIRICHLET, BcKind.DIRICHLET,
    BcKind.NEUMANN, BcKind.NEUMANN,
)

TEMPERATURE_BC = FieldBcs(
    BcKind.NEUMANN, BcKind.NEUMANN,
    BcKind.NEUMANN, BcKind.NEUMANN,
    BcKind.NEUMANN, BcKind.ROBIN_TOP,
)

# w = 0 on top and bottom faces; lateral ghosts are never differenced but
# are mirrored so the array stays fully populated.
W_BC = FieldBcs(
    BcKind.NEUMANN, BcKind.NEUMANN,
    BcKind.NEUMANN, BcKind.NEUMANN,
    BcKind.DIRICHLET, BcKind.DIRICHLET,
)

SURFACE_PRESSURE_BC = FieldBcs(
    BcKind.NEUMANN, BcKind.NEUMANN,
    BcKind.NEUMANN, BcKind.NEUMANN,
    BcKind.NEUMANN, BcKind.NEUMANN,
)


def robin_ghost_factor(p: PhysParams, g: Grid) -> float:
    """Multiplier gamma with ghost = gamma * interior for the surface Robin row."""
    c = 0.5 * p.alpha * p.rt2 * g.dz
    return (1.0 - c) / (1.0 + c)


@lru_cache(maxsize=64)
def ghost_factors(bcs: FieldBcs, p: PhysParams, g: Grid) -> tuple:
    """Mirror multiplier gamma (ghost = gamma * adjacent interior) per face.

    The one home of the boundary closures: the ghost fills and the end rows
    of the implicit diffusion operators both read it.  Faces come in
    FieldBcs order (xlo, xhi, ylo, yhi, zlo, zhi).
    """
    kinds = [getattr(bcs, face.name) for face in fields(bcs)]
    if BcKind.ROBIN_TOP in kinds[:-1]:
        raise ValueError("ROBIN_TOP applies to the top z face only")
    gamma = {BcKind.DIRICHLET: -1.0, BcKind.NEUMANN: 1.0, BcKind.ROBIN_TOP: robin_ghost_factor(p, g)}
    return tuple(gamma[kind] for kind in kinds)


#: (ghost, adjacent interior) planes of a padded field per face, in FieldBcs
#: order; a 2D (x, y) field takes the first four
_FACES = tuple(((slice(None),) * axis + (ghost,), (slice(None),) * axis + (inner,))
               for axis in range(3) for ghost, inner in ((0, 1), (-1, -2)))


def fill_ghosts(field: np.ndarray, bcs: FieldBcs, p: PhysParams, g: Grid) -> np.ndarray:
    """Populate ghost layers of a padded 2D or 3D field in place; returns the field.

    Faces are processed x, then y, then z, each writing its whole ghost
    plane, so one pass leaves every edge and corner consistent and a second
    pass reproduces the same values.
    """
    if field.ndim not in (2, 3):
        raise ValueError("fill_ghosts expects a 2D or 3D padded field")
    for (ghost, inner), gamma in zip(_FACES[:2 * field.ndim], ghost_factors(bcs, p, g)):
        field[ghost] = gamma * field[inner]
    return field
