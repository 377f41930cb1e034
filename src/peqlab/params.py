"""Physical and model constants for the hydrostatic channel model.

The model lives on a channel truncated in x: (-lx, lx) x (0, l) x (-h, 0).
Horizontal momentum diffuses with coefficient 1/re1, vertical with 1/re2;
temperature diffuses with 1/rt1 and 1/rt2.  The Coriolis parameter is
f0 + beta*y on a beta-plane, scaled by the Rossby number ro.  alpha is the
surface heat-exchange coefficient of the Robin condition at z = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import ConfigError


@dataclass(frozen=True)
class PhysParams:
    re1: float = 1.0
    re2: float = 1.0
    rt1: float = 1.0
    rt2: float = 1.0
    ro: float = 1.0
    f0: float = 1.0
    beta: float = 0.5
    alpha: float = 2.0
    h: float = 0.5
    l: float = 1.0
    lx: float = 2.0

    _POSITIVE = ("re1", "re2", "rt1", "rt2", "ro", "alpha", "h", "l", "lx")

    def __post_init__(self):
        for name in self._POSITIVE:
            value = getattr(self, name)
            if not (value > 0.0):
                raise ConfigError(f"parameter {name} must be strictly positive, got {value!r}")
        for f in fields(self):
            object.__setattr__(self, f.name, float(getattr(self, f.name)))
