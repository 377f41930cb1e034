"""peqlab: channel-domain primitive-equations simulator and diagnostics lab."""

from .params import PhysParams
from .grid import Grid, make_grid
from .bc import BcKind, FieldBcs, VELOCITY_BC, TEMPERATURE_BC, W_BC, fill_ghosts
from .model import State
from .integrator import StepConfig, cfl_dt, step, run, trajectory
from .diagnostics import DiagRecord, kappa, gronwall_T_envelope

__all__ = [
    "PhysParams", "Grid", "make_grid",
    "BcKind", "FieldBcs", "VELOCITY_BC", "TEMPERATURE_BC", "W_BC", "fill_ghosts",
    "State",
    "StepConfig", "cfl_dt", "step", "run", "trajectory",
    "DiagRecord", "kappa", "gronwall_T_envelope",
]

__version__ = "0.1.0"
