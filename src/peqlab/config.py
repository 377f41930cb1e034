"""Flat key=value run configuration.

The format is deliberately tiny: one `section.key = value` per line, `#`
comments, nothing nested.  A `#` starts a comment only at the start of a line
or after whitespace, so `q.path = data/#1.npy` keeps its `#` and
`step.dt = 0.01#x` is a bad value.  Unknown keys, duplicates, and malformed
lines are hard errors with line numbers; every number must be finite, in a
file or set in code, and physical values are validated through the same
invariants the library enforces, which raise ConfigError themselves.  The
serializer, `tests/test_config_io.py::serialize_config`, writes every key with
17 significant digits, so parse -> serialize -> parse is the identity.

Every key is a field of its section's class in SECTIONS, which holds the
key's default and checks it; KEY_SPEC is built from them.  A config built in
code rejects an unknown key as a file does.  A config says what to compute,
not where its outputs go: the command line picks the output directory.
"""

from __future__ import annotations

import math
import re
from dataclasses import astuple, dataclass, fields
from functools import partial

import numpy as np

from .errors import ConfigError
from .grid import INTERIOR, Grid, check_counts, make_grid
from .integrator import StepConfig
from .model import State
from .params import PhysParams
from .tail import TailConfig


def _parse_bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"expected true/false, got {text!r}")
    return text == "true"


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _parse_tuple(item, text: str) -> tuple:  # an empty item is a bad value; an empty list is ()
    return tuple(item(tok.strip()) for tok in text.split(",")) if text else ()


#: field annotation -> parser of its config value
_PARSERS = {"float": _parse_float, "int": int, "bool": _parse_bool, "str": str,
            "tuple[float, ...]": partial(_parse_tuple, _parse_float),
            "tuple[int, ...]": partial(_parse_tuple, int)}


# The section classes: dataclass compiles each method it generates afresh on every import,
# about 0.1 ms apiece, and perfbench imports peqlab anew every round, so they get __init__ alone.
@dataclass(eq=False, repr=False)
class GridConfig:
    nx: int = 32
    ny: int = 16
    nz: int = 8

    def __post_init__(self):  # with make_grid's check, so a command that builds no grid rejects them too
        check_counts(self.nx, self.ny, self.nz)


@dataclass(eq=False, repr=False)
class InitConfig:
    kind: str = "zero"
    width: float = 0.25
    t_amplitude: float = 1.0
    v_amplitude: float = 0.0

    def __post_init__(self):
        if self.kind not in ("zero", "gaussian"):
            raise ConfigError(f"unknown init.kind {self.kind!r}")
        if not self.width > 0.0:
            raise ConfigError(f"init.width must be > 0, got {self.width!r}")


@dataclass(eq=False, repr=False)
class QConfig:
    kind: str = "zero"
    width: float = 0.12
    amplitude: float = 0.5
    path: str = ""

    def __post_init__(self):
        if self.kind not in ("zero", "gaussian", "file"):
            raise ConfigError(f"unknown q.kind {self.kind!r}")
        if self.kind == "file" and not self.path:
            raise ConfigError("q.kind = file requires q.path")
        if not self.width > 0.0:
            raise ConfigError(f"q.width must be > 0, got {self.width!r}")


@dataclass(eq=False, repr=False)
class OutputConfig:
    snapshots: bool = False


@dataclass(eq=False, repr=False)
class TruncateConfig:
    factor: int = 2
    max_rel: float = 0.0

    def __post_init__(self):
        if self.factor < 2:
            raise ConfigError(f"truncate.factor must be an integer >= 2, got {self.factor!r}")
        if not self.max_rel >= 0.0:
            raise ConfigError(f"truncate.max_rel must be >= 0 (0 turns the check off), "
                              f"got {self.max_rel!r}")

    def exceeded(self, rel_diff: float) -> bool:
        return self.max_rel > 0.0 and rel_diff > self.max_rel


@dataclass(eq=False, repr=False)
class ContractConfig:
    t_scale: float = 1.5


@dataclass(eq=False, repr=False)
class MmsConfig:
    sizes: tuple[int, ...] = (8, 16, 32)
    dt: float = 2e-3
    horizon: float = 0.1

    def __post_init__(self):
        if len(self.sizes) < 2 or len(set(self.sizes)) < len(self.sizes) or min(self.sizes) < 4:
            raise ConfigError(f"mms.sizes must list at least two distinct grid sizes, each >= 4, "
                              f"got {self.sizes!r}")
        StepConfig(dt=self.dt, t_end=self.horizon)


#: section -> the class whose fields are its keys; this order is the serialized order
SECTIONS = {"physics": PhysParams, "grid": GridConfig, "step": StepConfig, "init": InitConfig,
            "q": QConfig, "output": OutputConfig, "tail": TailConfig,
            "truncate": TruncateConfig, "contract": ContractConfig, "mms": MmsConfig}

#: key -> (parser, default), one per field of each section class
KEY_SPEC = {f"{section}.{f.name}": (_PARSERS[f.type], f.default)
            for section, cls in SECTIONS.items() for f in fields(cls)}


class RunConfig:
    """One instance of each SECTIONS class, cfg.q, cfg.truncate and so on; unset keys default."""

    def __init__(self, values=()):
        given = {section: {} for section in SECTIONS}
        for key, value in dict(values).items():
            if key not in KEY_SPEC:
                raise ConfigError(f"unknown key {key!r}")
            # parse_config's floats are finite already; this catches values set in code
            if any(isinstance(v, float) and not math.isfinite(v)
                   for v in (value if isinstance(value, (tuple, list)) else (value,))):
                raise ConfigError(f"{key} must be finite, got {value!r}")
            section, _, name = key.partition(".")
            given[section][name] = value
        self.sections = {section: cls(**given[section]) for section, cls in SECTIONS.items()}

    def __getattr__(self, name):  # only for names the class lacks, so cfg.grid stays the method
        if name in self.__dict__.get("sections", ()):
            return self.sections[name]
        raise AttributeError(name)

    def __getitem__(self, key):
        section, _, name = key.partition(".")
        return getattr(self.sections[section], name)

    def params(self) -> PhysParams:
        return self.physics

    def grid(self) -> Grid:
        return make_grid(self.physics, *astuple(self.sections["grid"]))

    def q_field(self, g: Grid) -> np.ndarray:
        """The heat source Q on grid g, per the q.* keys."""
        if self.q.kind == "zero":
            return np.zeros((g.nx, g.ny, g.nz))
        if self.q.kind == "gaussian":
            return self.q.amplitude * self._blob(g, self.q.width)
        path = self.q.path
        try:
            data = np.load(path)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read q file {path}: {exc}") from exc
        if not isinstance(data, np.ndarray):  # an .npz archive, which holds its file open
            data.close()
            raise ConfigError(f"q file {path} is not a .npy array")
        if data.dtype.kind not in "biuf":
            raise ConfigError(f"q file {path} holds {data.dtype} values, not real numbers")
        data = np.asarray(data, dtype=float)
        if data.shape != (g.nx, g.ny, g.nz):
            raise ConfigError(f"q file shape {data.shape} does not match grid {(g.nx, g.ny, g.nz)}")
        bad = ~np.isfinite(data)
        if bad.any():
            idx = tuple(int(v) for v in np.argwhere(bad)[0])
            raise ConfigError(f"q file {path} holds {int(bad.sum())} non-finite values "
                              f"(first at index {idx})")
        return data

    @staticmethod
    def _blob(g: Grid, w: float, shift=0.0):
        x, y, z = g.coords()
        return np.exp(
            -((x - shift) ** 2) / (2 * w * w)
            - ((y - g.l / 2) ** 2) / (2 * w * w)
            - ((z + g.h / 2) ** 2) / (2 * w * w)
        )

    def initial_state(self, p: PhysParams, g: Grid, scale=1.0, shift=0.0, q=None) -> State:
        """The initial interiors and heat source; the run's prologue fills the ghosts and w.

        Both Gaussians sit at the channel centre (0, l/2, -h/2); scale multiplies the init.*
        amplitudes, shift moves the blob along x.  A given q is the state's heat source as it is.
        """
        s = State.zeros(g)
        if self.init.kind == "gaussian":
            blob = self._blob(g, self.init.width, shift)
            s.T[INTERIOR] = self.init.t_amplitude * scale * blob
            s.v1[INTERIOR] = self.init.v_amplitude * scale * blob
            s.v2[INTERIOR] = -self.init.v_amplitude * scale * blob
        s.Q = self.q_field(g) if q is None else q
        return s

    def contraction_pair(self, p: PhysParams, g: Grid):
        """The contraction probe's initial state and its twin, on one heat source.

        The twin is built with scale contract.t_scale, its blob moved 0.2 along x.
        A twin equal to the base state has nothing to contract and is rejected.
        """
        s_a = self.initial_state(p, g)
        s_b = self.initial_state(p, g, self.contract.t_scale, 0.2, s_a.Q)
        if all(map(np.array_equal, s_a.interiors(), s_b.interiors())):
            raise ConfigError(f"the contraction twin equals the base state (init.kind = "
                              f"{self.init.kind}); the probe needs two distinct states")
        return s_a, s_b


def parse_config(text: str) -> RunConfig:
    """Strict parse of the flat sectioned key=value format."""
    values, seen_lines = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = re.split(r"(?<!\S)#", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in KEY_SPEC:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen_lines:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} "
                              f"(first set on line {seen_lines[key]})")
        seen_lines[key] = lineno
        try:
            values[key] = KEY_SPEC[key][0](value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
    return RunConfig(values)


def parse_config_file(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
