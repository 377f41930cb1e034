"""Flat key=value run configuration.

The format is deliberately tiny: one `section.key = value` per line, `#`
comments, nothing nested.  Unknown keys, duplicates, and malformed lines are
hard errors with line numbers; every number must be finite, in a file or set
in code, and physical values are validated through the same invariants the
library enforces, which raise ConfigError themselves.  The serializer,
`tests/test_config_io.py::serialize_config`, writes every key with 17
significant digits, so parse -> serialize -> parse is the identity.

Defaults live in one place per key.  The physics.*, step.* and tail.* keys,
with their defaults and parsers, are the fields of PhysParams, StepConfig and
TailConfig; KEY_SPEC lists the other keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigError
from .grid import INTERIOR, Grid, make_grid
from .integrator import StepConfig
from .mms import MmsSpec
from .model import State
from .params import PhysParams
from .tail import TailConfig


def _parse_bool(text: str) -> bool:
    if text == "true":
        return True
    if text == "false":
        return False
    raise ValueError(f"expected true/false, got {text!r}")


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _parse_float_list(text: str):
    return tuple(_parse_float(tok.strip()) for tok in text.split(",") if tok.strip())


def _parse_int_list(text: str):
    return tuple(int(tok.strip()) for tok in text.split(",") if tok.strip())


#: field annotation -> parser of its config value
_PARSERS = {"float": _parse_float, "int": int, "bool": _parse_bool, "str": str,
            "tuple[float, ...]": _parse_float_list}


def _fields_spec(section: str, cls) -> dict:
    """`section.<field>` -> (parser, default) for every field of dataclass cls."""
    return {f"{section}.{f.name}": (_PARSERS[f.type], f.default) for f in fields(cls)}


# key -> (parser, default); declaration order defines the serialized order
KEY_SPEC = {
    **_fields_spec("physics", PhysParams),
    "grid.nx": (int, 32),
    "grid.ny": (int, 16),
    "grid.nz": (int, 8),
    **_fields_spec("step", StepConfig),
    "init.kind": (str, "zero"),
    "init.center_x": (_parse_float, 0.0),
    "init.center_y": (_parse_float, 0.25),
    "init.center_z": (_parse_float, -0.25),
    "init.width": (_parse_float, 0.25),
    "init.t_amplitude": (_parse_float, 1.0),
    "init.v_amplitude": (_parse_float, 0.0),
    "q.kind": (str, "zero"),
    "q.center_x": (_parse_float, 0.0),
    "q.center_y": (_parse_float, 0.25),
    "q.center_z": (_parse_float, -0.25),
    "q.width": (_parse_float, 0.12),
    "q.amplitude": (_parse_float, 0.5),
    "q.path": (str, ""),
    "output.dir": (str, "out"),
    "output.snapshots": (_parse_bool, False),
    **_fields_spec("tail", TailConfig),
    "truncate.factor": (int, 2),
    "truncate.max_rel": (_parse_float, 0.0),
    "contract.t_scale": (_parse_float, 1.5),
    "contract.shift_x": (_parse_float, 0.2),
    "mms.sizes": (_parse_int_list, (8, 16, 32)),
    "mms.dt": (_parse_float, 2e-3),
    "mms.horizon": (_parse_float, 0.1),
}


@dataclass
class RunConfig:
    values: dict = field(default_factory=dict)

    def __post_init__(self):
        merged = {key: default for key, (_, default) in KEY_SPEC.items()}
        merged.update(self.values)
        self.values = merged
        self.validate()

    def __getitem__(self, key):
        return self.values[key]

    def validate(self):
        # parse_config's floats are finite already; this catches values set in code
        for key, value in self.values.items():
            if any(isinstance(v, float) and not math.isfinite(v)
                   for v in (value if isinstance(value, tuple) else (value,))):
                raise ConfigError(f"{key} must be finite, got {value!r}")
        self.params()
        if self["init.kind"] not in ("zero", "gaussian", "mms"):
            raise ConfigError(f"unknown init.kind {self['init.kind']!r}")
        if self["q.kind"] not in ("zero", "gaussian", "file"):
            raise ConfigError(f"unknown q.kind {self['q.kind']!r}")
        if self["q.kind"] == "file" and not self["q.path"]:
            raise ConfigError("q.kind = file requires q.path")
        if self["init.kind"] == "mms" and self["q.kind"] != "zero":
            raise ConfigError("init.kind = mms brings its own heat source; q.kind must be zero")
        if not self["truncate.max_rel"] >= 0.0:
            raise ConfigError(f"truncate.max_rel must be >= 0 (0 turns the check off), "
                              f"got {self['truncate.max_rel']!r}")
        sizes = self["mms.sizes"]
        if len(sizes) < 2 or len(set(sizes)) < len(sizes) or min(sizes) < 4:
            raise ConfigError(f"mms.sizes must list at least two distinct grid sizes, each >= 4, "
                              f"got {sizes!r}")
        for key in ("init.width", "q.width"):
            if not self[key] > 0.0:
                raise ConfigError(f"{key} must be > 0, got {self[key]!r}")
        self.step_config()
        StepConfig(dt=self["mms.dt"], t_end=self["mms.horizon"])
        return self

    # builders ---------------------------------------------------------------
    def _section(self, cls, section):
        """cls built from the keys `section.<field>`, one per dataclass field."""
        return cls(**{f.name: self[f"{section}.{f.name}"] for f in fields(cls)})

    def params(self) -> PhysParams:
        return self._section(PhysParams, "physics")

    def grid(self) -> Grid:
        return make_grid(self.params(), self["grid.nx"], self["grid.ny"], self["grid.nz"])

    def step_config(self) -> StepConfig:
        return self._section(StepConfig, "step")

    def tail_config(self) -> TailConfig:
        return self._section(TailConfig, "tail")

    def q_field(self, g: Grid) -> np.ndarray:
        """The heat source Q on grid g, per the q.* keys."""
        kind = self["q.kind"]
        if kind == "zero":
            return np.zeros((g.nx, g.ny, g.nz))
        if kind == "gaussian":
            return self._blob("q", g)
        path = self["q.path"]
        try:
            data = np.asarray(np.load(path), dtype=float)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read q file {path}: {exc}") from exc
        if data.shape != (g.nx, g.ny, g.nz):
            raise ConfigError(
                f"q file shape {data.shape} does not match grid {(g.nx, g.ny, g.nz)}"
            )
        bad = ~np.isfinite(data)
        if bad.any():
            idx = tuple(int(v) for v in np.argwhere(bad)[0])
            raise ConfigError(
                f"q file {path} holds {int(bad.sum())} non-finite values (first at index {idx})"
            )
        return data

    def _blob(self, section, g: Grid, shift=0.0):
        v = self.values
        x, y, z = g.coords()
        w = v[f"{section}.width"]
        amp = v[f"{section}.amplitude"] if section == "q" else 1.0
        return amp * np.exp(
            -((x - (v[f"{section}.center_x"] + shift)) ** 2) / (2 * w * w)
            - ((y - v[f"{section}.center_y"]) ** 2) / (2 * w * w)
            - ((z - v[f"{section}.center_z"]) ** 2) / (2 * w * w)
        )

    def initial_state(self, p: PhysParams, g: Grid, scale=1.0, shift=0.0, q=None) -> State:
        """The initial interiors and heat source; the run's prologue fills the ghosts and w.

        scale multiplies init.t_amplitude and init.v_amplitude, shift moves init.center_x.
        A given q becomes the state's heat source as it is, instead of a new one.
        """
        kind = self["init.kind"]
        if kind == "mms":
            return MmsSpec(p).forced_state(g)
        s = State.zeros(g)
        if kind == "gaussian":
            blob = self._blob("init", g, shift)
            s.T[INTERIOR] = self["init.t_amplitude"] * scale * blob
            s.v1[INTERIOR] = self["init.v_amplitude"] * scale * blob
            s.v2[INTERIOR] = -self["init.v_amplitude"] * scale * blob
        s.Q = self.q_field(g) if q is None else q
        return s

    def contraction_pair(self, p: PhysParams, g: Grid):
        """The contraction probe's initial state and its twin, on one heat source.

        The twin is built with scale contract.t_scale and shift contract.shift_x.
        A twin equal to the base state has nothing to contract and is rejected.
        """
        s_a = self.initial_state(p, g)
        s_b = self.initial_state(p, g, self["contract.t_scale"], self["contract.shift_x"], s_a.Q)
        if all(map(np.array_equal, s_a.interiors(), s_b.interiors())):
            raise ConfigError(f"the contraction twin equals the base state (init.kind = "
                              f"{self['init.kind']}); the probe needs two distinct states")
        return s_a, s_b


def parse_config(text: str) -> RunConfig:
    """Strict parse of the flat sectioned key=value format."""
    values = {}
    seen_lines = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in KEY_SPEC:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen_lines:
            raise ConfigError(
                f"line {lineno}: duplicate key {key!r} (first set on line {seen_lines[key]})"
            )
        seen_lines[key] = lineno
        parser, _ = KEY_SPEC[key]
        try:
            values[key] = parser(value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
    return RunConfig(values)


def parse_config_file(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
