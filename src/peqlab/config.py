"""Flat key=value run configuration.

The format is deliberately tiny: one `section.key = value` per line, `#`
comments, nothing nested.  Unknown keys, duplicates, and malformed lines are
hard errors with line numbers; physical values are validated through the
same invariants the library enforces.  Serialization writes every key with
17 significant digits so parse -> serialize -> parse is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigError
from .grid import INTERIOR, Grid, make_grid
from .integrator import RunChecks, StepConfig
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


def _parse_float_list(text: str):
    return tuple(float(tok.strip()) for tok in text.split(",") if tok.strip())


def _parse_int_list(text: str):
    return tuple(int(tok.strip()) for tok in text.split(",") if tok.strip())


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, tuple):
        return ",".join(_fmt(v) for v in value)
    return str(value)


# key -> (parser, default); declaration order defines the serialized order
KEY_SPEC = {
    "physics.re1": (float, 1.0),
    "physics.re2": (float, 1.0),
    "physics.rt1": (float, 1.0),
    "physics.rt2": (float, 1.0),
    "physics.ro": (float, 1.0),
    "physics.f0": (float, 1.0),
    "physics.beta": (float, 0.5),
    "physics.alpha": (float, 2.0),
    "physics.h": (float, 0.5),
    "physics.l": (float, 1.0),
    "physics.lx": (float, 2.0),
    "grid.nx": (int, 32),
    "grid.ny": (int, 16),
    "grid.nz": (int, 8),
    "step.dt": (float, 0.01),
    "step.t_end": (float, 2.0),
    "step.output_every": (int, 10),
    "step.temperature_only": (_parse_bool, False),
    "init.kind": (str, "zero"),
    "init.center_x": (float, 0.0),
    "init.center_y": (float, 0.25),
    "init.center_z": (float, -0.25),
    "init.width": (float, 0.25),
    "init.t_amplitude": (float, 1.0),
    "init.v_amplitude": (float, 0.0),
    "q.kind": (str, "zero"),
    "q.center_x": (float, 0.0),
    "q.center_y": (float, 0.25),
    "q.center_z": (float, -0.25),
    "q.width": (float, 0.12),
    "q.amplitude": (float, 0.5),
    "q.path": (str, ""),
    "output.dir": (str, "out"),
    "output.snapshots": (_parse_bool, False),
    "check.energy_slack": (float, 1e-8),
    "check.gronwall_factor": (float, 1.05),
    "check.poincare": (_parse_bool, True),
    "check.constraint": (_parse_bool, True),
    "check.energy": (str, "auto"),
    "check.gronwall": (_parse_bool, False),
    "tail.radii": (_parse_float_list, (1.2, 1.6, 1.9)),
    "tail.epsilon": (float, 1e-3),
    "tail.tau_probe": (float, 2.0),
    "truncate.factor": (int, 2),
    "truncate.max_rel": (float, 0.0),
    "contract.t_scale": (float, 1.5),
    "contract.shift_x": (float, 0.2),
    "mms.sizes": (_parse_int_list, (8, 16, 32)),
    "mms.dt": (float, 2e-3),
    "mms.horizon": (float, 0.1),
    "accept.radius_sq": (float, 0.0),
    "accept.entry_gap": (float, 0.0),
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
        try:
            self.params()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self["init.kind"] not in ("zero", "gaussian", "mms"):
            raise ConfigError(f"unknown init.kind {self['init.kind']!r}")
        if self["q.kind"] not in ("zero", "gaussian", "file"):
            raise ConfigError(f"unknown q.kind {self['q.kind']!r}")
        if self["q.kind"] == "file" and not self["q.path"]:
            raise ConfigError("q.kind = file requires q.path")
        if self["check.energy"] not in ("auto", "on", "off"):
            raise ConfigError("check.energy must be auto, on, or off")
        sizes = self["mms.sizes"]
        if len(sizes) < 2 or min(sizes) < 4:
            raise ConfigError(f"mms.sizes must list at least two grid sizes, each >= 4, got {sizes!r}")
        try:
            self.step_config()
            StepConfig(dt=self["mms.dt"], t_end=self["mms.horizon"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return self

    # builders ---------------------------------------------------------------
    def _section(self, cls, section):
        """cls built from the keys `section.<field>`, one per dataclass field."""
        return cls(**{f.name: self[f"{section}.{f.name}"] for f in fields(cls)})

    def params(self) -> PhysParams:
        return self._section(PhysParams, "physics")

    def grid(self) -> Grid:
        try:
            return make_grid(self.params(), self["grid.nx"], self["grid.ny"], self["grid.nz"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def step_config(self) -> StepConfig:
        return self._section(StepConfig, "step")

    def checks(self) -> RunChecks:
        v = self.values
        energy = {"auto": None, "on": True, "off": False}[v["check.energy"]]
        return RunChecks(
            energy_slack=v["check.energy_slack"], gronwall_factor=v["check.gronwall_factor"],
            check_poincare=v["check.poincare"], check_constraint=v["check.constraint"],
            check_energy=energy, check_gronwall=v["check.gronwall"],
        )

    def tail_config(self) -> TailConfig:
        return self._section(TailConfig, "tail")

    def q_field(self, g: Grid) -> np.ndarray:
        """The heat source Q on grid g, per the q.* keys."""
        kind = self["q.kind"]
        if kind == "zero":
            return np.zeros((g.nx, g.ny, g.nz))
        if kind == "gaussian":
            x, y, z = g.coords()
            return self._blob(x, y, z, "q") * np.ones((g.nx, g.ny, g.nz))
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

    def _blob(self, x, y, z, section):
        v = self.values
        w = v[f"{section}.width"]
        amp = v[f"{section}.amplitude"] if section == "q" else 1.0
        return amp * np.exp(
            -((x - v[f"{section}.center_x"]) ** 2) / (2 * w * w)
            - ((y - v[f"{section}.center_y"]) ** 2) / (2 * w * w)
            - ((z - v[f"{section}.center_z"]) ** 2) / (2 * w * w)
        )

    def initial_state(self, p: PhysParams, g: Grid) -> State:
        s = State.zeros(g)
        kind = self["init.kind"]
        if kind == "gaussian":
            x, y, z = g.coords()
            blob = self._blob(x, y, z, "init") * np.ones((g.nx, g.ny, g.nz))
            s.T[INTERIOR] = self["init.t_amplitude"] * blob
            s.v1[INTERIOR] = self["init.v_amplitude"] * blob
            s.v2[INTERIOR] = -self["init.v_amplitude"] * blob
        elif kind == "mms":
            return MmsSpec(p).forced_state(g)
        s.Q = self.q_field(g)
        s.fill_all_ghosts(p, g)
        s.refresh_w(p, g)
        return s


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


def serialize_config(cfg: RunConfig) -> str:
    lines = [f"{key} = {_fmt(cfg.values[key])}" for key in KEY_SPEC]
    return "\n".join(lines) + "\n"
