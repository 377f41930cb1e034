import re
from pathlib import Path

import numpy as np
import pytest

from peqlab import PhysParams, State, make_grid
from peqlab.config import KEY_SPEC, SECTIONS, RunConfig, parse_config
from peqlab.diagnostics import CSV_COLUMNS, DiagRecord
from peqlab.errors import ConfigError
from peqlab.grid import INTERIOR
from peqlab.io import (
    plot_svg,
    read_snapshot,
    read_timeseries,
    write_snapshot,
    write_timeseries,
)

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"

def _fmt(value) -> str:
    """A parsed config value written back in the form the parser reads, floats exactly."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, tuple):
        return ",".join(_fmt(v) for v in value)
    return str(value)


def _flat(cfg: RunConfig) -> dict:
    """Every key of a config with its value."""
    return {key: cfg[key] for key in KEY_SPEC}


def serialize_config(cfg: RunConfig) -> str:
    """Every key of a config, in KEY_SPEC order, one `key = value` line each."""
    lines = [f"{key} = {_fmt(cfg[key])}" for key in KEY_SPEC]
    return "\n".join(lines) + "\n"


GOLDEN_HEADER = (
    "t,l2_T,l2_v,l6_T,l6_vtilde,l6_vz,l6_Tz,v1norm_v,v2norm_T,grad_vbar_2d,"
    "l2_vz,l2_gradv,l2_L1v,l2_L2T,l2_vt,l2_Tt,constraint_residual,"
    "envelope_T,poincare_T,poincare_v"
)


class TestConfig:
    def test_roundtrip_defaults(self):
        c1 = RunConfig({})
        text = serialize_config(c1)
        c2 = parse_config(text)
        assert _flat(c2) == _flat(c1)
        assert serialize_config(c2) == text

    def test_roundtrip_modified(self):
        c1 = parse_config("physics.alpha = 3.5\ntail.radii = 0.7,0.9\nstep.dt = 0.0125")
        c2 = parse_config(serialize_config(c1))
        assert _flat(c2) == _flat(c1)
        assert (c2.physics.alpha, c2.tail.radii, c2.step.dt) == (3.5, (0.7, 0.9), 0.0125)

    def test_defaults_build_the_dataclass_defaults(self):
        cfg = RunConfig({})
        assert all(vars(cfg.sections[section]) == vars(cls()) for section, cls in SECTIONS.items())
        assert cfg.params() is cfg.physics and cfg.step is cfg.sections["step"]

    def test_keys_keep_their_serialized_order(self):
        assert list(KEY_SPEC) == [f"{section}.{name}" for section, names in (
            ("physics", "re1 re2 rt1 rt2 ro f0 beta alpha h l lx"), ("grid", "nx ny nz"),
            ("step", "dt t_end output_every temperature_only"),
            ("init", "kind width t_amplitude v_amplitude"), ("q", "kind width amplitude path"),
            ("output", "snapshots"), ("tail", "radii epsilon tau_probe"),
            ("truncate", "factor max_rel"), ("contract", "t_scale"),
            ("mms", "sizes dt horizon")) for name in names.split()]

    def test_every_key_is_read(self):
        # every field of every section class is read as an attribute by production code,
        # and no production module but config's generic view reads a key by its string
        source = "".join(p.read_text() for p in (ROOT / "src" / "peqlab").glob("*.py"))
        assert [key for key in KEY_SPEC
                if not re.search(rf"\.{key.partition('.')[2]}\b", source)] == []
        assert [key for key in KEY_SPEC if f'"{key}"' in source] == []

    def test_key_set_in_code_must_be_known(self):
        with pytest.raises(ConfigError, match=r"^unknown key 'step\.dtt'$"):
            RunConfig({"step.dtt": 0.5})
        with pytest.raises(ConfigError, match=r"^unknown key 'viscosity'$"):
            RunConfig({"viscosity": 1.0})

    def test_minimal_file_gets_defaults(self):
        cfg = parse_config("# nothing but a comment\n")
        assert cfg["physics.re1"] == KEY_SPEC["physics.re1"][1]
        assert cfg.params().re1 == 1.0

    def test_invariant_violation_names_key(self):
        with pytest.raises(ConfigError, match="alpha"):
            parse_config("physics.alpha = -1")

    @pytest.mark.parametrize("key,value", [
        ("physics.f0", float("nan")),
        ("init.t_amplitude", float("inf")),
        ("q.amplitude", float("nan")),
        ("tail.radii", (float("nan"), 1.6, 1.9)),
        ("tail.radii", [1.2, float("nan")]),
        ("contract.t_scale", float("inf")),
    ])
    def test_non_finite_value_set_in_code_names_key(self, key, value):
        with pytest.raises(ConfigError, match=rf"^{key} must be finite, got "):
            RunConfig({key: value})

    @pytest.mark.parametrize("factor", [1, 0])
    def test_truncate_factor_below_two_rejected_when_built(self, factor):
        with pytest.raises(ConfigError, match=rf"^truncate\.factor must be an integer >= 2, got {factor}$"):
            RunConfig({"truncate.factor": factor})

    def test_malformed_line_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("physics.re1 = 1\nwhat is this\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("physics.viscosity = 1")

    @pytest.mark.parametrize("key", ["step.engine", "step.diffusion_tol", "poisson.kind",
                                     "poisson.tolerance", "poisson.max_iter", "tail.pair_seed",
                                     "step.cfl_target", "step.dt_max", "check.poincare_tol",
                                     "check.div_tol", "check.poincare", "check.constraint",
                                     "check.energy_slack", "check.gronwall_factor",
                                     "check.energy", "check.gronwall", "init.center_x",
                                     "init.center_y", "init.center_z", "q.center_x",
                                     "q.center_y", "q.center_z", "output.dir"])
    def test_removed_solver_keys_rejected(self, key):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(f"{key} = 1")

    def test_hash_glued_to_a_value_is_part_of_it(self):
        with pytest.raises(ConfigError, match=r"^line 2: bad value for step.dt: "):
            parse_config("grid.nx = 8\nstep.dt = 0.01#x\n")

    @pytest.mark.parametrize("line", ["step.dt = 0.01 # x", "step.dt = 0.01\t#x"])
    def test_hash_after_whitespace_starts_a_comment(self, line):
        assert parse_config(line)["step.dt"] == 0.01

    def test_duplicate_names_both_lines(self):
        with pytest.raises(ConfigError, match=r"line 3.*first set on line 1"):
            parse_config("step.dt = 0.1\n\nstep.dt = 0.2")

    def test_bad_value_type(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config("grid.nx = tiny")

    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("*.cfg")))
    def test_committed_configs_parse(self, name):
        text = (CONFIG_DIR / name).read_text()
        cfg = parse_config(text)
        cfg.grid()  # also exercises grid validation
        assert _flat(parse_config(serialize_config(cfg))) == _flat(cfg)

    def test_gaussians_sit_at_the_channel_centre(self):
        """Blob, heat source and contraction twin are Gaussians at (x, l/2, -h/2), byte for byte."""
        cfg = parse_config("physics.l = 0.8\nphysics.h = 1.0\ngrid.nx = 8\ngrid.ny = 6\ngrid.nz = 4\n"
                           "init.kind = gaussian\ninit.width = 0.3\ninit.t_amplitude = 0.7\n"
                           "init.v_amplitude = 0.2\nq.kind = gaussian\nq.width = 0.15\n"
                           "q.amplitude = 0.4\ncontract.t_scale = 1.5\n")
        p, g = cfg.params(), cfg.grid()
        x, y, z = g.coords()

        def gaussian(w, cx):
            return np.exp(-((x - cx) ** 2) / (2 * w * w) - ((y - 0.4) ** 2) / (2 * w * w)
                          - ((z - (-0.5)) ** 2) / (2 * w * w))

        s_a, s_b = cfg.contraction_pair(p, g)
        q = 0.4 * gaussian(0.15, 0.0)
        for s, scale, cx in ((s_a, 1.0, 0.0), (s_b, 1.5, 0.2)):
            blob = gaussian(0.3, cx)
            assert np.array_equal(s.T[INTERIOR], 0.7 * scale * blob)
            assert np.array_equal(s.v1[INTERIOR], 0.2 * scale * blob)
            assert np.array_equal(s.v2[INTERIOR], -0.2 * scale * blob)
            assert np.array_equal(s.Q, q)

    def test_contraction_pair_builds_one_heat_source(self, monkeypatch):
        cfg = parse_config((CONFIG_DIR / "contraction_default.cfg").read_text())
        calls = []
        q_field = RunConfig.q_field

        def spy(self, g):
            calls.append(g)
            return q_field(self, g)

        monkeypatch.setattr(RunConfig, "q_field", spy)
        s_a, s_b = cfg.contraction_pair(cfg.params(), cfg.grid())
        assert len(calls) == 1
        assert s_b.Q is s_a.Q


def _fake_records(n=3):
    rows = []
    rng = np.random.default_rng(0)
    for i in range(n):
        kw = dict(zip(CSV_COLUMNS, rng.random(len(CSV_COLUMNS))))
        kw["t"] = 0.1 * i
        if i == 0:
            kw["l2_vt"] = float("nan")
            kw["l2_Tt"] = float("nan")
        rows.append(DiagRecord(**kw))
    return rows


class TestTimeseries:
    def test_golden_header(self, tmp_path):
        path = tmp_path / "ts.csv"
        write_timeseries([], path)
        assert path.read_text() == GOLDEN_HEADER + "\n"

    def test_full_precision_roundtrip(self, tmp_path):
        records = _fake_records()
        path = tmp_path / "ts.csv"
        write_timeseries(records, path)
        data = read_timeseries(path)
        for name in CSV_COLUMNS:
            expect = np.array([getattr(r, name) for r in records])
            assert np.array_equal(data[name], expect, equal_nan=True)

    def test_identical_files_for_identical_records(self, tmp_path):
        records = _fake_records()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_timeseries(records, a)
        write_timeseries(records, b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs the /dev/full device")
    def test_failed_write_names_the_path(self):
        with pytest.raises(ConfigError, match=r"cannot write /dev/full: \[Errno 28\]"):
            write_timeseries(_fake_records(), "/dev/full")


class TestSnapshot:
    def test_roundtrip_bit_identical(self, tmp_path):
        p = PhysParams(lx=1.0, l=0.8, h=0.6)
        g = make_grid(p, 6, 5, 4)
        rng = np.random.default_rng(1)
        s = State.zeros(g)
        for arr in (s.v1, s.v2, s.T, s.w):
            arr[INTERIOR] = rng.standard_normal((g.nx, g.ny, g.nz))
        s.p_s[1:-1, 1:-1] = rng.standard_normal((g.nx, g.ny))
        path = tmp_path / "state.peq"
        write_snapshot(s, path)
        out = read_snapshot(path)
        assert out["dims"] == (6, 5, 4)
        assert np.array_equal(out["v1"], s.v1[INTERIOR])
        assert np.array_equal(out["w"], s.w[INTERIOR])
        assert np.array_equal(out["p_s"], s.p_s[1:-1, 1:-1])
        # writing the same state twice yields identical bytes
        path2 = tmp_path / "state2.peq"
        write_snapshot(s, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_layout_magic_and_order(self, tmp_path):
        p = PhysParams()
        g = make_grid(p, 4, 4, 4)
        s = State.zeros(g)
        x, y, z = g.coords()
        s.v1[INTERIOR] = x + 10 * y + 100 * z
        path = tmp_path / "layout.peq"
        write_snapshot(s, path)
        raw = path.read_bytes()
        assert raw[:4] == b"PEQ1"
        dims = np.frombuffer(raw, "<i4", 3, 4)
        assert tuple(dims) == (4, 4, 4)
        # x-fastest: the first two samples differ in x only
        v = np.frombuffer(raw, "<f8", 2, 16)
        ref = s.v1[INTERIOR]
        assert v[0] == ref[0, 0, 0] and v[1] == ref[1, 0, 0]

    @pytest.mark.parametrize("keep", [10, 16, 200, -8])
    def test_truncated_snapshot_rejected(self, tmp_path, keep):
        g = make_grid(PhysParams(), 4, 4, 4)
        path = tmp_path / "cut.peq"
        write_snapshot(State.zeros(g), path)
        full = path.read_bytes()
        assert len(full) == 16 + 8 * (4 * 64 + 16)
        path.write_bytes(full[:keep])
        size = len(full[:keep])
        expected = "16" if size < 16 else str(len(full))
        with pytest.raises(ConfigError) as info:
            read_snapshot(path)
        message = str(info.value)
        assert str(path) in message and expected in message and str(size) in message

    def test_unreadable_snapshot_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read snapshot"):
            read_snapshot(tmp_path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.peq"
        path.write_bytes(b"NOPE" + b"\0" * 64)
        with pytest.raises(ConfigError, match="PEQ1"):
            read_snapshot(path)


class TestPlot:
    def test_plot_written_with_named_series(self, tmp_path):
        t = np.linspace(0.0, 2.0, 21)
        series = {
            "decay": (t, np.exp(-t)),
            "envelope": (t, 2 * np.exp(-t / 2)),
        }
        out = tmp_path / "plot.svg"
        plot_svg(series, out, title="decay")
        text = out.read_text()
        assert text.startswith("<svg")
        assert text.count("<polyline") == 2
        assert "envelope" in text

    def test_all_dropped_raises(self, tmp_path):
        with pytest.raises(ConfigError, match="nothing to plot"):
            plot_svg({"zero": (np.array([0.0, 1.0]), np.array([0.0, 0.0]))}, tmp_path / "x.svg")
