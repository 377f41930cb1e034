import contextlib
import re
import signal
from pathlib import Path

import numpy as np
import pytest

from peqlab.cli import main
from peqlab.config import parse_config_file
from peqlab.io import read_snapshot, read_timeseries

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def write_cfg(tmp_path, body, name="case.cfg"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)

TINY_RUN = """
grid.nx = 8
grid.ny = 8
grid.nz = 4
step.dt = 0.02
step.t_end = 0.2
step.output_every = 2
init.kind = gaussian
init.t_amplitude = 0.5
q.kind = zero
"""

TINY_TAIL = """
physics.re1 = 0.5
physics.re2 = 0.5
physics.rt1 = 4.0
physics.rt2 = 1.0
physics.alpha = 4.0
physics.beta = 0.1
physics.h = 0.5
physics.lx = 4.0
grid.nx = 48
grid.ny = 8
grid.nz = 6
step.dt = 0.04
step.t_end = 3.0
step.output_every = 15
init.kind = zero
q.kind = gaussian
q.width = 0.12
q.amplitude = 0.5
tail.radii = 1.2,1.6,1.9
tail.epsilon = 0.001
tail.tau_probe = 1.0
"""


def test_run_zero_preset(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", str(CONFIG_DIR / "zero.cfg"), "--output-dir", str(out)])
    assert code == 0
    data = read_timeseries(out / "timeseries.csv")
    assert np.all(data["l2_T"] == 0.0)
    assert np.all(data["l2_v"] == 0.0)
    snap = read_snapshot(out / "snapshot_final.peq")
    assert snap["dims"] == (8, 8, 4)
    assert np.all(snap["T"] == 0.0)


def test_run_writes_series_and_snapshots(tmp_path):
    cfg = write_cfg(tmp_path, TINY_RUN + "output.snapshots = true\n")
    out = tmp_path / "res"
    assert main(["run", cfg, "--output-dir", str(out)]) == 0
    data = read_timeseries(out / "timeseries.csv")
    assert data["t"][-1] == pytest.approx(0.2)
    assert (out / "snapshot_000000.peq").exists()
    assert (out / "snapshot_final.peq").exists()


def test_missing_config_is_config_error():
    assert main(["run", "/nonexistent/nowhere.cfg"]) == 1


def test_bad_usage_maps_to_config_error(capsys):
    assert main(["frobnicate"]) == 1


def test_invalid_value_exit_code(tmp_path):
    cfg = write_cfg(tmp_path, "physics.alpha = -2\n")
    assert main(["run", cfg]) == 1


@pytest.mark.parametrize("dt,t_end", [("0.01", "0.015"), ("0.01", "0.004"), ("0.01", "-1")])
def test_horizon_off_step_lattice_rejected(tmp_path, capsys, dt, t_end):
    body = TINY_RUN.replace("step.dt = 0.02", f"step.dt = {dt}")
    cfg = write_cfg(tmp_path, body.replace("step.t_end = 0.2", f"step.t_end = {t_end}"))
    out = tmp_path / "o"
    assert main(["run", cfg, "--output-dir", str(out)]) == 1
    assert "whole number of steps" in capsys.readouterr().err
    assert not out.exists()  # rejected at parse, before the output directory or a step


def _shrink_envelope(monkeypatch):
    import peqlab.integrator as integrator

    monkeypatch.setattr(integrator, "GRONWALL_FACTOR", 1e-12)


def test_injected_check_violation_exits_3(tmp_path, monkeypatch):
    # zero envelope slack makes any heated state fail the decay check
    _shrink_envelope(monkeypatch)
    cfg = write_cfg(tmp_path, TINY_RUN)
    assert main(["run", cfg, "--output-dir", str(tmp_path / "o")]) == 3


def test_unprojected_velocity_fails_the_constraint_monitor(tmp_path, capsys, monkeypatch):
    """A forced coupled run whose steps skip the projection exits 3 at its first output step."""
    import peqlab.integrator as integrator

    project = integrator.project
    calls = []

    def prologue_only(*args):
        calls.append(1)
        if len(calls) == 1:
            project(*args)

    monkeypatch.setattr(integrator, "project", prologue_only)
    # forced, so the energy check (unforced runs only) cannot trip first
    body = (CONFIG_DIR / "reference.cfg").read_text()
    for old, new in (("grid.nx = 64", "grid.nx = 16"), ("grid.ny = 32", "grid.ny = 8"),
                     ("grid.nz = 16", "grid.nz = 8"), ("init.v_amplitude = 0.0", "init.v_amplitude = 0.1"),
                     ("step.t_end = 10.0", "step.t_end = 0.2"), ("step.output_every = 20", "step.output_every = 5")):
        assert old in body
        body = body.replace(old, new)
    out = tmp_path / "o"
    assert main(["run", write_cfg(tmp_path, body), "--output-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("check failed: constraint residual ") and "> 1.0e-08 at t=0.05" in err
    assert read_timeseries(out / "timeseries.csv")["t"].tolist() == [0.0]


@pytest.mark.parametrize("config,code", [("dissipation.cfg", 3), ("dissipation_temponly.cfg", 0)])
def test_constraint_monitor_skips_only_temperature_only_runs(tmp_path, capsys, monkeypatch, config, code):
    """With no tolerance the projected velocity fails at t = 0; a frozen, unprojected one is never checked."""
    import peqlab.integrator as integrator

    monkeypatch.setattr(integrator, "DIV_TOL", 0.0)
    # a moving frozen velocity, whose constraint residual is far from 0
    body = (CONFIG_DIR / config).read_text().replace("init.v_amplitude = 0.0", "init.v_amplitude = 0.1")
    body = body.replace("step.t_end = 2.0", "step.t_end = 0.2")
    assert "init.v_amplitude = 0.1" in body and "step.t_end = 0.2" in body
    assert main(["run", write_cfg(tmp_path, body), "--output-dir", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    assert (err.startswith("check failed: constraint residual ") and "> 0.0e+00 at t=0" in err) == (code == 3)
    # the CSV opens on its first row, which the failed t = 0 record never gives
    assert (tmp_path / "o" / "timeseries.csv").exists() == (code == 0)


@pytest.mark.parametrize("changes,warnings", [
    ((), []),
    ((("step.dt = 0.01", "step.dt = 0.1"), ("init.v_amplitude = 0.1", "init.v_amplitude = 5")),
     ["dt=0.1 exceeds the advective CFL suggestion 0.0139124"]),
], ids=["committed", "fast_flow"])
def test_prologue_gives_cfl_advice(tmp_path, caplog, changes, warnings):
    import logging

    # the advice comes from the prologue, so a zero horizon is enough
    body = (CONFIG_DIR / "dissipation.cfg").read_text().replace("step.t_end = 2.0", "step.t_end = 0")
    for old, new in changes:
        assert old in body
        body = body.replace(old, new)
    caplog.set_level(logging.WARNING, logger="peqlab.integrator")
    assert main(["run", write_cfg(tmp_path, body), "--output-dir", str(tmp_path / "o")]) == 0
    assert [r.getMessage() for r in caplog.records if r.name == "peqlab.integrator"] == warnings


def test_frozen_velocity_temperature_only_run(tmp_path):
    # a temperature-only step never projects v, so its constraint is not monitored
    body = (CONFIG_DIR / "dissipation_temponly.cfg").read_text()
    body = body.replace("init.v_amplitude = 0.0", "init.v_amplitude = 0.1")
    body = body.replace("step.t_end = 2.0", "step.t_end = 0.2")
    assert "init.v_amplitude = 0.1" in body and "step.t_end = 0.2" in body
    out = tmp_path / "o"
    assert main(["run", write_cfg(tmp_path, body), "--output-dir", str(out)]) == 0
    data = read_timeseries(out / "timeseries.csv")
    assert data["constraint_residual"][0] > 1e-8
    assert np.all(np.diff(data["l2_T"]) < 0.0)


@pytest.mark.parametrize("command,config", [
    ("tail", "tail.cfg"),
    ("truncate", "truncation.cfg"),
    ("contract", "contraction_diffusive.cfg"),
    ("mms", "mms.cfg"),
])
def test_experiments_enforce_run_checks(tmp_path, capsys, monkeypatch, command, config):
    # zero envelope slack: the decay check every run makes must trip here too
    _shrink_envelope(monkeypatch)
    cfg = str(CONFIG_DIR / config)
    assert main([command, cfg, "--output-dir", str(tmp_path / "o")]) == 3
    assert "check failed: temperature energy" in capsys.readouterr().err


def test_mms_subcommand(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        """
physics.rt2 = 1.3
physics.alpha = 0.8
physics.beta = 0.3
physics.h = 1.0
physics.lx = 1.0
mms.sizes = 8,16
mms.dt = 0.002
mms.horizon = 0.05
""",
    )
    out = tmp_path / "mms"
    assert main(["mms", cfg, "--output-dir", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "observed orders" in captured
    rows = (out / "mms.csv").read_text().strip().splitlines()
    assert rows[0] == "delta,err_v1,err_v2,err_T,order_v,order_T"
    assert len(rows) == 3


def test_tail_subcommand(tmp_path):
    cfg = write_cfg(tmp_path, TINY_TAIL)
    out = tmp_path / "tail"
    assert main(["tail", cfg, "--output-dir", str(out)]) == 0
    rows = (out / "tail.csv").read_text().splitlines()
    assert rows[0] == "t,total,w_1.2,w_1.6,w_1.9"


def test_tail_probe_beyond_horizon_exits_before_stepping(tmp_path, capsys, monkeypatch):
    import peqlab.integrator as integrator

    def no_step(*args):
        raise AssertionError("stepped before the horizon was checked")

    monkeypatch.setattr(integrator, "step", no_step)
    cfg = write_cfg(tmp_path, TINY_TAIL.replace("tail.tau_probe = 1.0", "tail.tau_probe = 3.04"))
    assert main(["tail", cfg, "--output-dir", str(tmp_path / "o")]) == 1
    assert "config error: tau_probe lies beyond the simulated horizon" in capsys.readouterr().err


def test_tail_radii_sharing_a_column_name_exit_before_stepping(tmp_path, capsys, monkeypatch):
    _forbid_steps(monkeypatch)
    cfg = write_cfg(tmp_path, TINY_TAIL.replace("tail.radii = 1.2,1.6,1.9", "tail.radii = 1.2,1.2000001,1.9"))
    out = tmp_path / "o"
    assert main(["tail", cfg, "--output-dir", str(out)]) == 1
    assert "config error: tail radii 1.2 and 1.2000001 both name the CSV column w_1.2" in capsys.readouterr().err
    assert not (out / "tail.csv").exists()


def _forbid_steps(monkeypatch):
    import peqlab.integrator as integrator

    def no_step(*args):
        raise AssertionError("stepped before the input was checked")

    monkeypatch.setattr(integrator, "step", no_step)


@pytest.mark.parametrize("command,config", [
    ("run", "zero.cfg"),
    ("mms", "mms.cfg"),
    ("tail", "tail.cfg"),
    ("truncate", "truncation.cfg"),
    ("contract", "contraction_default.cfg"),
])
def test_unusable_output_dir_exits_before_stepping(tmp_path, capsys, monkeypatch, command, config):
    _forbid_steps(monkeypatch)
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    code = main([command, str(CONFIG_DIR / config), "--output-dir", str(blocker)])
    assert code == 1
    assert "config error: cannot make output directory" in capsys.readouterr().err


def test_output_dir_defaults_to_out_and_the_config_stem(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfgs").mkdir()
    assert main(["run", write_cfg(tmp_path / "cfgs", TINY_RUN, "tiny.cfg")]) == 0
    assert sorted(p.as_posix() for p in Path("out").rglob("*")) == [
        "out/tiny", "out/tiny/snapshot_final.peq", "out/tiny/timeseries.csv"]


def test_empty_output_dir_exits_before_making_a_directory(tmp_path, capsys, monkeypatch):
    _forbid_steps(monkeypatch)
    monkeypatch.chdir(tmp_path)
    assert main(["run", write_cfg(tmp_path, TINY_RUN, "tiny.cfg"), "--output-dir", ""]) == 1
    assert capsys.readouterr().err.startswith("config error: --output-dir is empty")
    assert [p.name for p in tmp_path.iterdir()] == ["tiny.cfg"]


@pytest.mark.parametrize("sizes", ["8", "8,16,2", "", "2,4", "8,8", "8,16,8"])
def test_bad_mms_sizes_rejected(tmp_path, capsys, monkeypatch, sizes):
    _forbid_steps(monkeypatch)
    cfg = write_cfg(tmp_path, f"mms.sizes = {sizes}\n")
    out = tmp_path / "o"
    assert main(["mms", cfg, "--output-dir", str(out)]) == 1
    assert "config error: mms.sizes must list at least two" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("blocked,where,steps", [
    ("timeseries.csv", "cannot write {out}/timeseries.csv", False),
    ("snapshot_final.peq", "cannot write snapshot {out}/snapshot_final.peq", True),
])
def test_unwritable_run_output_exits_1(tmp_path, capsys, monkeypatch, blocked, where, steps):
    """A directory where an output file goes exits 1, the CSV's before the first step."""
    if not steps:
        _forbid_steps(monkeypatch)
    out = tmp_path / "o"
    (out / blocked).mkdir(parents=True)
    assert main(["run", write_cfg(tmp_path, TINY_RUN), "--output-dir", str(out)]) == 1
    assert f"config error: {where.format(out=out)}: " in capsys.readouterr().err


def test_plot_unreadable_input_or_unwritable_output_exits_1(tmp_path, capsys):
    assert main(["plot", str(tmp_path), "l2_T"]) == 1
    assert f"config error: cannot read time series {tmp_path}: " in capsys.readouterr().err
    csv = tmp_path / "ok.csv"
    csv.write_text("t,l2_T\n0,1\n0.1,0.5\n")
    assert main(["plot", str(csv), "l2_T", "--out", str(tmp_path), "--linear"]) == 1
    assert f"config error: {csv}: cannot write plot {tmp_path}: " in capsys.readouterr().err


TINY_TRUNCATE = """
physics.re1 = 0.5
physics.re2 = 0.5
physics.rt1 = 4.0
physics.rt2 = 1.0
physics.alpha = 4.0
physics.beta = 0.1
physics.h = 0.5
physics.lx = 2.0
grid.nx = 16
grid.ny = 6
grid.nz = 4
step.dt = 0.04
step.t_end = 1.0
step.output_every = 25
init.kind = zero
q.kind = gaussian
q.width = 0.12
q.amplitude = 0.5
truncate.factor = 2
truncate.max_rel = 0.01
"""


MMS_INIT = TINY_RUN.replace("init.kind = gaussian", "init.kind = mms")


HEATED_RUN = TINY_RUN.replace("q.kind = zero", "q.kind = gaussian")


@pytest.mark.parametrize("command,body,message", [
    ("run", MMS_INIT.replace("q.kind = zero", "q.kind = gaussian"), "q.kind must be zero"),
    ("truncate", MMS_INIT, "under init.kind = mms"),
    ("contract", TINY_RUN.replace("init.kind = gaussian", "init.kind = zero"),
     "twin equals the base state"),
    ("tail", TINY_TAIL.replace("tail.epsilon = 0.001", "tail.epsilon = -1"), "tail.epsilon must be >= 0"),
    ("truncate", TINY_TRUNCATE.replace("truncate.max_rel = 0.01", "truncate.max_rel = -1"),
     "truncate.max_rel must be >= 0"),
    ("truncate", TINY_TRUNCATE.replace("grid.nx = 16", "grid.nx = 3"), "nx must be an integer >= 4"),
    ("truncate", TINY_TRUNCATE.replace("grid.ny = 6", "grid.ny = 2"), "ny must be an integer >= 4"),
    ("truncate", TINY_TRUNCATE.replace("grid.nz = 4", "grid.nz = 2"), "nz must be an integer >= 4"),
    ("run", TINY_RUN + "physics.f0 = nan\n", "physics.f0: expected a finite number, got 'nan'"),
    ("run", TINY_RUN + "physics.beta = inf\n", "physics.beta: expected a finite number, got 'inf'"),
    ("run", TINY_RUN.replace("init.t_amplitude = 0.5", "init.t_amplitude = nan"),
     "init.t_amplitude: expected a finite number"),
    ("run", HEATED_RUN + "q.amplitude = inf\n", "q.amplitude: expected a finite number"),
    ("run", TINY_RUN + "init.width = nan\n", "init.width: expected a finite number"),
    ("tail", TINY_TAIL.replace("tail.radii = 1.2,1.6,1.9", "tail.radii = nan,1.6,1.9"),
     "tail.radii: expected a finite number, got 'nan'"),
    ("tail", TINY_TAIL.replace("tail.radii = 1.2,1.6,1.9", "tail.radii ="),
     "tail radii: at least one radius is needed"),
    ("run", TINY_RUN + "init.width = 0\n", "init.width must be > 0, got 0.0"),
    ("run", TINY_RUN + "init.width = -0.25\n", "init.width must be > 0, got -0.25"),
    ("run", HEATED_RUN + "q.width = 0\n", "q.width must be > 0, got 0.0"),
    ("truncate", TINY_TRUNCATE.replace("q.kind = gaussian", "q.kind = file\nq.path = q.npy"),
     "truncate requires an analytic heat source"),
    ("run", TINY_RUN.replace("step.dt = 0.02", "step.dt = 0"), "dt must be positive"),
    ("run", TINY_RUN.replace("step.output_every = 2", "step.output_every = 0"),
     "output_every must be >= 1"),
    ("run", TINY_RUN.replace("init.kind = gaussian", "init.kind = blob"), "unknown init.kind 'blob'"),
    ("run", TINY_RUN.replace("q.kind = zero", "q.kind = sine"), "unknown q.kind 'sine'"),
    ("run", TINY_RUN.replace("q.kind = zero", "q.kind = file"), "q.kind = file requires q.path"),
    ("run", TINY_RUN + "output.snapshots = yes\n",
     "bad value for output.snapshots: expected true/false, got 'yes'"),
    ("run", TINY_RUN.replace("q.kind = zero", "q.kind = file\nq.path = complex_q.npy"),
     "q file complex_q.npy holds complex128 values, not real numbers"),
    ("run", TINY_RUN.replace("q.kind = zero", "q.kind = file\nq.path = q.npz"),
     "q file q.npz is not a .npy array"),
], ids=["mms_init_with_q", "truncate_mms_init", "contract_identical_twin",
        "negative_tail_epsilon", "negative_truncate_max_rel", "truncate_nx_3", "truncate_ny_2",
        "truncate_nz_2", "nan_f0", "inf_beta", "nan_t_amplitude", "inf_q_amplitude",
        "nan_init_width", "nan_tail_radius", "empty_tail_radii", "zero_init_width", "negative_init_width",
        "zero_q_width", "truncate_q_file", "zero_dt", "zero_output_every", "unknown_init_kind",
        "unknown_q_kind", "q_file_without_path", "snapshots_yes", "complex_q_file", "npz_q_file"])
def test_unusable_input_exits_before_stepping(tmp_path, capsys, monkeypatch, command, body, message):
    _forbid_steps(monkeypatch)
    # q.path is read from the working directory
    monkeypatch.chdir(tmp_path)
    np.save("complex_q.npy", np.full((8, 8, 4), 1e-3 + 2j))
    np.savez("q.npz", q=np.zeros((8, 8, 4)))
    out = tmp_path / "o"
    assert main([command, write_cfg(tmp_path, body), "--output-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("key,message", [
    ("init.t_amplitude", "|v|^2=0.000362767 |T|^2=inf |Q|^2=0"),
    ("init.v_amplitude", "|v|^2=inf |T|^2=0.046835 |Q|^2=0"),
], ids=["T", "v"])
def test_overflowing_initial_norms_exit_before_stepping(tmp_path, capsys, monkeypatch, key, message):
    """A finite amplitude whose squared norm overflows is rejected with one line and no CSV."""
    _forbid_steps(monkeypatch)
    body, found = re.subn(rf"^{key} = .*$", f"{key} = 1e200", (CONFIG_DIR / "dissipation.cfg").read_text(),
                          flags=re.M)
    assert found == 1
    out = tmp_path / "o"
    assert main(["run", write_cfg(tmp_path, body), "--output-dir", str(out)]) == 1
    assert capsys.readouterr().err == f"config error: initial squared norms overflow: {message}\n"
    assert not (out / "timeseries.csv").exists()


def test_truncate_subcommand(tmp_path):
    cfg = write_cfg(tmp_path, TINY_TRUNCATE)
    out = tmp_path / "trunc"
    assert main(["truncate", cfg, "--output-dir", str(out)]) == 0
    assert (out / "truncate.csv").exists()


def test_truncate_starts_from_init(tmp_path):
    tables = []
    for kind in ("zero", "gaussian"):
        body = TINY_TRUNCATE.replace(
            "init.kind = zero", f"init.kind = {kind}\ninit.t_amplitude = 0.5\ninit.v_amplitude = 0.05")
        out = tmp_path / kind
        assert main(["truncate", write_cfg(tmp_path, body, f"{kind}.cfg"), "--output-dir", str(out)]) == 0
        tables.append(read_timeseries(out / "truncate.csv"))
    zero, blob = tables
    assert zero["t"].tolist() == blob["t"].tolist()
    assert zero["rel_diff"][-1] != blob["rel_diff"][-1]


def test_contract_subcommand(tmp_path):
    cfg = write_cfg(
        tmp_path,
        TINY_RUN + "contract.t_scale = 1.5\ncontract.shift_x = 0.2\n",
    )
    out = tmp_path / "contract"
    assert main(["contract", cfg, "--output-dir", str(out)]) == 0
    rows = (out / "contract.csv").read_text().splitlines()
    assert rows[0] == "t,dist_v,dist_T,dist_l2,v_proxy"
    data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    assert data[-1, 3] < data[0, 3]


def _tail_verdict(cfg, data):
    tail = cfg.tail_config()
    rows = list(zip(*data.values()))
    lines = [f"r={r:g}: sup tail/total for t>={tail.tau_probe:g} is {sup:.3e}"
             for r, sup in zip(tail.radii, tail.sup_rel(rows))]
    return lines + [f"smallest radius within epsilon: r={tail.r_star(rows):g}"]


def _truncate_verdict(cfg, data):
    return [f"max relative difference against {cfg['truncate.factor']}x domain: "
            f"{max(data['rel_diff']):.3e}"]


def _contract_verdict(cfg, data):
    dist = data["dist_l2"]
    return [f"distance {dist[0]:.6g} -> {dist[-1]:.6g} over t={data['t'][-1]:g}"]


@pytest.mark.parametrize("command,body,table,verdict", [
    ("tail", TINY_TAIL, "tail.csv", _tail_verdict),
    ("truncate", TINY_TRUNCATE, "truncate.csv", _truncate_verdict),
    ("contract", TINY_RUN + "contract.t_scale = 1.5\ncontract.shift_x = 0.2\n", "contract.csv",
     _contract_verdict),
], ids=["tail", "truncate", "contract"])
def test_printed_verdict_comes_from_the_written_table(tmp_path, capsys, command, body, table, verdict):
    cfg = write_cfg(tmp_path, body)
    out = tmp_path / "o"
    assert main([command, cfg, "--output-dir", str(out)]) == 0
    expected = verdict(parse_config_file(cfg), read_timeseries(out / table))
    assert capsys.readouterr().out.splitlines() == expected


TINY_MMS = """
physics.h = 1.0
physics.lx = 1.0
mms.sizes = 8,16
mms.dt = 0.002
mms.horizon = 0
"""


@pytest.mark.parametrize("command,body,message", [
    # a zero horizon leaves T exact, with no error to fit an order to, and v at roundoff,
    # whose errors (about 8e-18 and 7e-18) are fitted like any others
    ("mms", TINY_MMS, "convergence orders out of range: v=0.112, T=nan"),
    ("tail", TINY_TAIL.replace("tail.epsilon = 0.001", "tail.epsilon = 0"),
     "no radius achieved tail ratio <= 0"),
    ("truncate", TINY_TRUNCATE.replace("truncate.max_rel = 0.01", "truncate.max_rel = 1e-300"),
     "exceeds 1e-300"),
    # a zero horizon makes the first row the last
    ("contract", TINY_RUN.replace("step.t_end = 0.2", "step.t_end = 0"),
     "trajectories did not contract over the configured horizon"),
], ids=["mms", "tail", "truncate", "contract"])
def test_failed_verdict_exits_3(tmp_path, capsys, command, body, message):
    assert main([command, write_cfg(tmp_path, body), "--output-dir", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("check failed: ") and message in err


def test_non_monotone_mms_refinement_exits_3(tmp_path, capsys, monkeypatch):
    """cmd_mms's second verdict: orders in range, errors not shrinking at every refinement."""
    from peqlab import cli
    from peqlab.mms import MmsReport

    levels = ((0.25, 1e-3, 1e-3, 2e-3), (0.125, 2.5e-4, 2.5e-4, 5e-4))
    monkeypatch.setattr(cli, "mms_convergence_study",
                        lambda p, sizes, dt, horizon: MmsReport(levels, 2.0, 2.0, monotone=False))
    out = tmp_path / "o"
    assert main(["mms", write_cfg(tmp_path, TINY_MMS), "--output-dir", str(out)]) == 3
    captured = capsys.readouterr()
    assert "observed orders: velocity 2.000, temperature 2.000" in captured.out
    assert captured.err.startswith("check failed: ") and "refinement errors are not monotone" in captured.err
    assert len((out / "mms.csv").read_text().splitlines()) == 3


def test_q_file_run_matches_gaussian_source(tmp_path):
    """A heat source read from file runs byte for byte as the source it was saved from."""
    gaussian = TINY_RUN.replace("q.kind = zero", "q.kind = gaussian")
    cfg = parse_config_file(write_cfg(tmp_path, gaussian, "gaussian.cfg"))
    np.save(tmp_path / "q.npy", cfg.q_field(cfg.grid()))
    from_file = gaussian.replace("q.kind = gaussian", f"q.kind = file\nq.path = {tmp_path / 'q.npy'}")
    outs = []
    for name, body in (("gaussian", gaussian), ("file", from_file)):
        outs.append(tmp_path / name)
        assert main(["run", write_cfg(tmp_path, body, f"{name}.cfg"), "--output-dir", str(outs[-1])]) == 0
    for table in ("timeseries.csv", "snapshot_final.peq"):
        assert (outs[0] / table).read_bytes() == (outs[1] / table).read_bytes(), table
    assert read_timeseries(outs[0] / "timeseries.csv")["l2_T"][-1] > 0.0


def test_hash_inside_a_q_path_is_part_of_the_path(tmp_path):
    np.save(tmp_path / "#1.npy", np.zeros((8, 8, 4)))
    body = TINY_RUN.replace("q.kind = zero", f"q.kind = file\nq.path = {tmp_path}/#1.npy")
    assert main(["run", write_cfg(tmp_path, body), "--output-dir", str(tmp_path / "o")]) == 0


def test_plot_with_envelope(tmp_path):
    """The decay envelope is a column of the run's time series, plotted as any other."""
    out = tmp_path / "plotrun"
    assert main(["run", write_cfg(tmp_path, TINY_RUN), "--output-dir", str(out)]) == 0
    svg = tmp_path / "fig.svg"
    assert main(["plot", str(out / "timeseries.csv"), "l2_T,envelope_T", "--out", str(svg)]) == 0
    text = svg.read_text()
    assert text.count("<polyline") == 2 and ">l2_T<" in text and ">envelope_T<" in text


def test_plot_takes_no_config(tmp_path, capsys):
    """plot reads only its CSV: an option naming a config is a usage error."""
    csv = tmp_path / "x.csv"
    csv.write_text("t,l2_T\n0,1\n0.1,0.5\n")
    for flag in ("--envelope", "--config"):
        assert main(["plot", str(csv), "l2_T", flag, str(CONFIG_DIR / "zero.cfg")]) == 1
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_plot_envelope_uses_the_runs_heat_source(tmp_path, monkeypatch):
    """The envelope_T column of an init.kind = mms run carries the manufactured heat source's |Q|^2."""
    from peqlab import cli
    from peqlab.diagnostics import gronwall_T_envelope, kappa, l2sq
    from peqlab.mms import MmsSpec

    # init.kind = mms brings its own heat source; the q.* keys leave q_field zero
    body = MMS_INIT.replace("grid.nz = 4", "grid.nz = 8").replace("step.t_end = 0.2", "step.t_end = 1.0")
    cfg = write_cfg(tmp_path, body)
    out = tmp_path / "o"
    assert main(["run", cfg, "--output-dir", str(out)]) == 0
    plotted = {}
    monkeypatch.setattr(cli, "plot_svg", lambda series, *args, **kwargs: plotted.update(series))
    assert main(["plot", str(out / "timeseries.csv"), "l2_T,envelope_T"]) == 0
    t, envelope = plotted["envelope_T"]
    _, l2_T = plotted["l2_T"]
    run_cfg = parse_config_file(cfg)
    p, g = run_cfg.params(), run_cfg.grid()
    l2_q = l2sq(MmsSpec(p).forced_state(g).Q, g)
    assert l2_q > 0.0
    # the envelope the run's decay monitor checked, which bounds the run's energy
    assert envelope.tolist() == [gronwall_T_envelope(s, l2_T[0], l2_q, kappa(p)) for s in t]
    assert np.all(l2_T <= envelope)


@pytest.mark.parametrize("config", ["contraction_default.cfg", "dissipation_temponly.cfg"])
def test_monitor_columns_hold_the_values_the_monitors_compare(tmp_path, config):
    """Every row's envelope_T, poincare_T and poincare_v are, bit for bit, those of its own record."""
    from peqlab import diagnostics as diag
    from peqlab.integrator import initial_norms

    out = tmp_path / "o"
    assert main(["run", str(CONFIG_DIR / config), "--output-dir", str(out)]) == 0
    data = read_timeseries(out / "timeseries.csv")
    cfg = parse_config_file(CONFIG_DIR / config)
    p, g = cfg.params(), cfg.grid()
    _, l2_t0, l2_q = initial_norms(cfg.initial_state(p, g), g)
    assert (l2_q > 0.0) == (config == "contraction_default.cfg")
    for row in zip(*(data[name].tolist() for name in diag.CSV_COLUMNS)):
        rec = diag.DiagRecord(*row)
        assert rec.envelope_T == diag.gronwall_T_envelope(rec.t, l2_t0, l2_q, diag.kappa(p))
        assert rec.poincare_T == diag.check_poincare_T(rec, p)
        assert rec.poincare_v == diag.check_poincare_v(rec, p)


#: per record monitor, a run on which it alone can trip (the other Poincare
#: ratio is zero on every row), its tolerance and the value it compares
TRIPS = {
    "temperature": (TINY_RUN + "step.temperature_only = true\n", "POINCARE_TOL", lambda d: d["poincare_T"]),
    "velocity": (TINY_RUN.replace("init.t_amplitude = 0.5", "init.t_amplitude = 0\ninit.v_amplitude = 0.3"),
                 "POINCARE_TOL", lambda d: d["poincare_v"]),
    "envelope": (HEATED_RUN.replace("init.kind = gaussian", "init.kind = zero"), "GRONWALL_FACTOR",
                 lambda d: d["l2_T"] / d["envelope_T"]),
}


@pytest.mark.parametrize("monitor", sorted(TRIPS))
def test_a_tripped_record_monitor_leaves_rows_that_pass_it(tmp_path, capsys, monkeypatch, monitor):
    """A monitor whose limit falls between a row's value and every earlier one fails on that row's value.

    The rows written before it are the untripped run's, and each passes
    every record monitor evaluated again, as the monitors do, from its own columns.
    """
    import peqlab.integrator as integrator

    body, tolerance, compared = TRIPS[monitor]
    cfg = write_cfg(tmp_path, body)
    assert main(["run", cfg, "--output-dir", str(tmp_path / "free")]) == 0
    free = read_timeseries(tmp_path / "free" / "timeseries.csv")
    value = compared(free)
    k = next(k for k in range(1, len(value)) if value[k] > value[:k].max())
    limit = float(value[:k].max() + value[k]) / 2
    monkeypatch.setattr(integrator, tolerance, limit - 1.0 if tolerance == "POINCARE_TOL" else limit)
    capsys.readouterr()
    assert main(["run", cfg, "--output-dir", str(tmp_path / "tripped")]) == 3
    err = capsys.readouterr().err
    if monitor == "envelope":
        failing = f"temperature energy {free['l2_T'][k]:.6g} above decay envelope {free['envelope_T'][k] * limit:.6g}"
    else:
        failing = f"{monitor} Poincare ratio {value[k]:.6g} > 1 + "
    assert err.startswith(f"check failed: {failing}") and f" at t={free['t'][k]:.6g}" in err
    written = read_timeseries(tmp_path / "tripped" / "timeseries.csv")
    assert all(np.array_equal(written[name], free[name][:k], equal_nan=True) for name in free)
    assert np.all(written["poincare_T"] <= 1.0 + integrator.POINCARE_TOL)
    assert np.all(written["poincare_v"] <= 1.0 + integrator.POINCARE_TOL)
    assert np.all(written["l2_T"] <= written["envelope_T"] * integrator.GRONWALL_FACTOR)


def test_successive_main_calls_behave_like_fresh_calls(tmp_path):
    from peqlab import cli

    cfg = write_cfg(tmp_path, TINY_RUN)
    csv = str(tmp_path / "o" / "timeseries.csv")
    assert main(["run", cfg, "--output-dir", str(tmp_path / "o")]) == 0

    def plot(name, columns, *flags):
        assert main(["plot", csv, columns, "--out", str(tmp_path / name), *flags]) == 0
        return (tmp_path / name).read_bytes()

    linear = plot("linear.svg", "l2_T,envelope_T", "--linear")
    log = plot("log.svg", "l2_T")
    assert cli.build_parser() is cli.build_parser()
    cli.build_parser.cache_clear()
    assert log == plot("fresh.svg", "l2_T")
    assert b">envelope_T<" in linear and b">envelope_T<" not in log


@pytest.mark.parametrize("text,columns,where", [
    ("", "l2_T", "empty time series"),
    ("t,l2_T\n0,1\n0.1,abc\n", "l2_T", "line 3"),
    ("t,l2_T\n0,1\n\n0.1\n", "l2_T", "line 4"),
    # a CSV written by hand, as no command leaves a header without rows
    ("t,l2_T\n", "l2_T", "no rows"),
    ("t,l2_T,l2_T\n0,1,5\n0.1,0.5,6\n", "l2_T", "column l2_T twice"),
    ("x,l2_T\n0,1\n", "l2_T", "no time column"),
    ("t,l2_T\n0,1\n", "no_such", "unknown columns ['no_such']"),
    # zero.cfg's l2_T, all zeros, which the log axis drops
    ("t,l2_T\n0,0\n0.1,0\n", "l2_T", "nothing to plot"),
    ("t,l2_T\n0,1\n", ",", "no column given"),
], ids=["empty", "non_numeric", "ragged", "header_only", "duplicate_column",
        "no_time_column", "unknown_column", "all_samples_dropped", "no_column"])
def test_malformed_timeseries_plot_exits_1(tmp_path, capsys, text, columns, where):
    csv = tmp_path / "bad.csv"
    csv.write_text(text)
    assert main(["plot", str(csv), columns, "--out", str(tmp_path / "f.svg")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(csv) in err and where in err
    assert not (tmp_path / "f.svg").exists()


def test_plot_escapes_its_text(tmp_path):
    """A file name with XML's special characters gives a well-formed SVG that shows it as written."""
    from xml.dom import minidom

    csv = tmp_path / "a&b<c.csv"
    csv.write_text("t,l2_T\n0,1\n0.1,0.5\n")
    svg = tmp_path / "f.svg"
    assert main(["plot", str(csv), "l2_T", "--out", str(svg)]) == 0
    texts = [node.firstChild.data for node in minidom.parse(str(svg)).getElementsByTagName("text")]
    assert "a&b<c.csv" in texts and "l2_T" in texts


def test_plot_one_row_series(tmp_path):
    """A zero horizon writes one record: its plot spans no time and, with the envelope, no energy."""
    cfg = write_cfg(tmp_path, TINY_RUN.replace("step.t_end = 0.2", "step.t_end = 0"))
    out = tmp_path / "o"
    assert main(["run", cfg, "--output-dir", str(out)]) == 0
    data = read_timeseries(out / "timeseries.csv")
    assert len(data["t"]) == 1 and data["envelope_T"][0] == data["l2_T"][0]
    svg = tmp_path / "f.svg"
    assert main(["plot", str(out / "timeseries.csv"), "l2_T,envelope_T", "--out", str(svg)]) == 0
    assert ">envelope_T<" in svg.read_text()


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in a call still running after `seconds` (SIGALRM, so the main thread only)."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("rows,flags", [
    ("0,1.0\n1,1.0000000000000002\n", ("--linear",)),
    # log10 of these is -2.0 and -1.9999999999999998
    ("0,0.01\n1,0.010000000000000004\n", ()),
], ids=["linear", "log"])
def test_plot_of_a_span_below_float_resolution_finishes(tmp_path, rows, flags):
    """Values one ulp apart give a y tick step below half an ulp, which no longer moves a tick."""
    csv, svg = tmp_path / "x.csv", tmp_path / "x.svg"
    csv.write_text("t,a\n" + rows)
    with time_limit(1.0):
        assert main(["plot", str(csv), "a", "--out", str(svg), *flags]) == 0
    assert svg.read_text().count("<polyline") == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_q_file_rejected(tmp_path, capsys, bad):
    q = np.zeros((8, 8, 4))
    q[3, 2, 1] = bad
    np.save(tmp_path / "q.npy", q)
    body = TINY_RUN.replace("q.kind = zero", f"q.kind = file\nq.path = {tmp_path / 'q.npy'}")
    out = tmp_path / "o"
    assert main(["run", write_cfg(tmp_path, body), "--output-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert "non-finite" in err and "(3, 2, 1)" in err
    assert not (out / "timeseries.csv").exists()  # rejected before the first step


@pytest.mark.parametrize("command,body", [
    ("run", TINY_RUN),
    ("truncate", TINY_TRUNCATE),
    ("contract", TINY_RUN + "contract.t_scale = 1.5\ncontract.shift_x = 0.2\n"),
], ids=["run", "truncate", "contract"])
def test_commands_copy_no_state(tmp_path, monkeypatch, command, body):
    """Each member advances the state its command built: no State is ever copied."""
    from peqlab.model import State

    def no_copy(self):
        raise AssertionError("a State was copied")

    monkeypatch.setattr(State, "copy", no_copy)
    assert main([command, write_cfg(tmp_path, body), "--output-dir", str(tmp_path / "o")]) == 0


def test_q_file_of_the_wrong_shape_rejected(tmp_path, capsys, monkeypatch):
    _forbid_steps(monkeypatch)
    np.save(tmp_path / "q.npy", np.zeros((8, 8, 5)))
    body = TINY_RUN.replace("q.kind = zero", f"q.kind = file\nq.path = {tmp_path / 'q.npy'}")
    out = tmp_path / "o"
    assert main(["run", write_cfg(tmp_path, body), "--output-dir", str(out)]) == 1
    assert "q file shape (8, 8, 5) does not match grid (8, 8, 4)" in capsys.readouterr().err
    assert not (out / "timeseries.csv").exists()


def test_readme_command_examples_parse():
    """Every `peqlab` line of the README's command-line block parses with the current options."""
    import shlex

    from peqlab.cli import build_parser

    readme = (CONFIG_DIR.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    lines = (line.split("#", 1)[0].strip() for line in block.replace("\\\n", " ").splitlines())
    commands = [line for line in lines if line.startswith("peqlab ")]
    assert len(commands) == 6
    for command in commands:
        try:
            build_parser().parse_args(shlex.split(command)[1:])
        except SystemExit:
            pytest.fail(f"the README example does not parse: {command}")


def test_unreadable_q_file_rejected(tmp_path, capsys):
    body = TINY_RUN.replace("q.kind = zero", f"q.kind = file\nq.path = {tmp_path / 'none.npy'}")
    assert main(["run", write_cfg(tmp_path, body), "--output-dir", str(tmp_path / "o")]) == 1
    assert "cannot read q file" in capsys.readouterr().err


def test_streamed_series_matches_batch_writer(tmp_path):
    from peqlab.integrator import run
    from peqlab.io import write_timeseries

    cfg_path = write_cfg(tmp_path, TINY_RUN)
    assert main(["run", cfg_path, "--output-dir", str(tmp_path / "o")]) == 0
    cfg = parse_config_file(cfg_path)
    p, g = cfg.params(), cfg.grid()
    _, records = run(cfg.initial_state(p, g), p, g, cfg.step_config())
    write_timeseries(records, tmp_path / "batch.csv")
    assert (tmp_path / "o" / "timeseries.csv").read_bytes() == (tmp_path / "batch.csv").read_bytes()


def test_failed_run_keeps_records_and_reports_time(tmp_path, capsys, monkeypatch):
    import peqlab.integrator as integrator
    from peqlab.errors import NumericalError

    step = integrator.step
    calls = []

    def failing_step(*args):
        calls.append(1)
        if len(calls) == 7:
            raise NumericalError("injected failure")
        return step(*args)

    monkeypatch.setattr(integrator, "step", failing_step)
    out = tmp_path / "o"
    assert main(["run", write_cfg(tmp_path, TINY_RUN), "--output-dir", str(out)]) == 2
    assert "injected failure; run aborted; last valid time t=0.12" in capsys.readouterr().err
    data = read_timeseries(out / "timeseries.csv")
    assert np.allclose(data["t"], [0.0, 0.04, 0.08, 0.12])


@pytest.mark.parametrize("error,code,prefix", [
    ("ConfigError", 1, "config error"),
    ("NumericalError", 2, "numerical failure"),
    ("CheckError", 3, "check failed"),
])
def test_each_failure_class_has_its_exit_code_and_prefix(tmp_path, capsys, monkeypatch, error, code, prefix):
    """main's one failure table, with the run's note (its last valid time) after the message."""
    import peqlab.errors as errors
    import peqlab.integrator as integrator

    def failing_step(*args):
        raise getattr(errors, error)("injected")

    monkeypatch.setattr(integrator, "step", failing_step)
    assert main(["run", write_cfg(tmp_path, TINY_RUN), "--output-dir", str(tmp_path / "o")]) == code
    assert capsys.readouterr().err == f"{prefix}: injected; run aborted; last valid time t=0\n"


@pytest.mark.parametrize("body,message", [
    (TINY_RUN, "energy increased at t=0.06: "),
    (HEATED_RUN, "temperature Poincare ratio nan > 1 + 0.01 at t=0.08"),
], ids=["energy", "record"])
def test_state_that_overflows_mid_run_fails_its_monitor_quietly(tmp_path, capsys, monkeypatch, body, message):
    """A state whose squares overflow fails a monitor with no numpy warning on stderr."""
    import peqlab.integrator as integrator
    from peqlab.grid import INTERIOR

    step = integrator.step
    calls = []

    def blowing_up_step(s, *args):
        step(s, *args)
        calls.append(1)
        if len(calls) == 3:
            s.T[INTERIOR] *= 1e200
        return s

    monkeypatch.setattr(integrator, "step", blowing_up_step)
    assert main(["run", write_cfg(tmp_path, body), "--output-dir", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"check failed: {message}") and err.count("\n") == 1


def test_failed_check_keeps_records(tmp_path, capsys, monkeypatch):
    import peqlab.integrator as integrator
    from peqlab.grid import INTERIOR

    step = integrator.step
    calls = []

    def heating_step(s, *args):
        step(s, *args)
        calls.append(1)
        # an energy gain no unforced step can make trips the energy check at t = 0.06
        if len(calls) == 3:
            s.T[INTERIOR] *= 2.0
        return s

    monkeypatch.setattr(integrator, "step", heating_step)
    cfg = write_cfg(tmp_path, TINY_RUN)
    out = tmp_path / "o"
    assert main(["run", cfg, "--output-dir", str(out)]) == 3
    assert "energy increased at t=0.06" in capsys.readouterr().err
    data = read_timeseries(out / "timeseries.csv")
    assert np.allclose(data["t"], [0.0, 0.04])


@pytest.mark.parametrize("command,config,table,header", [
    ("tail", "tail.cfg", "tail.csv", "t,total,w_1.2,w_1.6,w_1.9"),
    ("truncate", "truncation.cfg", "truncate.csv", "t,rel_diff"),
    ("contract", "tail.cfg", "contract.csv", "t,dist_v,dist_T,dist_l2,v_proxy"),
])
def test_failed_experiment_keeps_rows(tmp_path, capsys, monkeypatch, command, config, table, header):
    import peqlab.integrator as integrator

    # unforced, every step is checked for energy; a slack of -1 asks it to lose all of it
    monkeypatch.setattr(integrator, "ENERGY_SLACK", -1.0)
    # a small blob in place of zero data keeps the contraction twin distinct
    body = (CONFIG_DIR / config).read_text()
    assert "init.kind = zero\n" in body and "q.kind = gaussian\n" in body
    body = body.replace("init.kind = zero\n", "init.kind = gaussian\ninit.t_amplitude = 0.01\n")
    cfg = write_cfg(tmp_path, body.replace("q.kind = gaussian\n", "q.kind = zero\n"))
    out = tmp_path / "o"
    assert main([command, cfg, "--output-dir", str(out)]) == 3
    assert "check failed: energy increased at t=0.02" in capsys.readouterr().err
    assert (out / table).read_text().splitlines()[0] == header
    assert read_timeseries(out / table)["t"].tolist() == [0.0]


def test_two_runs_identical_bytes(tmp_path):
    cfg = write_cfg(tmp_path, TINY_RUN)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", cfg, "--output-dir", str(a)]) == 0
    assert main(["run", cfg, "--output-dir", str(b)]) == 0
    assert (a / "timeseries.csv").read_bytes() == (b / "timeseries.csv").read_bytes()
    assert (a / "snapshot_final.peq").read_bytes() == (b / "snapshot_final.peq").read_bytes()
