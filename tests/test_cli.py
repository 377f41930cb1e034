from pathlib import Path

import numpy as np
import pytest

from peqlab.cli import main
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
init.center_y = 0.5
init.center_z = -0.25
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
q.center_y = 0.5
q.center_z = -0.25
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


def test_injected_check_violation_exits_3(tmp_path):
    # zero envelope slack makes any heated state fail the decay check
    cfg = write_cfg(tmp_path, TINY_RUN + "check.gronwall = true\ncheck.gronwall_factor = 1e-12\n")
    assert main(["run", cfg, "--output-dir", str(tmp_path / "o")]) == 3


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
])
def test_experiments_enforce_run_checks(tmp_path, capsys, command, config):
    # zero envelope slack: the decay check configured for a run must trip here too
    body = (CONFIG_DIR / config).read_text() + "check.gronwall = true\ncheck.gronwall_factor = 1e-12\n"
    cfg = write_cfg(tmp_path, body)
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


@pytest.mark.parametrize("sizes", ["8", "8,16,2", "", "2,4"])
def test_bad_mms_sizes_rejected(tmp_path, capsys, monkeypatch, sizes):
    _forbid_steps(monkeypatch)
    cfg = write_cfg(tmp_path, f"mms.sizes = {sizes}\n")
    out = tmp_path / "o"
    assert main(["mms", cfg, "--output-dir", str(out)]) == 1
    assert "config error: mms.sizes must list at least two" in capsys.readouterr().err
    assert not out.exists()


def test_truncate_subcommand(tmp_path):
    cfg = write_cfg(
        tmp_path,
        """
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
q.center_y = 0.5
q.center_z = -0.25
q.width = 0.12
q.amplitude = 0.5
truncate.factor = 2
truncate.max_rel = 0.01
""",
    )
    out = tmp_path / "trunc"
    assert main(["truncate", cfg, "--output-dir", str(out)]) == 0
    assert (out / "truncate.csv").exists()


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


def test_plot_with_envelope(tmp_path):
    cfg = write_cfg(tmp_path, TINY_RUN)
    out = tmp_path / "plotrun"
    assert main(["run", cfg, "--output-dir", str(out)]) == 0
    csv = out / "timeseries.csv"
    svg = tmp_path / "fig.svg"
    code = main([
        "plot", str(csv), "l2_T,v2norm_T", "--out", str(svg),
        "--config", cfg, "--envelope",
    ])
    assert code == 0
    text = svg.read_text()
    assert "gronwall_envelope" in text and "<polyline" in text


def test_successive_main_calls_behave_like_fresh_calls(tmp_path):
    from peqlab import cli

    cfg = write_cfg(tmp_path, TINY_RUN)
    csv = str(tmp_path / "o" / "timeseries.csv")
    assert main(["run", cfg, "--output-dir", str(tmp_path / "o")]) == 0

    def plot(name, *flags):
        assert main(["plot", csv, "l2_T", "--out", str(tmp_path / name), *flags]) == 0
        return (tmp_path / name).read_bytes()

    linear = plot("linear.svg", "--linear", "--config", cfg, "--envelope")
    log = plot("log.svg")
    assert cli.build_parser() is cli.build_parser()
    cli.build_parser.cache_clear()
    assert log == plot("fresh.svg")
    assert b"gronwall_envelope" in linear and b"gronwall_envelope" not in log


@pytest.mark.parametrize("text,where", [
    ("", "empty time series"),
    ("t,l2_T\n0,1\n0.1,abc\n", "line 3"),
    ("t,l2_T\n0,1\n\n0.1\n", "line 4"),
], ids=["empty", "non_numeric", "ragged"])
def test_malformed_timeseries_plot_exits_1(tmp_path, capsys, text, where):
    csv = tmp_path / "bad.csv"
    csv.write_text(text)
    assert main(["plot", str(csv), "l2_T", "--out", str(tmp_path / "f.svg")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(csv) in err and where in err


def test_plot_unknown_column(tmp_path):
    cfg = write_cfg(tmp_path, TINY_RUN)
    out = tmp_path / "plotrun2"
    assert main(["run", cfg, "--output-dir", str(out)]) == 0
    assert main(["plot", str(out / "timeseries.csv"), "no_such"]) == 1


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


def test_unreadable_q_file_rejected(tmp_path, capsys):
    body = TINY_RUN.replace("q.kind = zero", f"q.kind = file\nq.path = {tmp_path / 'none.npy'}")
    assert main(["run", write_cfg(tmp_path, body), "--output-dir", str(tmp_path / "o")]) == 1
    assert "cannot read q file" in capsys.readouterr().err


def test_streamed_series_matches_batch_writer(tmp_path):
    from peqlab.config import parse_config_file
    from peqlab.integrator import run
    from peqlab.io import write_timeseries

    cfg_path = write_cfg(tmp_path, TINY_RUN)
    assert main(["run", cfg_path, "--output-dir", str(tmp_path / "o")]) == 0
    cfg = parse_config_file(cfg_path)
    p, g = cfg.params(), cfg.grid()
    _, records = run(cfg.initial_state(p, g), p, g, cfg.step_config(), checks=cfg.checks())
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


def test_failed_check_keeps_records(tmp_path, capsys):
    # a weak initial blob decays until the heat source wins, which trips the
    # monotone-energy check forced on at t = 0.06
    body = TINY_RUN.replace("q.kind = zero", "q.kind = gaussian\nq.amplitude = 5.0")
    body = body.replace("init.t_amplitude = 0.5", "init.t_amplitude = 0.05")
    cfg = write_cfg(tmp_path, body + "check.energy = on\ncheck.energy_slack = 0\n")
    out = tmp_path / "o"
    assert main(["run", cfg, "--output-dir", str(out)]) == 3
    assert "energy increased at t=0.06" in capsys.readouterr().err
    data = read_timeseries(out / "timeseries.csv")
    assert np.allclose(data["t"], [0.0, 0.04])


def test_two_runs_identical_bytes(tmp_path):
    cfg = write_cfg(tmp_path, TINY_RUN)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", cfg, "--output-dir", str(a)]) == 0
    assert main(["run", cfg, "--output-dir", str(b)]) == 0
    assert (a / "timeseries.csv").read_bytes() == (b / "timeseries.csv").read_bytes()
    assert (a / "snapshot_final.peq").read_bytes() == (b / "snapshot_final.peq").read_bytes()
