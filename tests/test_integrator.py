from contextlib import closing
from pathlib import Path

import numpy as np
import pytest

from peqlab import PhysParams, State, StepConfig, make_grid, cfl_dt, run, step, trajectory
from peqlab.integrator import CFL_TARGET, DT_MAX, Workspace
from peqlab import operators as ops
from peqlab.config import RunConfig, parse_config
from peqlab.diagnostics import distance_sq
from peqlab.grid import INTERIOR
from peqlab.projection import constraint_residual, depth_mean

# moderately diffusive reference regime: the coupled energy bound holds with margin
P = PhysParams(lx=2.0, l=1.0, h=0.5, re1=1.0, re2=1.0, rt1=1.0, rt2=1.0, alpha=2.0,
               f0=1.0, beta=0.5, ro=1.0)


def gaussian_state(g, p, amp_T=1.0, amp_v=0.0, seed=None):
    s = State.zeros(g)
    x, y, z = g.coords()
    blob = np.exp(-((x / 0.4) ** 2 + ((y - p.l / 2) / 0.25) ** 2 + ((z + p.h / 2) / 0.2) ** 2))
    s.T[INTERIOR] = amp_T * blob
    if amp_v:
        s.v1[INTERIOR] = amp_v * blob
        s.v2[INTERIOR] = -amp_v * blob
    s.fill_all_ghosts(p, g)
    s.refresh_w(p, g)
    return s


class TestCfl:
    def test_zero_state_gives_dt_max(self):
        g = make_grid(P, 8, 8, 4)
        s = State.zeros(g).fill_all_ghosts(P, g)
        assert cfl_dt(s, g) == DT_MAX

    def test_arithmetic(self):
        p = PhysParams(lx=0.4, l=10.0, h=10.0)  # dx=0.1 on an 8-cell axis
        g = make_grid(p, 8, 8, 8)
        assert g.dx == pytest.approx(0.1)
        s = State.zeros(g)
        s.v1[INTERIOR] = 1.0
        s.fill_all_ghosts(p, g)
        assert CFL_TARGET == 0.5 and DT_MAX > 0.05
        assert cfl_dt(s, g) == pytest.approx(0.05)

    def test_homogeneity(self):
        g = make_grid(P, 8, 8, 4)
        s = gaussian_state(g, P, amp_T=0.0, amp_v=3.0)
        one = cfl_dt(s, g)
        assert one < DT_MAX  # the suggestion, not the cap
        s.v1 *= 2.0
        s.v2 *= 2.0
        s.w *= 2.0
        assert cfl_dt(s, g) == pytest.approx(one / 2.0)

    def test_velocity_scales_when_the_largest_speed_is_negative(self):
        """cfl_dt and constraint_residual read max |v| exactly from a negative peak."""
        g = make_grid(P, 8, 6, 4)
        rng = np.random.default_rng(5)
        s = State.zeros(g)
        for f in (s.v1, s.v2, s.w):
            f[INTERIOR] = rng.uniform(-2.0, 1.0, (g.nx, g.ny, g.nz))
            f[2, 3, 2] = -9.0
        s.fill_all_ghosts(P, g)
        # the scales as |v| temporaries give them
        suggestion = DT_MAX
        for f, d in ((s.v1, g.dx), (s.v2, g.dy), (s.w, g.dz)):
            suggestion = min(suggestion, CFL_TARGET * d / float(np.abs(f[INTERIOR]).max()))
        assert suggestion < DT_MAX
        assert cfl_dt(s, g) == suggestion
        vbar1, vbar2 = depth_mean(s.v1, P, g), depth_mean(s.v2, P, g)
        scale = np.abs(s.v1[INTERIOR]).max() / g.dx + np.abs(s.v2[INTERIOR]).max() / g.dy
        residual = float(np.abs(ops.div_h(vbar1, vbar2, g)).max()) / float(scale)
        assert residual > 0.0
        assert constraint_residual(vbar1, vbar2, s.v1, s.v2, g) == residual


def test_n_steps_absorbs_float_quotients():
    assert StepConfig(dt=0.01, t_end=0.2).n_steps == 20  # 0.2/0.01 = 20.000000000000004
    assert StepConfig(dt=0.002, t_end=0.1).n_steps == 50
    assert StepConfig(dt=0.01, t_end=0.0).n_steps == 0
    for t_end in (0.015, 0.004, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="whole number of steps"):
            StepConfig(dt=0.01, t_end=t_end)


def test_zero_state_is_equilibrium():
    g = make_grid(P, 8, 8, 4)
    s = State.zeros(g).fill_all_ghosts(P, g)
    cfg = StepConfig(dt=0.02, t_end=0.2, output_every=5)
    final, records = run(s, P, g, cfg)
    assert np.abs(final.v1).max() == 0.0
    assert np.abs(final.T).max() == 0.0
    assert all(rec.l2_T == 0.0 and rec.l2_v == 0.0 for rec in records)


def test_temperature_only_strict_monotone_decay():
    g = make_grid(P, 12, 10, 8)
    s = gaussian_state(g, P)
    cfg = StepConfig(dt=0.05, t_end=1.0, output_every=1, temperature_only=True)
    _, records = run(s, P, g, cfg)
    norms = [rec.l2_T for rec in records]
    assert all(b <= a for a, b in zip(norms, norms[1:]))
    assert norms[-1] < norms[0]


def test_coupled_energy_non_increasing_without_source():
    g = make_grid(P, 16, 12, 8)
    s = gaussian_state(g, P, amp_T=0.8, amp_v=0.1)
    cfg = StepConfig(dt=0.01, t_end=0.5, output_every=5)
    # run() itself enforces the per-step inequality when Q == 0
    _, records = run(s, P, g, cfg)
    total = [rec.l2_v + rec.l2_T for rec in records]
    assert all(b <= a * (1 + 1e-8) for a, b in zip(total, total[1:]))


def test_constraint_residual_small_at_outputs():
    g = make_grid(P, 16, 12, 8)
    s = gaussian_state(g, P, amp_T=0.8, amp_v=0.2)
    cfg = StepConfig(dt=0.01, t_end=0.3, output_every=10)
    _, records = run(s, P, g, cfg)
    assert all(rec.constraint_residual <= 1e-8 for rec in records)


def test_zero_horizon_returns_projected_initial_state():
    g = make_grid(P, 12, 10, 6)
    s = gaussian_state(g, P, amp_T=0.5, amp_v=0.2)
    T0 = s.T.copy()
    cfg = StepConfig(dt=0.01, t_end=0.0)
    final, records = run(s, P, g, cfg)
    assert len(records) == 1
    assert records[0].t == 0.0
    assert records[0].constraint_residual <= 1e-8
    # temperature untouched by the initial projection
    assert np.array_equal(final.T, T0)


def test_two_runs_bit_identical():
    g = make_grid(P, 12, 10, 6)
    cfg = StepConfig(dt=0.01, t_end=0.2, output_every=4)
    rows = []
    for _ in range(2):
        s = gaussian_state(g, P, amp_T=0.7, amp_v=0.15)
        _, records = run(s, P, g, cfg)
        rows.append(np.array(records))
    assert np.array_equal(rows[0], rows[1], equal_nan=True)


def test_unforced_run_decays():
    g = make_grid(P, 12, 10, 6)
    s = gaussian_state(g, P, amp_T=1.0, amp_v=0.2)
    cfg = StepConfig(dt=0.02, t_end=4.0, output_every=20)
    _, records = run(s, P, g, cfg)
    assert records[-1].l2_T < 1e-2 * records[0].l2_T
    assert records[-1].l2_v < records[0].l2_v or records[0].l2_v == 0.0


def test_records_independent_of_output_cadence():
    """A record depends only on the steps before it, not on which others were emitted."""
    g = make_grid(P, 12, 10, 6)
    rows = {}
    for every in (1, 5):
        s = gaussian_state(g, P, amp_T=0.7, amp_v=0.15)
        _, records = run(s, P, g, StepConfig(dt=0.01, t_end=0.2, output_every=every))
        rows[every] = {round(rec.t / 0.01): rec for rec in records}
    assert sorted(rows[5]) == [0, 5, 10, 15, 20]
    for n, row in rows[5].items():
        assert np.array_equal(np.array(row), np.array(rows[1][n]), equal_nan=True)


def test_lockstep_members_match_separate_runs():
    """Two members on different grids step exactly as two single runs do."""
    grids = [make_grid(P, 16, 6, 4), make_grid(P, 32, 6, 4)]
    cfg = StepConfig(dt=0.02, t_end=0.2, output_every=3)
    records = [[], []]
    for _, _, finals, recs in trajectory([(gaussian_state(g, P, amp_v=0.2), P, g) for g in grids], cfg):
        for series, rec in zip(records, recs):
            series.append(rec)
    for g, final, rows in zip(grids, finals, records):
        alone, alone_records = run(gaussian_state(g, P, amp_v=0.2), P, g, cfg)
        assert [round(r[0] / cfg.dt) for r in rows] == [0, 3, 6, 9, 10]
        assert np.array(rows).tobytes() == np.array(alone_records).tobytes()
        for name in ("v1", "v2", "T", "w", "p_s"):
            assert getattr(final, name).tobytes() == getattr(alone, name).tobytes(), name


def test_trajectory_advances_the_callers_states():
    """Each member is the caller's own State, readied and advanced in place."""
    g = make_grid(P, 8, 8, 4)
    initial = [gaussian_state(g, P), gaussian_state(g, P, amp_v=0.2)]
    steps = trajectory([(s, P, g) for s in initial], StepConfig(dt=0.02, t_end=0.04, output_every=1))
    yielded = [states for _, _, states, _ in steps]
    assert len(yielded) == 3
    assert all(a is b for states in yielded for a, b in zip(states, initial, strict=True))
    s = gaussian_state(g, P)
    assert run(s, P, g, StepConfig(dt=0.02, t_end=0.04))[0] is s


@pytest.mark.parametrize("name", ["dissipation", "dissipation_temponly"])
def test_temporal_order_by_self_convergence(name):
    """The IMEX-Euler step is first order in time: halving dt from 0.04 to 0.005 to t = 0.4
    halves the distance between successive final states (measured orders 0.98 and 0.99)."""
    base = parse_config((Path(__file__).resolve().parent.parent / "configs" / f"{name}.cfg").read_text())
    finals = []
    for dt in (0.04, 0.02, 0.01, 0.005):
        cfg = RunConfig({**base.values, "step.dt": dt, "step.t_end": 0.4, "step.output_every": 1000})
        p, g = cfg.params(), cfg.grid()
        finals.append(run(cfg.initial_state(p, g), p, g, cfg.step_config())[0])
    dist = [np.sqrt(sum(distance_sq(a, b.interiors(), g))) for a, b in zip(finals, finals[1:])]
    orders = np.log2(np.array(dist[:-1]) / dist[1:])
    assert np.all((0.95 <= orders) & (orders <= 1.05)), orders


@pytest.mark.parametrize("temperature_only", [False, True])
def test_step_leaves_no_stale_ghosts(temperature_only):
    g = make_grid(P, 10, 8, 6)
    s = gaussian_state(g, P, amp_v=0.3)
    cfg = StepConfig(dt=0.02, t_end=0.1, temperature_only=temperature_only)
    with closing(Workspace(g, cfg)) as ws:
        for _ in range(3):
            step(s, cfg.dt, P, g, cfg, ws)
    before = s.copy()
    s.fill_all_ghosts(P, g)
    for name in ("v1", "v2", "T", "w", "p_s"):
        assert getattr(s, name).tobytes() == getattr(before, name).tobytes(), name


def test_failed_step_keeps_exception_type(monkeypatch):
    import peqlab.integrator as integrator

    class TwoArgError(Exception):
        def __init__(self, code, where):
            super().__init__(code, where)

    calls = []

    def failing_step(s, dt, p, g, cfg, ws, keep):
        calls.append(1)
        if len(calls) == 3:
            raise TwoArgError(7, "solver")
        return step(s, dt, p, g, cfg, ws, keep)

    monkeypatch.setattr(integrator, "step", failing_step)
    g = make_grid(P, 8, 8, 4)
    with pytest.raises(TwoArgError) as info:
        run(gaussian_state(g, P), P, g, StepConfig(dt=0.01, t_end=0.1))
    assert info.value.args == (7, "solver")
    assert info.value.__notes__ == ["run aborted; last valid time t=0.02"]


def test_failed_step_reports_last_valid_time():
    from peqlab.errors import NumericalError

    g = make_grid(P, 8, 8, 4)
    s = gaussian_state(g, P)
    s.Q[2, 2, 2] = np.inf
    cfg = StepConfig(dt=0.01, t_end=0.5)
    with pytest.raises(NumericalError, match="last valid time"):
        run(s, P, g, cfg)


def test_energy_check_violation_raises(monkeypatch):
    from peqlab import integrator
    from peqlab.errors import CheckError

    g = make_grid(P, 10, 8, 6)
    # an unforced run checks its energy after every step; a slack of -1 asks
    # each step to lose all of it
    monkeypatch.setattr(integrator, "ENERGY_SLACK", -1.0)
    cfg = StepConfig(dt=0.05, t_end=2.0, output_every=5)
    with pytest.raises(CheckError, match=r"^energy increased at t=0.05: "):
        run(gaussian_state(g, P, amp_v=0.1), P, g, cfg)


def test_poincare_violation_names_its_time(monkeypatch):
    from peqlab import diagnostics
    from peqlab.errors import CheckError

    g = make_grid(P, 8, 6, 4)
    monkeypatch.setattr(diagnostics, "check_poincare_T", lambda rec, p: 1.5 if rec.t > 0.0 else 0.0)
    cfg = StepConfig(dt=0.02, t_end=0.2, output_every=2)
    with pytest.raises(CheckError, match=r"^temperature Poincare ratio 1.5 > 1 \+ 0.01 at t=0.04$"):
        run(gaussian_state(g, P), P, g, cfg)


@pytest.mark.parametrize("poincare_off,message", [
    (False, r"^temperature Poincare ratio nan > 1 \+ 0.01 at t=0$"),
    (True, r"^temperature energy nan above decay envelope nan at t=0$"),
], ids=["poincare", "envelope"])
def test_non_finite_record_fails_its_monitors(monkeypatch, poincare_off, message):
    """A nan compares false against every bound, so a monitor fails unless its value is at most the bound."""
    from peqlab import diagnostics
    from peqlab.errors import CheckError

    if poincare_off:
        monkeypatch.setattr(diagnostics, "check_poincare_T", lambda rec, p: 0.0)
    g = make_grid(P, 8, 6, 4)
    s = gaussian_state(g, P)
    s.T[3, 3, 2] = np.nan
    with pytest.raises(CheckError, match=message):
        run(s, P, g, StepConfig(dt=0.01, t_end=0.0))

