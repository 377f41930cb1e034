import numpy as np
import pytest

from peqlab import PhysParams, State, StepConfig, RunChecks, make_grid, cfl_dt, run, step, trajectory
from peqlab.integrator import CFL_TARGET, DT_MAX
from peqlab.grid import INTERIOR

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
    cfg = StepConfig(dt=0.01, t_end=0.0)
    final, records = run(s, P, g, cfg)
    assert len(records) == 1
    assert records[0].t == 0.0
    assert records[0].constraint_residual <= 1e-8
    # temperature untouched by the initial projection
    assert np.array_equal(final.T, s.T)


def test_two_runs_bit_identical():
    g = make_grid(P, 12, 10, 6)
    cfg = StepConfig(dt=0.01, t_end=0.2, output_every=4)
    rows = []
    for _ in range(2):
        s = gaussian_state(g, P, amp_T=0.7, amp_v=0.15)
        _, records = run(s, P, g, cfg)
        rows.append(np.array([rec.row() for rec in records]))
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
        rows[every] = {round(rec.t / 0.01): rec.row() for rec in records}
    assert sorted(rows[5]) == [0, 5, 10, 15, 20]
    for n, row in rows[5].items():
        assert np.array_equal(np.array(row), np.array(rows[1][n]), equal_nan=True)


def test_lockstep_members_match_separate_runs():
    """Two members on different grids step exactly as two single runs do."""
    grids = [make_grid(P, 16, 6, 4), make_grid(P, 32, 6, 4)]
    cfg = StepConfig(dt=0.02, t_end=0.2, output_every=3)
    records = [[], []]

    def observe(n, t, states, recs):
        for series, rec in zip(records, recs):
            series.append(rec.row())

    finals = trajectory([(gaussian_state(g, P, amp_v=0.2), P, g) for g in grids], cfg, observe=observe)
    for g, final, rows in zip(grids, finals, records):
        alone, alone_records = run(gaussian_state(g, P, amp_v=0.2), P, g, cfg)
        assert [round(r[0] / cfg.dt) for r in rows] == [0, 3, 6, 9, 10]
        assert np.array(rows).tobytes() == np.array([r.row() for r in alone_records]).tobytes()
        for name in ("v1", "v2", "T", "w", "p_s"):
            assert getattr(final, name).tobytes() == getattr(alone, name).tobytes(), name


def test_first_order_in_dt():
    """Temperature-only decay against a tiny-dt reference on a fixed grid."""
    g = make_grid(P, 8, 8, 8)

    def final_T(dt):
        s = gaussian_state(g, P)
        cfg = StepConfig(dt=dt, t_end=0.4, output_every=10**6, temperature_only=True)
        final, _ = run(s, P, g, cfg)
        return final.T[INTERIOR].copy()

    ref = final_T(0.4 / 512)
    errs = []
    for dt in (0.1, 0.05):
        errs.append(np.sqrt(g.cell_volume * np.sum((final_T(dt) - ref) ** 2)))
    order = np.log(errs[0] / errs[1]) / np.log(2.0)
    assert order >= 0.9


@pytest.mark.parametrize("temperature_only", [False, True])
def test_step_leaves_no_stale_ghosts(temperature_only):
    g = make_grid(P, 10, 8, 6)
    s = gaussian_state(g, P, amp_v=0.3)
    cfg = StepConfig(dt=0.02, t_end=0.1, temperature_only=temperature_only)
    for _ in range(3):
        step(s, cfg.dt, P, g, cfg)
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

    def failing_step(s, dt, p, g, cfg):
        calls.append(1)
        if len(calls) == 3:
            raise TwoArgError(7, "solver")
        return step(s, dt, p, g, cfg)

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


def test_energy_check_violation_raises():
    from peqlab.errors import CheckError

    g = make_grid(P, 10, 8, 6)
    s = State.zeros(g)
    x, y, z = g.coords()
    s.Q[...] = np.exp(-(x**2) - (y - P.l / 2) ** 2 - (z + P.h / 2) ** 2)
    s.fill_all_ghosts(P, g)
    # forcing the monotone-energy check on a heated run must trip it
    checks = RunChecks(energy_slack=0.0, check_energy=True)
    cfg = StepConfig(dt=0.05, t_end=2.0, output_every=5)
    with pytest.raises(CheckError, match="energy increased"):
        run(s, P, g, cfg, checks=checks)
