import numpy as np
import pytest

from peqlab import PhysParams, State, StepConfig, integrator, make_grid, run
from peqlab.errors import ConfigError
from peqlab.grid import INTERIOR
from peqlab.tail import (
    TailConfig,
    cutoff_eta,
    tail_decay_experiment,
    truncation_convergence,
    two_trajectory_contraction,
    windowed_T_energy,
)

def max_rel_diff(rows):
    """Run a truncation study to its end; the largest relative difference in its table."""
    return max(row.rel_diff for row in rows)


TAIL_P = PhysParams(lx=4.0, l=1.0, h=0.5, re1=0.5, re2=0.5, rt1=4.0, rt2=1.0,
                    alpha=4.0, f0=1.0, beta=0.1, ro=1.0)


def compact_blob(p, x, y, z, amp=0.5, sx=0.12, cx=0.0):
    return amp * np.exp(
        -((x - cx) ** 2) / (2 * sx**2)
        - ((y - p.l / 2) ** 2) / (2 * 0.15**2)
        - ((z + p.h / 2) ** 2) / (2 * 0.1**2)
    )


class TestCutoff:
    def test_plateaus(self):
        assert cutoff_eta(0.5) == 0.0
        assert cutoff_eta(3.0) == 1.0
        assert cutoff_eta(1.0) == 0.0
        assert cutoff_eta(2.0) == 1.0

    def test_midpoint(self):
        assert cutoff_eta(1.5) == pytest.approx(0.5, rel=1e-15)

    def test_monotone_and_derivative_bounded(self):
        s = np.linspace(0.0, 3.0, 100001)
        vals = cutoff_eta(s)
        assert np.all(np.diff(vals) >= 0.0)
        deriv = np.diff(vals) / np.diff(s)
        assert deriv.max() <= 1.875 + 1e-9
        assert deriv.max() >= 1.874  # the smoothstep supremum 15/8 is attained


class TestWindowedEnergy:
    def setup_method(self):
        self.p = PhysParams(lx=2.0, l=0.7, h=0.4)
        self.g = make_grid(self.p, 48, 6, 4)

    def test_zero_field(self):
        assert windowed_T_energy(np.zeros((48, 6, 4)), 0.5, self.g) == 0.0

    def test_support_separation(self):
        g, p = self.g, self.p
        x, y, z = g.coords()
        T = np.where(np.abs(x) <= 0.5, 1.0, 0.0) * np.ones((g.nx, g.ny, g.nz))
        assert windowed_T_energy(T, 0.5, g) == 0.0

    def test_constant_field_matches_1d_oracle(self):
        g, p = self.g, self.p
        T = np.ones((g.nx, g.ny, g.nz))
        r = 0.8
        xs = g.x(np.arange(g.nx))
        oracle = p.l * p.h * g.dx * sum(cutoff_eta(xi**2 / r**2) ** 2 for xi in xs)
        assert windowed_T_energy(T, r, g) == pytest.approx(oracle, rel=1e-12)

    def test_non_increasing_in_r_and_bounded_by_total(self):
        g = self.g
        rng = np.random.default_rng(0)
        T = rng.standard_normal((g.nx, g.ny, g.nz))
        total = g.cell_volume * np.sum(T**2)
        last = np.inf
        for r in (0.3, 0.5, 0.7, 0.9):
            w = windowed_T_energy(T, r, g)
            assert w <= total
            assert w <= last + 1e-15
            last = w


class TestTailConfig:
    def test_validation(self):
        g = make_grid(TAIL_P, 16, 8, 4)
        with pytest.raises(ConfigError):
            TailConfig(radii=(1.0, 0.5)).validate(g)
        with pytest.raises(ConfigError):
            TailConfig(radii=(0.5, 2.5)).validate(g)
        with pytest.raises(ConfigError):
            TailConfig(radii=()).validate(g)
        TailConfig(radii=(1.0, 1.5)).validate(g)


@pytest.fixture
def tail_setup():
    p = TAIL_P
    g = make_grid(p, 64, 12, 8)
    s = State.zeros(g)
    x, y, z = g.coords()
    s.Q[...] = compact_blob(p, x, y, z)
    s.fill_all_ghosts(p, g)
    return p, g, s


def test_tail_decay_experiment(tail_setup):
    p, g, s = tail_setup
    tail = TailConfig(radii=(1.2, 1.6, 1.9), epsilon=1e-3, tau_probe=2.0)
    cfg = StepConfig(dt=0.02, t_end=6.0, output_every=20)
    rows = list(tail_decay_experiment(tail, s, p, g, cfg))
    assert tail.r_star(rows) == 1.2
    assert tail.sup_rel(rows)[-1] <= 1e-3
    # windowed energy non-increasing in the radius at every sampled time
    table = np.array(rows)
    w = table[:, 2:].T  # [radius][time]
    assert np.all(np.diff(w, axis=0) <= 1e-18)
    # supremum over t >= tau_probe non-increasing in r
    sup = w[:, table[:, 0] >= tail.tau_probe].max(axis=1)
    assert np.all(np.diff(sup) <= 1e-18)


def test_tail_short_unforced_bounded_by_initial(tail_setup):
    p, g, _ = tail_setup
    s = State.zeros(g)
    x, y, z = g.coords()
    s.T[INTERIOR] = compact_blob(p, x, y, z, amp=1.0)
    s.fill_all_ghosts(p, g)
    tail = TailConfig(radii=(1.2, 1.6), epsilon=1e-3, tau_probe=0.0)
    cfg = StepConfig(dt=0.02, t_end=0.2, output_every=5)
    rows = list(tail_decay_experiment(tail, s, p, g, cfg))
    total0 = rows[0][1]
    assert all(w <= total0 for row in rows for w in row[2:])


def test_tail_totals_are_run_records(tail_setup):
    p, g, s = tail_setup
    cfg = StepConfig(dt=0.02, t_end=0.4, output_every=5)
    rows = list(tail_decay_experiment(TailConfig(radii=(1.2, 1.6), tau_probe=0.0), s.copy(), p, g, cfg))
    _, records = run(s, p, g, cfg)
    assert [row[0] for row in rows] == [rec.t for rec in records]
    totals = np.array([row[1] for row in rows])
    assert totals.tobytes() == np.array([rec.l2_T for rec in records]).tobytes()


def test_tail_rejects_wide_source(tail_setup):
    p, g, _ = tail_setup
    s = State.zeros(g)
    x, y, z = g.coords()
    s.Q[...] = compact_blob(p, x, y, z, sx=1.0)
    s.fill_all_ghosts(p, g)
    tail = TailConfig(radii=(1.2, 1.6), epsilon=1e-3, tau_probe=1.0)
    with pytest.raises(ConfigError, match="not well inside"):
        next(tail_decay_experiment(tail, s, p, g, StepConfig(dt=0.02, t_end=1.0)))


def test_tail_probe_beyond_horizon_rejected_before_stepping(tail_setup, monkeypatch):
    p, g, s = tail_setup
    cfg = StepConfig(dt=0.02, t_end=0.2, output_every=5)

    def no_step(*args):
        raise AssertionError("stepped before the horizon was checked")

    monkeypatch.setattr(integrator, "step", no_step)
    with pytest.raises(ConfigError, match="beyond the simulated horizon"):
        next(tail_decay_experiment(TailConfig(radii=(1.2, 1.6), tau_probe=0.2 + 1e-9), s, p, g, cfg))
    monkeypatch.undo()
    rows = list(tail_decay_experiment(TailConfig(radii=(1.2, 1.6), tau_probe=0.2), s, p, g, cfg))
    assert rows[-1][0] == cfg.n_steps * cfg.dt


class TestTruncation:
    P = PhysParams(lx=2.0, l=1.0, h=0.5, re1=0.5, re2=0.5, rt1=4.0, rt2=1.0,
                   alpha=4.0, f0=1.0, beta=0.1, ro=1.0)

    @staticmethod
    def heated(p, g, cx=0.0):
        s = State.zeros(g)
        s.Q[...] = compact_blob(p, *g.coords(), cx=cx)
        return s

    def test_zero_everything_zero_difference(self):
        cfg = StepConfig(dt=0.05, t_end=0.2, output_every=2)
        rows = truncation_convergence(self.P, (16, 6, 4), cfg, lambda p, g: State.zeros(g))
        assert max_rel_diff(rows) == 0.0

    def test_compact_source_converged(self):
        cfg = StepConfig(dt=0.02, t_end=3.0, output_every=25)
        rows = truncation_convergence(self.P, (32, 8, 6), cfg, self.heated, factor=2)
        assert max_rel_diff(rows) <= 1e-3

    def test_widening_again_changes_less(self):
        cfg = StepConfig(dt=0.02, t_end=3.0, output_every=25)
        d12 = max_rel_diff(truncation_convergence(self.P, (32, 8, 6), cfg, self.heated, factor=2))
        d23 = max_rel_diff(truncation_convergence(self.P, (32, 8, 6), cfg, self.heated,
                                                  factor=3, factor_base=2))
        assert d23 < d12

    def test_near_wall_source_negative_control(self):
        cfg = StepConfig(dt=0.02, t_end=3.0, output_every=25)
        good = max_rel_diff(truncation_convergence(self.P, (32, 8, 6), cfg, self.heated, factor=2))
        near = max_rel_diff(truncation_convergence(
            self.P, (32, 8, 6), cfg,
            lambda p, g: self.heated(p, g, cx=1.6), factor=2,
        ))
        assert near > 10 * good

    def test_incompatible_factor_rejected(self):
        with pytest.raises(ConfigError):
            next(truncation_convergence(self.P, (16, 6, 4), StepConfig(), self.heated, factor=1))
        with pytest.raises(ConfigError):
            next(truncation_convergence(self.P, (15, 6, 4), StepConfig(), self.heated, factor=2))


class TestContraction:
    P = PhysParams(lx=2.0, l=1.0, h=0.5, re1=0.25, re2=0.25, rt1=0.25, rt2=0.25,
                   alpha=2.0, f0=1.0, beta=0.5, ro=1.0)

    def states(self, g, amp=0.01):
        x, y, z = g.coords()

        def blob(cx, a):
            return a * np.exp(
                -((x - cx) ** 2) / 0.32
                - ((y - self.P.l / 2) ** 2) / 0.125
                - ((z + self.P.h / 2) ** 2) / 0.08
            )

        sa, sb = State.zeros(g), State.zeros(g)
        sa.T[INTERIOR] = blob(0.0, amp)
        sa.v1[INTERIOR] = blob(0.3, amp / 2)
        sb.T[INTERIOR] = blob(-0.2, 1.2 * amp)
        sb.v2[INTERIOR] = blob(0.1, amp / 2.5)
        for s in (sa, sb):
            s.fill_all_ghosts(self.P, g)
        return sa, sb

    def test_identical_states_zero_distance(self):
        g = make_grid(self.P, 12, 8, 6)
        sa, _ = self.states(g)
        cfg = StepConfig(dt=0.02, t_end=0.2)
        rows = list(two_trajectory_contraction(sa, sa.copy(), self.P, g, cfg))
        assert all(row.dist_l2 == 0.0 for row in rows)

    def test_frozen_velocity_linear_contraction(self):
        g = make_grid(self.P, 12, 8, 6)
        sa, sb = self.states(g)
        cfg = StepConfig(dt=0.05, t_end=1.0, output_every=1, temperature_only=True)
        d = [row.dist_T for row in two_trajectory_contraction(sa, sb, self.P, g, cfg)]
        assert all(b <= a for a, b in zip(d, d[1:]))

    def test_diffusion_dominated_monotone(self):
        g = make_grid(self.P, 16, 12, 8)
        sa, sb = self.states(g)
        cfg = StepConfig(dt=0.02, t_end=2.0, output_every=5)
        rows = list(two_trajectory_contraction(sa, sb, self.P, g, cfg))
        d = [row.dist_l2 for row in rows]
        assert all(b <= a for a, b in zip(d, d[1:]))
        assert d[-1] < d[0]
        assert all(row.v_proxy >= 0.0 for row in rows)

    def test_mismatched_sources_rejected(self):
        g = make_grid(self.P, 12, 8, 6)
        sa, sb = self.states(g)
        sb.Q[2, 2, 2] = 1.0
        with pytest.raises(ConfigError, match="identical heat sources"):
            next(two_trajectory_contraction(sa, sb, self.P, g, StepConfig()))
