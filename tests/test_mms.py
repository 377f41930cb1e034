import math

import numpy as np
import pytest

from peqlab import PhysParams, make_grid
from peqlab.grid import INTERIOR
from peqlab.integrator import StepConfig, run
from peqlab.mms import (
    ConvergenceResult,
    MmsSpec,
    convergence_order,
    mms_convergence_study,
    robin_wavenumber,
)
from peqlab.oracle import apply_L2, full_rhs

P = PhysParams(lx=1.0, l=1.0, h=1.0, re1=1.0, re2=1.0, rt1=1.0, rt2=1.3, alpha=0.8,
               f0=1.0, beta=0.3, ro=1.0)


def test_robin_wavenumber_solves_transcendental():
    k = robin_wavenumber(P)
    assert abs(k * math.tan(k * P.h) - P.alpha * P.rt2) < 1e-10
    assert 0 < k < math.pi / (2 * P.h)


def test_zero_spec_zero_forcing():
    g = make_grid(P, 8, 8, 8)
    spec = MmsSpec(P, amp_v1=0.0, amp_v2=0.0, amp_T=0.0)
    s = spec.forced_state(g)
    (f1, f2), q = s.body_force, s.Q
    assert np.abs(f1).max() == 0.0
    assert np.abs(f2).max() == 0.0
    assert np.abs(q).max() == 0.0


def test_pure_diffusion_spec_forcing_is_heat_operator():
    """With v* = 0 the heat forcing equals L2 applied to the temperature stack."""
    spec = MmsSpec(P, amp_v1=0.0, amp_v2=0.0, amp_T=0.5)
    errs = []
    for n in (12, 24):
        g = make_grid(P, n, n, n)
        q = spec.forced_state(g).Q
        # independent route: discrete L2 on the analytically-ghosted field
        X = g.x(np.arange(-1, g.nx + 1))[:, None, None]
        Y = g.y(np.arange(-1, g.ny + 1))[None, :, None]
        Z = g.z(np.arange(-1, g.nz + 1))[None, None, :]
        _, _, T, _ = spec.evaluate(X, Y, Z)
        pad = T * np.ones((g.nx + 2, g.ny + 2, g.nz + 2))
        errs.append((g.dx, np.abs(apply_L2(pad, P, g) - q).max()))
    order = convergence_order(errs)
    assert order.order >= 1.8


def test_discrete_residual_second_order():
    """Forced tendencies on the manufactured state shrink at the scheme order."""
    errs_v, errs_T = [], []
    for n in (8, 16, 32):
        g = make_grid(P, n, n, n)
        s = MmsSpec(P).forced_state(g)
        s.fill_all_ghosts(P, g)
        s.refresh_w(P, g)
        dv1, dv2, dT = full_rhs(s, P, g)
        errs_v.append((g.dx, max(np.abs(dv1).max(), np.abs(dv2).max())))
        errs_T.append((g.dx, np.abs(dT).max()))
    assert 1.8 <= convergence_order(errs_v).order <= 2.3
    assert 1.8 <= convergence_order(errs_T).order <= 2.3


def test_manufactured_fields_meet_boundary_conditions():
    """Every face family's condition holds analytically, the Robin top only at the root kz."""
    spec = MmsSpec(P)

    def at(factor, value):
        return factor(np.array(value))

    residuals = []
    # velocity: stress-free top and bottom, no-slip at y = 0, l and x = +-lx
    for name in ("v1", "v2"):
        _, fx, fy, fz = spec.factors[name]
        residuals += [at(fz, z)[1] for z in (0.0, -P.h)]
        residuals += [at(fy, y)[0] for y in (0.0, P.l)] + [at(fx, x)[0] for x in (-P.lx, P.lx)]
    # temperature: insulating bottom and walls
    _, fx, fy, fz = spec.factors["T"]
    residuals += [at(fz, -P.h)[1]] + [at(fy, y)[1] for y in (0.0, P.l)] + [at(fx, x)[1] for x in (-P.lx, P.lx)]
    assert max(abs(float(r)) for r in residuals) <= 1e-9

    # Robin top (1/rt2) dT/dz + alpha T = 0; a profile cos(k (z + h)) off the root misses it
    zt0, dzt0, _ = at(fz, 0.0)
    assert abs(float(dzt0) / P.rt2 + P.alpha * float(zt0)) <= 1e-9
    k = 1.7 * spec.kz
    assert abs(-k * math.sin(k * P.h) / P.rt2 + P.alpha * math.cos(k * P.h)) > 1e-2


class TestConvergenceOrder:
    def test_exact_ratio(self):
        res = convergence_order([(0.1, 1e-2), (0.05, 2.5e-3)])
        assert res.order == pytest.approx(2.0, abs=1e-12)
        assert res.monotone

    def test_identical_errors(self):
        res = convergence_order([(0.1, 1e-3), (0.05, 1e-3)])
        assert res.order == 0.0

    def test_zero_error_has_no_order(self):
        res = convergence_order([(0.1, 1e-3), (0.05, 0.0)])
        assert math.isnan(res.order) and not res.monotone

    def test_non_monotone_flagged(self):
        res = convergence_order([(0.1, 1e-3), (0.05, 2e-3), (0.025, 1e-4)])
        assert not res.monotone

    def test_needs_two_levels(self):
        with pytest.raises(ValueError):
            convergence_order([(0.1, 1e-3)])


def test_steady_state_held_for_100_steps():
    g = make_grid(P, 12, 12, 12)
    spec = MmsSpec(P)
    delta = max(g.dx, g.dy, g.dz)

    def drift(steps):
        s = spec.forced_state(g)
        cfg = StepConfig(dt=2e-3, t_end=2e-3 * steps, output_every=10**6)
        final, _ = run(s, P, g, cfg)
        v1, _, T, _ = spec.evaluate(*g.coords())
        return max(np.abs(final.v1[INTERIOR] - v1).max(), np.abs(final.T[INTERIOR] - T).max())

    e100 = drift(100)
    assert e100 <= 0.5 * delta**2
    # drift saturates at the discrete steady state instead of growing
    assert drift(200) <= 1.1 * e100


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("amps", [(0.3, 0.2, 0.0), (0.0, 0.2, 0.0)], ids=["v1_v2", "v2"])
def test_body_forced_member_runs_without_the_energy_check(amps, n):
    """With Q = 0 but a body force doing work, the energy grows: the energy inequality is not checked."""
    g = make_grid(P, n, n, n)
    s = MmsSpec(P, *amps).forced_state(g)
    assert not s.Q.any()
    _, records = run(s, P, g, StepConfig(dt=2e-3, t_end=1e-2, output_every=1))
    assert records[1].l2_v > records[0].l2_v


def test_convergence_study_orders():
    report = mms_convergence_study(P, sizes=((8, 8, 8), (16, 16, 16), (32, 32, 32)),
                                   dt=2e-3, horizon=0.1)
    assert 1.8 <= report.order_v <= 2.2
    assert 1.8 <= report.order_T <= 2.2
    assert report.monotone
    assert len(report.rows()) == 3
