import math
import tracemalloc

import numpy as np
import pytest

from peqlab import PhysParams, State, StepConfig, make_grid, run
from peqlab import diagnostics as diag
from peqlab.grid import INTERIOR
from peqlab.oracle import norm6, record_reference, surface_integral_sq
from tests.test_model import random_smooth_state

P = PhysParams(lx=1.0, l=1.0, h=1.0, alpha=1.0)


def test_zero_state_all_zero():
    g = make_grid(P, 8, 8, 8)
    s = State.zeros(g).fill_all_ghosts(P, g)
    rec = diag.compute_record(s, None, 0.1, P, g)
    for name in diag.CSV_COLUMNS:
        if name in ("t", "l2_vt", "l2_Tt"):
            continue
        assert getattr(rec, name) == 0.0
    assert math.isnan(rec.l2_vt) and math.isnan(rec.l2_Tt)


def test_constant_temperature_quadrature():
    p = PhysParams(lx=1.5, l=0.8, h=0.6, alpha=1.0)
    g = make_grid(p, 10, 8, 6)
    s = State.zeros(g)
    s.T[...] = 1.0  # constant extension supplied directly (valid ghosts)
    rec = diag.compute_record(s, None, 0.1, p, g)
    box = 2 * p.lx * p.l * p.h
    assert rec.l2_T == pytest.approx(box, rel=1e-13)
    assert surface_integral_sq(s.T, g) == pytest.approx(2 * p.lx * p.l, rel=1e-13)
    assert rec.v2norm_T == pytest.approx(p.alpha * 2 * p.lx * p.l, rel=1e-13)


def test_l2_matches_naive_loop_oracle():
    p = PhysParams(lx=1.0, l=0.9, h=0.7)
    g = make_grid(p, 12, 10, 8)
    s = random_smooth_state(p, g, seed=9)
    rec = diag.compute_record(s, None, 0.1, p, g)

    def naive_l2(fp):
        total = 0.0
        for i in range(g.nx):
            for j in range(g.ny):
                for k in range(g.nz):
                    total += fp[1 + i, 1 + j, 1 + k] ** 2
        return total * g.cell_volume

    assert rec.l2_T == pytest.approx(naive_l2(s.T), rel=1e-13)
    assert rec.l2_v == pytest.approx(naive_l2(s.v1) + naive_l2(s.v2), rel=1e-13)


def record_case(p, dims, seed=3):
    """A smooth state on a dims grid and the interior (v1, v2, T) of a nearby earlier one."""
    g = make_grid(p, *dims)
    s = random_smooth_state(p, g, seed)
    other = random_smooth_state(p, g, seed + 1)
    prev = tuple(0.9 * f + 0.01 * h for f, h in zip(s.interiors(), other.interiors()))
    return g, s, prev


#: initial |T0|^2 and |Q|^2 for the decay envelope a record carries
INITIAL = dict(l2_t0=0.3, l2_q=0.02)


def slab_planes(g):
    return max(1, diag.SLAB_CELLS // (g.ny * g.nz))


@pytest.mark.parametrize("dims", [(8, 8, 8), (32, 16, 8), (12, 10, 6), (64, 32, 16)])
@pytest.mark.parametrize("with_prev", [False, True])
def test_one_slab_record_bit_equal_to_whole_array_oracle(dims, with_prev):
    p = PhysParams(lx=1.0, l=0.9, h=0.7)
    g, s, prev = record_case(p, dims)
    assert slab_planes(g) >= g.nx
    prev = prev if with_prev else None
    got = diag.compute_record(s, prev, 0.01, p, g, t=0.5, **INITIAL)
    want = record_reference(s, prev, 0.01, p, g, t=0.5, **INITIAL)
    assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("with_prev", [False, True])
def test_multi_slab_record_matches_oracle_to_rounding(with_prev):
    p = PhysParams(lx=1.0, l=0.9, h=0.7)
    g, s, prev = record_case(p, (72, 24, 20))
    planes = slab_planes(g)
    assert g.nx > planes and g.nx % planes  # two slabs, the last one partial
    prev = prev if with_prev else None
    got = diag.compute_record(s, prev, 0.01, p, g, t=0.5, **INITIAL)
    want = record_reference(s, prev, 0.01, p, g, t=0.5, **INITIAL)
    for name in diag.CSV_COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        if math.isnan(b):
            assert math.isnan(a), name
        else:
            assert a == pytest.approx(b, rel=1e-14, abs=0.0), name


def test_record_temporaries_bounded_by_slab():
    """At 128x64x32 the whole-array formulas allocate about 30 MB per record."""
    p = PhysParams(lx=1.0, l=0.9, h=0.7)
    g, s, prev = record_case(p, (128, 64, 32))
    diag.compute_record(s, prev, 0.01, p, g)
    tracemalloc.start()
    try:
        diag.compute_record(s, prev, 0.01, p, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6e6


class TestKappa:
    def test_reference_value(self):
        assert diag.kappa(PhysParams(rt2=1.0, h=1.0, alpha=1.0)) == 4.0

    def test_surface_term_scales_with_alpha(self):
        assert diag.kappa(PhysParams(rt2=1.0, h=1.0, alpha=2.0)) == 3.0

    def test_monotone_in_depth(self):
        vals = [diag.kappa(PhysParams(rt2=1.0, h=h, alpha=1.0)) for h in (0.5, 1.0, 2.0, 4.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestGronwall:
    def test_t_zero(self):
        p = PhysParams(rt2=1.0, h=1.0, alpha=1.0)
        assert diag.gronwall_T_envelope(0.0, 3.0, 0.5, diag.kappa(p)) == 3.0 + 16.0 * 0.5

    def test_pure_decay_limit(self):
        p = PhysParams(rt2=1.0, h=1.0, alpha=1.0)
        assert diag.gronwall_T_envelope(400.0, 1.0, 0.0, diag.kappa(p)) < 1e-40

    def test_e_inverse(self):
        assert diag.gronwall_T_envelope(4.0, 1.0, 0.0, kap=4.0) == pytest.approx(
            0.36787944117144233, rel=1e-15
        )


class TestPoincareT:
    def test_zero_field(self):
        g = make_grid(P, 8, 8, 8)
        s = State.zeros(g).fill_all_ghosts(P, g)
        rec = diag.compute_record(s, None, 0.1, P, g)
        assert diag.check_poincare_T(rec, P) == 0.0

    def test_constant_field_closed_form(self):
        p = PhysParams(lx=1.0, l=1.0, h=1.0, alpha=1.0, rt2=1.0)
        g = make_grid(p, 8, 8, 8)
        s = State.zeros(g)
        s.T[...] = 1.0  # constant extension: only the surface term survives
        rec = diag.compute_record(s, None, 0.1, p, g)
        kap = diag.kappa(p)
        assert diag.check_poincare_T(rec, p) == pytest.approx(p.h / (kap * p.alpha), rel=1e-12)
        assert diag.check_poincare_T(rec, p) <= 1.0

    def test_random_smooth_sweep(self):
        p = PhysParams(lx=1.0, l=1.0, h=1.0, alpha=1.0)
        g = make_grid(p, 32, 32, 32)
        for seed in range(5):
            s = random_smooth_state(p, g, seed)
            rec = diag.compute_record(s, None, 0.1, p, g)
            assert diag.check_poincare_T(rec, p) <= 1.0 + 1e-3


class TestPoincareV:
    def test_zero_field(self):
        g = make_grid(P, 8, 8, 8)
        s = State.zeros(g).fill_all_ghosts(P, g)
        rec = diag.compute_record(s, None, 0.1, P, g)
        assert diag.check_poincare_v(rec, P) == 0.0

    def test_sine_profile(self):
        p = PhysParams(lx=1.0, l=1.0, h=1.0)
        g = make_grid(p, 8, 64, 8)
        s = State.zeros(g)
        # analytic extension into the ghosts: x/z constant, odd about the y walls
        y_pad = g.y(np.arange(-1, g.ny + 1))[None, :, None]
        s.v1[...] = np.sin(np.pi * y_pad / p.l) * np.ones_like(s.v1)
        rec = diag.compute_record(s, None, 0.1, p, g)
        ratio = diag.check_poincare_v(rec, p)
        assert ratio == pytest.approx(1.0 / (2 * np.pi), abs=2e-3)

    def test_zero_gradient_nonzero_v_flagged(self):
        rec_kw = {name: 0.0 for name in diag.CSV_COLUMNS}
        rec_kw.update(l2_v=1.0, l2_gradv=0.0)
        rec = diag.DiagRecord(**rec_kw)
        assert diag.check_poincare_v(rec, P) == float("inf")

    def test_random_smooth_sweep(self):
        p = PhysParams(lx=1.0, l=1.0, h=1.0)
        g = make_grid(p, 24, 24, 16)
        for seed in range(5):
            s = random_smooth_state(p, g, seed)
            rec = diag.compute_record(s, None, 0.1, p, g)
            assert diag.check_poincare_v(rec, p) <= 1.0


def absorbing_entry_time(records, radius_sq):
    """First record time after which v1norm_v + v2norm_T stays within radius_sq, or None."""
    entry = None
    for rec in records:
        if rec.v1norm_v + rec.v2norm_T <= radius_sq:
            if entry is None:
                entry = rec.t
        else:
            entry = None
    return entry


class TestAbsorbingEntry:
    def _records(self, levels):
        rows = []
        for i, lv in enumerate(levels):
            kw = {name: 0.0 for name in diag.CSV_COLUMNS}
            kw.update(t=float(i), v1norm_v=lv, v2norm_T=0.0)
            rows.append(diag.DiagRecord(**kw))
        return rows

    def test_always_below(self):
        recs = self._records([0.5, 0.4, 0.3])
        assert absorbing_entry_time(recs, 1.0) == 0.0

    def test_always_above(self):
        recs = self._records([2.0, 3.0, 2.5])
        assert absorbing_entry_time(recs, 1.0) is None

    def test_entry_after_excursion(self):
        recs = self._records([2.0, 0.5, 1.5, 0.8, 0.6])
        assert absorbing_entry_time(recs, 1.0) == 3.0

    def test_entry_time_monotone_in_radius(self):
        g = make_grid(P, 12, 10, 6)
        s = State.zeros(g)
        x, y, z = g.coords()
        s.T[INTERIOR] = 2.0 * np.exp(-(x**2) - (y - 0.5) ** 2 - (z + 0.5) ** 2)
        s.fill_all_ghosts(P, g)
        cfg = StepConfig(dt=0.02, t_end=3.0, output_every=5)
        _, records = run(s, P, g, cfg)
        level0 = records[0].v1norm_v + records[0].v2norm_T
        radii = [level0 * 0.5, level0 * 0.1, level0 * 0.02]
        entries = [absorbing_entry_time(records, r) for r in radii]
        assert all(e is not None for e in entries)
        assert entries[0] <= entries[1] <= entries[2]


def v6_split_ratio(s, p, g):
    """Ratio of ||v||_6 to its depth-split upper bound (constant 1); 0 for the zero state.

    The decomposition constant is generic, so the ratio is reported, never
    bounded.
    """
    l6_v = norm6(g, s.v1[INTERIOR], s.v2[INTERIOR])
    if l6_v == 0.0:
        return 0.0
    rec = diag.compute_record(s, None, 1.0, p, g)
    denom = (
        p.h ** (-1.0 / 3.0) * math.sqrt(rec.l2_v)
        + p.h ** (1.0 / 6.0) * math.sqrt(rec.grad_vbar_2d)
        + rec.l6_vtilde
    )
    return l6_v / denom if denom > 0.0 else float("inf")


def test_v6_split_ratio_reported():
    p = PhysParams(lx=1.0, l=1.0, h=1.0)
    g = make_grid(p, 12, 10, 8)
    s = random_smooth_state(p, g, seed=2)
    ratio = v6_split_ratio(s, p, g)
    assert np.isfinite(ratio) and ratio > 0.0
    zero = State.zeros(g).fill_all_ghosts(p, g)
    assert v6_split_ratio(zero, p, g) == 0.0
