import numpy as np
import pytest

from peqlab import PhysParams, State, make_grid
from peqlab import model
from peqlab import operators as ops
from peqlab.grid import INTERIOR
from peqlab.oracle import apply_L1, apply_L2, full_rhs


def analytic_fill(g, fn):
    """Padded field with ghosts evaluated from the analytic expression."""
    X = g.x(np.arange(-1, g.nx + 1))[:, None, None]
    Y = g.y(np.arange(-1, g.ny + 1))[None, :, None]
    Z = g.z(np.arange(-1, g.nz + 1))[None, None, :]
    return fn(X, Y, Z) * np.ones((g.nx + 2, g.ny + 2, g.nz + 2))


def test_coriolis_values():
    assert model.coriolis_f(0.0, PhysParams(f0=1.0, beta=0.5)) == 1.0
    assert model.coriolis_f(2.0, PhysParams(f0=1e-12, beta=1.0)) == pytest.approx(2.0)
    p = PhysParams(f0=0.7, beta=0.0)
    for y in (0.0, 1.0, -3.0):
        assert model.coriolis_f(y, p) == 0.7


class TestDiagnoseW:
    def setup_method(self):
        self.p = PhysParams(lx=1.0, l=1.0, h=1.0)
        self.g = make_grid(self.p, 8, 8, 8)

    def test_zero_velocity(self):
        s = State.zeros(self.g).fill_all_ghosts(self.p, self.g)
        assert np.abs(model.diagnose_w(s.v1, s.v2, self.g)).max() == 0.0

    def test_divergence_free_columns(self):
        g, p = self.g, self.p
        s = State.zeros(g)
        _, _, z = g.coords()
        s.v1[INTERIOR] = np.cos(z) * np.ones((g.nx, g.ny, g.nz))
        s.v2[INTERIOR] = np.sin(z) * np.ones((g.nx, g.ny, g.nz))
        s.fill_all_ghosts(p, g)
        w = model.diagnose_w(s.v1, s.v2, g)
        # away from the lateral ghost ring the columns are divergence free
        assert np.abs(w[1:-1, 1:-1, :]).max() < 1e-13

    def test_constant_divergence(self):
        g, p = self.g, self.p
        s = State.zeros(g)
        x, y, z = g.coords()
        s.v1[INTERIOR] = x + 0 * y + 0 * z
        s.fill_all_ghosts(p, g)
        w = model.diagnose_w(s.v1, s.v2, g)
        expect = -(z + p.h) + 0 * x + 0 * y
        assert np.abs(w[1:-1, :, :] - expect[1:-1, :, :]).max() < 1e-13


def reconstruct_pressure(T, p_s, g):
    """Hydrostatic pressure p(x,y,z) = p_s(x,y) - int_0^z T dz' (interior arrays)."""
    return p_s[:, :, None] + ops.integrate_from_top(T, g)


class TestPressure:
    def setup_method(self):
        self.p = PhysParams(lx=1.0, l=1.0, h=1.0)
        self.g = make_grid(self.p, 6, 6, 8)

    def test_zero_temperature(self):
        g = self.g
        ps = np.arange(g.nx * g.ny, dtype=float).reshape(g.nx, g.ny)
        pr = reconstruct_pressure(np.zeros((g.nx, g.ny, g.nz)), ps, g)
        assert np.array_equal(pr, np.repeat(ps[:, :, None], g.nz, axis=2))

    def test_constant_temperature(self):
        g = self.g
        _, _, z = g.coords()
        pr = reconstruct_pressure(np.ones((g.nx, g.ny, g.nz)), np.zeros((g.nx, g.ny)), g)
        assert np.abs(pr - (-z) * np.ones((g.nx, g.ny, g.nz))).max() < 1e-14

    def test_linear_temperature(self):
        g = self.g
        _, _, z = g.coords()
        T = z * np.ones((g.nx, g.ny, g.nz))
        pr = reconstruct_pressure(T, np.zeros((g.nx, g.ny)), g)
        assert np.abs(pr - (-(z**2) / 2) * np.ones((g.nx, g.ny, g.nz))).max() < 1e-14

    def test_hydrostatic_balance_recovered(self):
        """d/dz of the reconstructed pressure is -T to second order."""
        p, g = self.p, make_grid(self.p, 6, 6, 32)
        x, y, z = g.coords()
        T = (np.sin(2 * z) * (1 + 0.2 * np.sin(x) * np.cos(y))) * np.ones((g.nx, g.ny, g.nz))
        pr = reconstruct_pressure(T, np.zeros((g.nx, g.ny)), g)
        dpdz = (pr[:, :, 2:] - pr[:, :, :-2]) / (2 * g.dz)
        err = np.abs(dpdz + T[:, :, 1:-1]).max()
        assert err < 2.0 * g.dz**2 * 8  # |d3T/dz3| bounded by 8 here


def baroclinic(Tp, g):
    """Both components of the baroclinic gradient of the padded T."""
    P = model.hydrostatic_integral(Tp, g)
    return tuple(model.baroclinic_pressure_gradient(P, g, axis) for axis in (0, 1))


class TestBaroclinic:
    def test_constant_T(self):
        p = PhysParams()
        g = make_grid(p, 6, 6, 6)
        s = State.zeros(g)
        s.T[...] = 4.2
        bx, by = baroclinic(s.T, g)
        assert np.abs(bx).max() == 0.0 and np.abs(by).max() == 0.0

    def test_T_equals_x(self):
        p = PhysParams(lx=1.0)
        g = make_grid(p, 8, 6, 6)
        s = State.zeros(g)
        x, y, z = g.coords()
        s.T[INTERIOR] = x + 0 * y + 0 * z
        s.fill_all_ghosts(p, g)
        bx, by = baroclinic(s.T, g)
        assert np.abs(bx[1:-1] - (z + 0 * x + 0 * y)[1:-1]).max() < 1e-13
        assert np.abs(by[1:-1, 1:-1]).max() < 1e-13

    def test_smooth_field_second_order(self):
        p = PhysParams(lx=1.0, l=1.0, h=1.0)

        def err(n):
            g = make_grid(p, n, n, n)
            Tp = analytic_fill(g, lambda X, Y, Z: np.sin(X) * np.cos(Y) * Z**2)
            x, y, z = g.coords()
            exact_x = np.cos(x) * np.cos(y) * z**3 / 3.0
            exact_y = -np.sin(x) * np.sin(y) * z**3 / 3.0
            bx, by = baroclinic(Tp, g)
            return max(np.abs(bx - exact_x).max(), np.abs(by - exact_y).max())

        e16, e32 = err(16), err(32)
        order = np.log(e16 / e32) / np.log(2.0)
        assert 1.8 <= order <= 2.2


class TestViscosity:
    def test_quadratic_x(self):
        p = PhysParams(re1=2.0)
        g = make_grid(p, 8, 6, 6)
        x, y, z = g.coords()
        s = State.zeros(g)
        s.v1[INTERIOR] = x**2 + 0 * y + 0 * z
        s.fill_all_ghosts(p, g)
        L = apply_L1(s.v1, p, g)
        assert np.abs(L[1:-1, 1:-1, 1:-1] + 2.0 / p.re1).max() < 1e-12

    def test_quadratic_z(self):
        p = PhysParams(rt2=4.0)
        g = make_grid(p, 6, 6, 8)
        x, y, z = g.coords()
        s = State.zeros(g)
        s.T[INTERIOR] = z**2 + 0 * x + 0 * y
        s.fill_all_ghosts(p, g)
        L = apply_L2(s.T, p, g)
        assert np.abs(L[1:-1, 1:-1, 1:-1] + 2.0 / p.rt2).max() < 1e-12


def random_smooth_state(p, g, seed, amp=1.0):
    """Boundary-compatible random state from a few smooth modes."""
    rng = np.random.default_rng(seed)
    x, y, z = g.coords()
    xs = np.pi * (x + p.lx) / (2 * p.lx)
    ys = np.pi * y / p.l
    zs = np.pi * z / p.h
    s = State.zeros(g)
    v1 = np.zeros((g.nx, g.ny, g.nz))
    v2 = np.zeros((g.nx, g.ny, g.nz))
    T = np.zeros((g.nx, g.ny, g.nz))
    for m in range(1, 4):
        a, b, c, d = rng.standard_normal(4)
        v1 += a * np.sin(2 * m * xs) * np.sin(m * ys) * np.cos(m * zs)
        v2 += b * np.sin(2 * m * xs) * np.sin(m * ys) * np.cos(m * zs)
        T += c * np.cos(2 * m * xs) * np.cos(m * ys) * np.cos(m * zs + d)
    s.v1[INTERIOR] = amp * v1
    s.v2[INTERIOR] = amp * v2
    s.T[INTERIOR] = amp * T
    s.fill_all_ghosts(p, g)
    s.refresh_w(p, g)
    return s


def test_skew_advection_energy_neutral():
    p = PhysParams(lx=1.5, l=1.0, h=0.8)
    g = make_grid(p, 12, 10, 8)
    vol = g.cell_volume
    for seed in range(5):
        s = random_smooth_state(p, g, seed)
        faces = model.face_velocities(s.v1, s.v2, s.w, g)
        for phi_pad in (s.v1, s.v2, s.T):
            adv = model.advect_faces(faces, phi_pad)
            inner = vol * np.sum(adv * phi_pad[INTERIOR])
            phi2 = vol * np.sum(phi_pad[INTERIOR] ** 2)
            scale = phi2 * (
                np.abs(s.v1).max() / g.dx
                + np.abs(s.v2).max() / g.dy
                + np.abs(s.w).max() / g.dz
            )
            assert abs(inner) <= 1e-12 * scale


def test_face_advection_matches_textbook_form():
    from peqlab.oracle import advect_reference

    p = PhysParams(lx=1.3, l=0.9, h=0.6)
    g = make_grid(p, 11, 7, 5)
    for seed in range(3):
        s = random_smooth_state(p, g, seed)
        faces = model.face_velocities(s.v1, s.v2, s.w, g)
        for phi_pad in (s.v1, s.v2, s.T):
            ref = advect_reference(s.v1, s.v2, s.w, phi_pad, g)
            got = model.advect_faces(faces, phi_pad)
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


class TestRhs:
    def setup_method(self):
        self.p = PhysParams(lx=1.0, l=1.0, h=1.0)
        self.g = make_grid(self.p, 8, 8, 8)

    def test_zero_state_zero_tendency(self):
        s = State.zeros(self.g).fill_all_ghosts(self.p, self.g)
        dv1, dv2, dT = full_rhs(s, self.p, self.g)
        assert np.abs(dv1).max() == 0.0
        assert np.abs(dv2).max() == 0.0
        assert np.abs(dT).max() == 0.0

    def test_baroclinic_only_survives(self):
        p, g = self.p, self.g
        s = State.zeros(g)
        x, y, z = g.coords()
        s.T[INTERIOR] = x + 0 * y + 0 * z
        s.fill_all_ghosts(p, g)
        dv1, dv2, _ = full_rhs(s, p, g)
        core = np.s_[1:-1, 1:-1, 1:-1]
        assert np.abs(dv1[core] - (z + 0 * x + 0 * y)[core]).max() < 1e-12
        assert np.abs(dv2[core]).max() < 1e-12

    def test_constant_T_insulating_limit(self):
        # Diffusion of a z-constant field with pure Neumann ghosts vanishes;
        # the Robin surface row drains a constant, so compare with tiny alpha.
        p = PhysParams(lx=1.0, l=1.0, h=1.0, alpha=1e-12)
        g = make_grid(p, 8, 8, 8)
        s = State.zeros(g)
        s.T[INTERIOR] = 2.0
        s.fill_all_ghosts(p, g)
        assert np.abs(full_rhs(s, p, g)[2]).max() < 1e-9

    def test_nonfinite_tendency_reported_with_location(self):
        """A non-finite rate stops integrator.step, by name, before it writes any field."""
        from peqlab.errors import NumericalError
        from contextlib import closing

        from peqlab.integrator import StepConfig, Workspace, step

        p, g = self.p, self.g
        cases = (
            # the face sums read a cell's neighbours, not the cell: a NaN at
            # interior (3, 4, 5) first shows in the rate of its x-neighbour
            ("T", (4, 5, 6), True, r"dT at interior index \(2, 4, 5\)"),
            # a NaN in a bottom ghost of v2 reaches dv2 only; one in the
            # interior would reach dv1 first, through Coriolis and the faces
            ("v2", (4, 5, 0), False, r"dv2 at interior index \(3, 4, 0\)"),
        )
        for name, index, temperature_only, message in cases:
            s = random_smooth_state(p, g, seed=0)
            getattr(s, name)[index] = np.nan
            before = s.copy()
            cfg = StepConfig(dt=0.01, t_end=0.01, temperature_only=temperature_only)
            with pytest.raises(NumericalError, match=message), closing(Workspace(g, cfg)) as ws:
                step(s, cfg.dt, p, g, cfg, ws)
            for field in ("v1", "v2", "T", "w", "p_s"):
                assert np.array_equal(getattr(s, field), getattr(before, field), equal_nan=True)
