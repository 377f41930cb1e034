"""The concurrent step: the same bytes as the serial one, the same failures, no stray threads.

A step on more than `integrator.CONCURRENT_CELLS` cells runs its per-field
tasks on helper threads.  Most tests below lower that threshold to 0 and fix
the CPU count the helper count is taken from, so small grids take the
concurrent path on 2 and 3 workers whatever the machine has; the rest pin
which committed grids take it at the threshold as it stands.
"""

import os
import subprocess
import sys
import threading
from contextlib import closing
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from peqlab import PhysParams, StepConfig, make_grid, run, step, trajectory
from peqlab import diagnostics as diag
from peqlab import integrator
from peqlab.config import parse_config
from peqlab.diffusion import ImplicitDiffusion
from peqlab.errors import NumericalError
from peqlab.mms import mms_convergence_study
from tests.test_integrator import P, gaussian_state
from tests.test_model import random_smooth_state

ROOT = Path(__file__).resolve().parent.parent
FIELDS = ("v1", "v2", "T", "w", "p_s")
HELPER = "peqlab-step"


def go_concurrent(monkeypatch, workers: int):
    """Every grid above the threshold, with `workers` CPUs to run on."""
    monkeypatch.setattr(integrator, "CONCURRENT_CELLS", 0)
    monkeypatch.setattr(integrator.os, "sched_getaffinity", lambda pid: set(range(workers)), raising=False)


def rhs_threads(monkeypatch) -> list:
    """Spy on the momentum tendency: the list of thread names that formed one."""
    names = []
    momentum_rhs = integrator.momentum_rhs

    def spy(*args, **kwargs):
        names.append(threading.current_thread().name)
        return momentum_rhs(*args, **kwargs)

    monkeypatch.setattr(integrator, "momentum_rhs", spy)
    return names


def advance(build, cfg):
    """Every record row and the final fields of a trajectory over freshly built members, as bytes."""
    rows = []
    for _, _, states, records in trajectory(build(), cfg):
        rows.append(np.array(records).tobytes())
    return rows, [getattr(s, name).tobytes() for s in states for name in FIELDS]


WIDE = replace(P, lx=2.0 * P.lx)

MEMBER_SETS = {
    "one": lambda: [(gaussian_state(make_grid(P, 12, 10, 6), P, amp_T=0.8, amp_v=0.2), P,
                     make_grid(P, 12, 10, 6))],
    # lockstep members on one grid, as the contraction pair runs
    "lockstep": lambda: [(gaussian_state(make_grid(P, 12, 10, 6), P, amp_T=a, amp_v=0.2), P,
                          make_grid(P, 12, 10, 6)) for a in (0.8, 1.6)],
    # a base and a doubled channel on two grids, as truncate runs them
    "two_grids": lambda: [(gaussian_state(make_grid(P, 8, 6, 4), P, amp_v=0.2), P, make_grid(P, 8, 6, 4)),
                          (gaussian_state(make_grid(WIDE, 16, 6, 4), WIDE, amp_v=0.2), WIDE,
                           make_grid(WIDE, 16, 6, 4))],
}


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("members", sorted(MEMBER_SETS))
@pytest.mark.parametrize("temperature_only", [False, True], ids=["coupled", "temperature_only"])
def test_concurrent_steps_match_the_serial_path(monkeypatch, workers, members, temperature_only):
    cfg = StepConfig(dt=0.01, t_end=0.06, output_every=2, temperature_only=temperature_only)
    serial = advance(MEMBER_SETS[members], cfg)
    go_concurrent(monkeypatch, workers)
    threads = rhs_threads(monkeypatch)
    assert advance(MEMBER_SETS[members], cfg) == serial
    if not temperature_only:
        # the v2 tendency is task 1, which a helper runs on 2 and on 3 workers
        assert any(name.startswith(HELPER) for name in threads)


ODD = make_grid(P, 13, 10, 6)


def odd_member():
    """A heated member on 13 x-planes, which two workers split 6 + 7 for T's rate."""
    s = random_smooth_state(P, ODD, seed=3, amp=0.3)
    s.Q = 0.5 * np.cos(s.interiors()[2])
    return [(s, P, ODD)]


def rate_lanes(monkeypatch) -> list:
    """Spy on both tendencies: per call, (lane, thread name, field, first plane, end plane).

    A lane is told by the scratch array it lends its tasks, as the pool may
    run two helper lanes on one thread.
    """
    calls = []
    momentum_rhs, temperature_rhs = integrator.momentum_rhs, integrator.temperature_rhs

    def lane(buf):
        return id(buf if buf.base is None else buf.base)

    def momentum_spy(s, p, g, faces, P, axis, out, buf):
        calls.append((lane(buf), threading.current_thread().name, ("v1", "v2")[axis], 0, g.nx))
        return momentum_rhs(s, p, g, faces, P, axis, out, buf)

    def temperature_spy(s, faces, out, buf, lo, hi):
        calls.append((lane(buf), threading.current_thread().name, "T", lo, hi))
        return temperature_rhs(s, faces, out, buf, lo, hi)

    monkeypatch.setattr(integrator, "momentum_rhs", momentum_spy)
    monkeypatch.setattr(integrator, "temperature_rhs", temperature_spy)
    return calls


#: (workers, temperature_only) -> each step's rate tasks, the caller's lane first, then the helpers'
ODD_LANES = {
    (1, False): [[("v1", 0, 13), ("v2", 0, 13), ("T", 0, 13)]],
    # on two CPUs each lane forms one velocity component and one slab of T's rate
    (2, False): [[("v1", 0, 13), ("T", 0, 6)], [("v2", 0, 13), ("T", 6, 13)]],
    # on three, as before the split, each lane forms one rate and T's stays whole
    (3, False): [[("v1", 0, 13)], [("T", 0, 13)], [("v2", 0, 13)]],
}


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("temperature_only", [False, True], ids=["coupled", "temperature_only"])
def test_odd_nx_slabs_match_the_serial_path(monkeypatch, workers, temperature_only):
    """T's x-slabs on an odd nx give the serial bytes, on every output step's kept interiors too."""
    cfg = StepConfig(dt=0.01, t_end=0.05, output_every=1, temperature_only=temperature_only)
    serial = advance(odd_member, cfg)
    go_concurrent(monkeypatch, workers)
    calls = rate_lanes(monkeypatch)
    assert advance(odd_member, cfg) == serial
    # a temperature-only step runs on one worker, so its rate stays whole on the caller
    caller, *helpers = ODD_LANES.get((workers, temperature_only), [[("T", 0, 13)]])
    per_step = len(caller) + sum(map(len, helpers))
    assert len(calls) == per_step * cfg.n_steps
    for n in range(cfg.n_steps):
        lanes, threads = {}, {}
        for lane, thread, *task in calls[n * per_step:(n + 1) * per_step]:
            lanes.setdefault(lane, []).append(tuple(task))
            threads.setdefault(lane, set()).add(thread.startswith(HELPER))
        # the calling thread runs lane 0, and each helper lane runs on a helper alone
        assert lanes.pop(next(k for k, on_helper in threads.items() if on_helper == {False})) == caller
        assert sorted(lanes.values()) == sorted(helpers)
        assert all(threads[k] == {True} for k in lanes)


def test_concurrent_steps_under_a_short_switch_interval(monkeypatch):
    """More workers than this machine may have cores, switching threads every microsecond."""
    cfg = StepConfig(dt=0.01, t_end=0.06, output_every=1)
    serial = advance(MEMBER_SETS["lockstep"], cfg)
    go_concurrent(monkeypatch, 3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert advance(MEMBER_SETS["lockstep"], cfg) == serial
    finally:
        sys.setswitchinterval(interval)


def test_velocity_is_readied_beside_the_temperature_solve(monkeypatch):
    """On two workers the caller projects the velocity while a helper solves T."""
    go_concurrent(monkeypatch, 2)
    calls = []
    project, solve = integrator.project, ImplicitDiffusion.solve

    def project_spy(*args):
        calls.append(("project", threading.current_thread().name))
        return project(*args)

    def solve_spy(self, *args):
        calls.append((self.kind, threading.current_thread().name))
        return solve(self, *args)

    monkeypatch.setattr(integrator, "project", project_spy)
    monkeypatch.setattr(ImplicitDiffusion, "solve", solve_spy)
    g = make_grid(P, 12, 10, 6)
    cfg = StepConfig(dt=0.01, t_end=0.01)
    s = gaussian_state(g, P, amp_T=0.8, amp_v=0.2)
    with closing(integrator.Workspace(g, cfg)) as ws:
        step(s, cfg.dt, P, g, cfg, ws)
    on_helper = {what: name.startswith(HELPER) for what, name in calls}
    assert sorted(what for what, _ in calls) == ["project", "temperature", "velocity", "velocity"]
    assert on_helper["project"] is False and on_helper["temperature"] is True


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("temperature_only", [False, True], ids=["coupled", "temperature_only"])
def test_records_difference_the_interiors_before_the_step(monkeypatch, workers, temperature_only):
    """l2_vt and l2_Tt of every record are those of the interiors one step back, kept by the finishing tasks."""
    if workers > 1:
        go_concurrent(monkeypatch, workers)
    g = make_grid(P, 12, 10, 6)
    cfg = StepConfig(dt=0.01, t_end=0.04, output_every=1, temperature_only=temperature_only)
    before = None
    for _, t, (s,), (rec,) in trajectory([(gaussian_state(g, P, amp_T=0.8, amp_v=0.2), P, g)], cfg):
        if before is not None:
            expected = diag.compute_record(s, before, cfg.dt, P, g, t=t)
            assert (rec.l2_vt, rec.l2_Tt) == (expected.l2_vt, expected.l2_Tt)
            assert rec.l2_Tt > 0.0 and (rec.l2_vt == 0.0) == temperature_only
        before = tuple(f.copy() for f in s.interiors())


def test_temperature_only_steps_keep_the_prologues_w(monkeypatch):
    """A frozen velocity's w is diagnosed once per member, in the prologue, and never again."""
    members = MEMBER_SETS["lockstep"]()
    calls = []
    refresh_w = integrator.State.refresh_w

    def spy(self, *args):
        calls.append(id(self))
        return refresh_w(self, *args)

    monkeypatch.setattr(integrator.State, "refresh_w", spy)
    cfg = StepConfig(dt=0.01, t_end=0.05, output_every=2, temperature_only=True)
    steps = [n for n, *_ in trajectory(members, cfg)]
    assert steps == [0, 2, 4, 5]
    assert sorted(calls) == sorted(id(s) for s, _, _ in members)


CONFIG = (ROOT / "configs" / "reference.cfg").read_text()


def two_cpus(monkeypatch):
    monkeypatch.setattr(integrator.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.mark.parametrize("counts,temperature_only,workers", [
    ((64, 32, 16), False, 2),  # reference.cfg
    ((32, 32, 32), False, 2),  # the finest mms.cfg level
    ((32, 16, 8), False, 1),  # dissipation.cfg and its kin
    ((32, 32, 16), False, 1),  # 16,384 cells
    ((64, 32, 16), True, 1),
    ((128, 64, 32), True, 1),
])
def test_which_grids_step_concurrently(monkeypatch, counts, temperature_only, workers):
    two_cpus(monkeypatch)
    ws = integrator.Workspace(make_grid(P, *counts), StepConfig(temperature_only=temperature_only))
    try:
        assert ws.workers == workers
    finally:
        ws.close()


def test_cpu_count_stands_in_off_linux(monkeypatch):
    """Without os.sched_getaffinity (macOS, Windows) the helper count comes from os.cpu_count."""
    cfg = StepConfig(dt=0.01, t_end=0.04, output_every=2)
    serial = advance(MEMBER_SETS["one"], cfg)
    monkeypatch.delattr(integrator.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(integrator.os, "cpu_count", lambda: 2)
    ws = integrator.Workspace(make_grid(P, 64, 32, 16), StepConfig())
    try:
        assert ws.workers == 2
    finally:
        ws.close()
    monkeypatch.setattr(integrator, "CONCURRENT_CELLS", 0)
    threads = rhs_threads(monkeypatch)
    assert advance(MEMBER_SETS["one"], cfg) == serial
    assert any(name.startswith(HELPER) for name in threads)


MMS = parse_config((ROOT / "configs" / "mms.cfg").read_text())


def test_mms_study_rows_do_not_depend_on_the_threshold(monkeypatch):
    """The 32^3 level steps concurrently at the threshold as it stands, with the serial bytes."""
    rows = {}
    two_cpus(monkeypatch)
    threads = rhs_threads(monkeypatch)
    for threshold in (10**9, integrator.CONCURRENT_CELLS):
        monkeypatch.setattr(integrator, "CONCURRENT_CELLS", threshold)
        threads.clear()
        report = mms_convergence_study(MMS.params(), sizes=[(n, n, n) for n in MMS["mms.sizes"]],
                                       dt=MMS["mms.dt"], horizon=MMS["mms.horizon"])
        rows[threshold] = np.array(report.rows()).tobytes()
        assert any(name.startswith(HELPER) for name in threads) == (threshold < 10**9)
    assert len(set(rows.values())) == 1


def test_concurrent_run_is_identical_across_blas_threads(tmp_path, monkeypatch):
    """Criterion 10 on the reference.cfg grid: three steps, one record after t = 0."""
    body = CONFIG
    for key, value in (("step.t_end", "0.03"), ("step.output_every", "3")):
        body = body.replace(next(line for line in body.splitlines() if line.startswith(key)),
                            f"{key} = {value}")
    cfg = tmp_path / "reference.cfg"
    cfg.write_text(body)
    assert 64 * 32 * 16 > integrator.CONCURRENT_CELLS
    outputs = {}
    for threads in ("1", "4"):
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
        outdir = tmp_path / threads
        proc = subprocess.run([sys.executable, "-m", "peqlab.cli", "run", str(cfg), "--output-dir",
                               str(outdir)], env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs[threads] = outdir
    # and the serial path in this process
    from peqlab.cli import main

    monkeypatch.setattr(integrator, "CONCURRENT_CELLS", 10**9)
    assert main(["run", str(cfg), "--output-dir", str(tmp_path / "serial")]) == 0
    outputs["serial"] = tmp_path / "serial"
    assert len((outputs["1"] / "timeseries.csv").read_text().splitlines()) == 3  # header, t = 0, 0.03
    for table in ("timeseries.csv", "snapshot_final.peq"):
        first = (outputs["1"] / table).read_bytes()
        for name in ("4", "serial"):
            assert (outputs[name] / table).read_bytes() == first, (table, name)


PR = PhysParams(lx=1.0, l=1.0, h=1.0)
GR = make_grid(PR, 8, 8, 8)


def _q_inf(s):
    s.Q[2, 3, 1] = np.inf


def _v2_ghost_nan(s):
    # a NaN in a bottom ghost of v2 reaches dv2 only
    s.v2[4, 5, 0] = np.nan


def _T_nan(s):
    s.T[3, 4, 5] = np.nan


def _q_inf_last_slab(s):
    # interior plane 6 of 8 lies in T's second x-slab on two workers
    s.Q[6, 3, 1] = np.inf


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("spoil,first", [
    ((_q_inf,), "dT"),
    ((_v2_ghost_nan,), "dv2"),
    ((_v2_ghost_nan, _q_inf), "dv2"),
    ((_T_nan, _v2_ghost_nan, _q_inf), "dv1"),
    ((_q_inf_last_slab, _v2_ghost_nan), "dv2"),
    ((_q_inf_last_slab, _q_inf), "dT"),
], ids=["dT", "dv2", "dv2_before_dT", "dv1_first", "dv2_before_last_slab",
        "dT_first_slab_first"])
def test_concurrent_nonfinite_rate_is_raised_in_field_order(monkeypatch, workers, spoil, first):
    """The first non-finite rate, in the order dv1, dv2, dT, as the serial step names it; no field written."""
    cfg = StepConfig(dt=0.01, t_end=0.01)
    messages = []
    for concurrent in (False, True):
        if concurrent:
            go_concurrent(monkeypatch, workers)
        s = random_smooth_state(PR, GR, seed=0)
        for f in spoil:
            f(s)
        before = s.copy()
        with pytest.raises(NumericalError, match=rf"^non-finite tendency {first} at interior index \(") as info, \
                closing(integrator.Workspace(GR, cfg)) as ws:
            step(s, cfg.dt, PR, GR, cfg, ws)
        messages.append(str(info.value))
        for name in FIELDS:
            assert np.array_equal(getattr(s, name), getattr(before, name), equal_nan=True), name
    assert messages[0] == messages[1]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_nonfinite_rate_in_the_last_slab_names_its_interior_index(monkeypatch, workers):
    """A non-finite dT in T's last x-slab alone is named by its index in the whole interior."""
    go_concurrent(monkeypatch, workers)
    calls = rate_lanes(monkeypatch)
    cfg = StepConfig(dt=0.01, t_end=0.01)
    s = random_smooth_state(PR, GR, seed=0)
    _q_inf_last_slab(s)
    with pytest.raises(NumericalError) as info, closing(integrator.Workspace(GR, cfg)) as ws:
        step(s, cfg.dt, PR, GR, cfg, ws)
    assert str(info.value) == "non-finite tendency dT at interior index (6, 3, 1)"
    slabs = sorted((lo, hi) for *_, field, lo, hi in calls if field == "T")
    assert slabs == ([(0, 4), (4, 8)] if workers == 2 else [(0, 8)])


def test_helper_exception_keeps_its_type_and_note(monkeypatch):
    class TwoArgError(Exception):
        def __init__(self, code, where):
            super().__init__(code, where)

    go_concurrent(monkeypatch, 2)
    momentum_rhs = integrator.momentum_rhs
    dv2_threads = []

    def failing(s, p, g, faces, P, axis, *args):
        if axis == 1:
            dv2_threads.append(threading.current_thread().name)
            if len(dv2_threads) == 3:
                raise TwoArgError(7, "helper")
        return momentum_rhs(s, p, g, faces, P, axis, *args)

    monkeypatch.setattr(integrator, "momentum_rhs", failing)
    g = make_grid(P, 8, 8, 4)
    with pytest.raises(TwoArgError) as info:
        run(gaussian_state(g, P, amp_v=0.2), P, g, StepConfig(dt=0.01, t_end=0.1))
    assert dv2_threads[-1].startswith(HELPER)
    assert info.value.args == (7, "helper")
    assert info.value.__notes__ == ["run aborted; last valid time t=0.02"]


def _helpers() -> list:
    return [t for t in threading.enumerate() if t.name.startswith(HELPER)]


def test_no_thread_outlives_its_trajectory(monkeypatch):
    before = set(threading.enumerate())
    go_concurrent(monkeypatch, 2)
    g = make_grid(P, 8, 8, 4)
    cfg = StepConfig(dt=0.01, t_end=0.05, output_every=1)

    # a normal run
    run(gaussian_state(g, P, amp_v=0.2), P, g, cfg)
    assert set(threading.enumerate()) == before

    # a failed run
    s = gaussian_state(g, P, amp_v=0.2)
    s.Q[1, 1, 1] = np.inf
    with pytest.raises(NumericalError, match="last valid time t=0"):
        run(s, P, g, cfg)
    assert set(threading.enumerate()) == before

    # an abandoned generator, between two output steps
    steps = trajectory([(gaussian_state(g, P, amp_v=0.2), P, g)], cfg)
    next(steps)
    next(steps)
    assert _helpers()
    del steps
    assert set(threading.enumerate()) == before
