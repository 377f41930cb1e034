"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines (pytest
captures them otherwise).  All thresholds live here or in the committed
configs under configs/; nothing is tuned at test time.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from peqlab import PhysParams, State, make_grid, run
from peqlab import diagnostics as diag
from peqlab.config import RunConfig, parse_config_file
from peqlab.grid import INTERIOR
from peqlab.mms import mms_convergence_study
from peqlab.oracle import apply_L1, apply_L2, dense_operator_oracle, flatten, unflatten
from peqlab.projection import project
from peqlab.tail import tail_decay_experiment, truncation_convergence, two_trajectory_contraction
from tests.test_diagnostics import absorbing_entry_time
from tests.test_model import random_smooth_state
from tests.test_tail import max_rel_diff

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SRC_DIR = CONFIG_DIR.parent / "src"

#: criterion 6: the calibrated absorbing radius (squared V-level) and the
#: largest gap between the entry times of the base and the 10x-data runs
ABSORBING_RADIUS_SQ = 0.05
ABSORBING_ENTRY_GAP = 1.0


def report(criterion: int, ok: bool, detail: str):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}"
    print(line, flush=True)
    assert ok, line


def load(name: str) -> RunConfig:
    return parse_config_file(CONFIG_DIR / name)


def execute(cfg: RunConfig, scale=1.0):
    p = cfg.params()
    g = cfg.grid()
    s = cfg.initial_state(p, g, scale=scale)
    final, records = run(s, p, g, cfg.step)
    return {"cfg": cfg, "p": p, "g": g, "final": final, "records": records}


@pytest.fixture(scope="module")
def reference_run():
    return execute(load("reference.cfg"))


@pytest.fixture(scope="module")
def dissipation_run():
    return execute(load("dissipation.cfg"))


@pytest.fixture(scope="module")
def temponly_run():
    return execute(load("dissipation_temponly.cfg"))


@pytest.fixture(scope="module")
def absorbing_runs():
    cfg = load("absorbing.cfg")
    return execute(cfg), execute(cfg, scale=10.0)


def all_records(*results):
    out = []
    for res in results:
        out.extend(res["records"])
    return out


def test_criterion_1_gronwall_envelope(reference_run):
    res = reference_run
    p = res["p"]
    kap = diag.kappa(p)
    records = res["records"]
    l2_t0 = records[0].l2_T
    l2_q = diag.l2sq(res["final"].Q, res["g"])
    worst = max(
        rec.l2_T / (diag.gronwall_T_envelope(rec.t, l2_t0, l2_q, kap=kap))
        for rec in records
    )
    horizon_ok = records[-1].t >= 10.0 * kap - 1e-12
    report(
        1,
        worst <= 1.05 and horizon_ok,
        f"decay envelope: max ratio to bound {worst:.4f} <= 1.05 over t in [0, {records[-1].t:g}]",
    )


def test_criterion_2_poincare(reference_run, dissipation_run, temponly_run, absorbing_runs):
    runs = (reference_run, dissipation_run, temponly_run, *absorbing_runs)
    records = [(rec, res["p"]) for res in runs for rec in res["records"]]
    worst_t = max(diag.check_poincare_T(rec, rp) for rec, rp in records)
    worst_v = max(diag.check_poincare_v(rec, rp) for rec, rp in records)
    p = PhysParams(lx=1.0, l=1.0, h=1.0, alpha=1.0)
    g = make_grid(p, 32, 32, 32)
    for seed in range(1000):
        s = random_smooth_state(p, g, seed)
        rec = diag.compute_record(s, None, 0.1, p, g)
        worst_t = max(worst_t, diag.check_poincare_T(rec, p))
        worst_v = max(worst_v, diag.check_poincare_v(rec, p))
    report(
        2,
        worst_t <= 1.01 and worst_v <= 1.01,
        f"Poincare ratios on {len(records)} run records + 1000 random fields: "
        f"T {worst_t:.4f}, v {worst_v:.4f} <= 1.01",
    )


def test_criterion_3_discrete_dissipation(dissipation_run, temponly_run):
    # run() enforces the per-step inequality (slack 1e-8 coupled, 0 frozen);
    # completing the runs is the primary evidence, records corroborate
    total = [rec.l2_v + rec.l2_T for rec in dissipation_run["records"]]
    coupled_ok = all(b <= a * (1 + 1e-8) for a, b in zip(total, total[1:]))
    temp = [rec.l2_T for rec in temponly_run["records"]]
    temp_ok = all(b <= a for a, b in zip(temp, temp[1:]))
    report(
        3,
        coupled_ok and temp_ok,
        "energy non-increasing: coupled within 1e-8 per step, temperature-only strict",
    )


def test_criterion_4_constraint(reference_run, dissipation_run, absorbing_runs):
    records = all_records(reference_run, dissipation_run, *absorbing_runs)
    worst = max(rec.constraint_residual for rec in records)
    # projection idempotence on a random field
    p = dissipation_run["p"]
    g = make_grid(p, 32, 16, 8)
    rng = np.random.default_rng(7)
    s = State.zeros(g)
    s.v1[INTERIOR] = rng.standard_normal((g.nx, g.ny, g.nz))
    s.v2[INTERIOR] = rng.standard_normal((g.nx, g.ny, g.nz))
    s.fill_all_ghosts(p, g)
    project(s, 0.02, p, g)
    v1_once = s.v1.copy()
    v2_once = s.v2.copy()
    project(s, 0.02, p, g)
    scale = max(np.abs(v1_once).max(), np.abs(v2_once).max())
    drift = max(np.abs(s.v1 - v1_once).max(), np.abs(s.v2 - v2_once).max()) / scale
    report(
        4,
        worst <= 1e-8 and drift <= 1e-12,
        f"constraint residual {worst:.2e} <= 1e-8 at every output; "
        f"projection idempotent to {drift:.2e} <= 1e-12",
    )


def test_criterion_5_mms_convergence():
    cfg = load("mms.cfg")
    p = cfg.params()
    sizes = tuple((n, n, n) for n in cfg["mms.sizes"])
    rep = mms_convergence_study(p, sizes=sizes, dt=cfg["mms.dt"], horizon=cfg["mms.horizon"])
    orders_ok = 1.8 <= rep.order_v <= 2.2 and 1.8 <= rep.order_T <= 2.2
    # dense-operator agreement on 6x6x6
    g6 = make_grid(p, 6, 6, 6)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((6, 6, 6))
    agree = []
    for op, stencil, bcs in (("L1", apply_L1, "velocity"), ("L2", apply_L2, "temperature")):
        from peqlab.bc import TEMPERATURE_BC, VELOCITY_BC, fill_ghosts

        a = dense_operator_oracle(g6, op, p)
        pad = g6.zeros()
        pad[INTERIOR] = x
        fill_ghosts(pad, VELOCITY_BC if bcs == "velocity" else TEMPERATURE_BC, p, g6)
        dense = unflatten(a @ flatten(x), g6)
        rel = np.abs(dense - stencil(pad, p, g6)).max() / np.abs(dense).max()
        agree.append(rel)
    report(
        5,
        orders_ok and max(agree) <= 1e-13,
        f"observed orders v={rep.order_v:.3f}, T={rep.order_T:.3f} in [1.8, 2.2]; "
        f"dense-oracle relative gap {max(agree):.2e} <= 1e-13",
    )


def test_criterion_6_absorbing_set(absorbing_runs):
    small, big = absorbing_runs
    kap = diag.kappa(small["p"])
    t_small = absorbing_entry_time(small["records"], ABSORBING_RADIUS_SQ)
    t_big = absorbing_entry_time(big["records"], ABSORBING_RADIUS_SQ)
    ok = (
        t_small is not None
        and t_big is not None
        and abs(t_big - t_small) <= ABSORBING_ENTRY_GAP
        and small["records"][-1].t - max(t_small, t_big) >= 5.0 * kap
    )
    report(
        6,
        ok,
        f"entries at t={t_small} (base) and t={t_big} (10x data) within gap {ABSORBING_ENTRY_GAP}; "
        f"both inside for >= 5 kappa afterwards",
    )


def test_criterion_7_tail_energy():
    cfg = load("tail.cfg")
    p = cfg.params()
    g = cfg.grid()
    s = cfg.initial_state(p, g)
    tail = cfg.tail
    rows = list(tail_decay_experiment(tail, s, p, g, cfg.step))
    w = np.array(rows)[:, 2:].T  # [radius][time]
    monotone = bool(np.all(np.diff(w, axis=0) <= 1e-18))
    sup_rel = tail.sup_rel(rows)
    largest_ok = sup_rel[-1] <= cfg["tail.epsilon"]
    report(
        7,
        largest_ok and monotone and tail.r_star(rows) is not None,
        f"tail/total for largest r stays <= {sup_rel[-1]:.2e} (limit {cfg['tail.epsilon']:g}) "
        f"for t >= {tail.tau_probe:g}; windowed energy non-increasing in r",
    )


def test_criterion_8_truncation_convergence():
    cfg = load("truncation.cfg")
    p = cfg.params()
    counts = (cfg["grid.nx"], cfg["grid.ny"], cfg["grid.nz"])
    step_cfg = cfg.step
    d12 = max_rel_diff(truncation_convergence(p, counts, step_cfg, cfg.initial_state, factor=2))
    d23 = max_rel_diff(truncation_convergence(p, counts, step_cfg, cfg.initial_state,
                                              factor=3, factor_base=2))
    report(
        8,
        d12 <= 1e-3 and d23 < d12,
        f"doubling changes the common subdomain by {d12:.2e} <= 1e-3; "
        f"widening again changes it by {d23:.2e} < {d12:.2e}",
    )


def test_criterion_9_contraction():
    outcomes = []
    for name, want_monotone in (("contraction_diffusive.cfg", True), ("contraction_default.cfg", False)):
        cfg = load(name)
        p = cfg.params()
        g = cfg.grid()
        s_a, s_b = cfg.contraction_pair(p, g)
        d = [row.dist_l2 for row in two_trajectory_contraction(s_a, s_b, p, g, cfg.step)]
        if want_monotone:
            outcomes.append(all(b <= a for a, b in zip(d, d[1:])))
        outcomes.append(d[-1] < d[0])
    report(
        9,
        all(outcomes),
        "trajectory distance decays monotonically (diffusion-dominated) and "
        "ends below its initial value (default)",
    )


def test_criterion_10_determinism(tmp_path):
    config = CONFIG_DIR / "dissipation.cfg"
    outputs = []
    for name, threads in (("a", "1"), ("b", "1"), ("c", "4")):
        env = dict(os.environ)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = threads
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC_DIR), env.get("PYTHONPATH"))))
        outdir = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "peqlab.cli", "run", str(config), "--output-dir", str(outdir)],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((outdir / "timeseries.csv").read_bytes())
    report(
        10,
        outputs[0] == outputs[1] == outputs[2],
        "repeated executions and a 4-thread execution produce byte-identical CSV",
    )
