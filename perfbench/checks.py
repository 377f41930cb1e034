"""Output checks for the benchmark workloads, made apart from peqlab.

Nothing here imports peqlab.  Snapshots are read by this module's own PEQ1
reader, norms are recomputed with ``math.fsum``, and convergence orders are
refitted from the written error tables.  Every check raises ``CheckFailed``
with a message naming the file and the violated property.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

#: relative tolerance between a norm in a CSV and its recomputation
NORM_RTOL = 1e-12
#: largest depth-mean divergence residual accepted on a coupled run
CONSTRAINT_MAX = 1e-8
#: range the refitted manufactured-solution orders must lie in
MMS_ORDER_RANGE = (1.8, 2.2)

#: geometry defaults of peqlab's config format, for keys a config leaves out
GEOMETRY_DEFAULTS = {"physics.lx": 2.0, "physics.l": 1.0, "physics.h": 0.5}

#: CSV columns defined as nan on the first record (backward differences)
FIRST_RECORD_NAN = ("l2_vt", "l2_Tt")


class CheckFailed(Exception):
    """An output violates a property the benchmark checks."""


def read_cfg(text: str) -> dict:
    """``key = value`` pairs of a config text (comments and blanks dropped)."""
    out = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def cell_volume(cfg: dict) -> float:
    def geo(key):
        return float(cfg.get(key, GEOMETRY_DEFAULTS[key]))

    dx = 2.0 * geo("physics.lx") / int(cfg["grid.nx"])
    dy = geo("physics.l") / int(cfg["grid.ny"])
    dz = geo("physics.h") / int(cfg["grid.nz"])
    return dx * dy * dz


def step_count(cfg: dict) -> int:
    """Steps of a config whose horizon is a whole number of steps."""
    dt, t_end = float(cfg["step.dt"]), float(cfg["step.t_end"])
    n = int(round(t_end / dt))
    if n < 1 or not math.isclose(n * dt, t_end, rel_tol=1e-12):
        raise CheckFailed(f"t_end={t_end!r} is not a whole number of steps of dt={dt!r}")
    return n


def output_times(n_steps: int, every: int, dt: float) -> list:
    """Record times a run of n_steps emits: step 0, every `every`, and the last."""
    marks = [n for n in range(n_steps + 1) if n % every == 0 or n == n_steps]
    return [n * dt for n in marks]


def read_csv(path) -> tuple:
    """Header and float rows of a CSV written by peqlab."""
    lines = [ln for ln in Path(path).read_text(encoding="utf-8").splitlines() if ln.strip()]
    if not lines:
        raise CheckFailed(f"{path}: empty CSV")
    header = lines[0].split(",")
    rows = []
    for k, ln in enumerate(lines[1:], start=2):
        cells = ln.split(",")
        if len(cells) != len(header):
            raise CheckFailed(f"{path}:{k}: {len(cells)} cells, header has {len(header)}")
        rows.append([float(c) for c in cells])
    return header, rows


def columns(header, rows) -> dict:
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


def read_peq(path) -> dict:
    """Interior fields of a PEQ1 snapshot as (nx, ny, nz) / (nx, ny) arrays."""
    raw = Path(path).read_bytes()
    if raw[:4] != b"PEQ1":
        raise CheckFailed(f"{path}: bad magic {raw[:4]!r}")
    nx, ny, nz = struct.unpack_from("<3i", raw, 4)
    n3, n2 = nx * ny * nz, nx * ny
    if len(raw) != 16 + 8 * (4 * n3 + n2):
        raise CheckFailed(f"{path}: {len(raw)} bytes do not match dims {(nx, ny, nz)}")
    out = {"dims": (nx, ny, nz)}
    offset = 16
    for name in ("v1", "v2", "T", "w", "p_s"):
        shape = (nx, ny) if name == "p_s" else (nx, ny, nz)
        count = n2 if name == "p_s" else n3
        vals = np.frombuffer(raw, dtype="<f8", count=count, offset=offset)
        out[name] = vals.reshape(shape, order="F")
        offset += 8 * count
    return out


def sq_norm(arr, vol: float) -> float:
    """vol * sum of squares, summed exactly by math.fsum."""
    flat = np.asarray(arr, dtype=float).ravel()
    return vol * math.fsum((flat * flat).tolist())


def _close(a: float, b: float, what: str, rtol: float = NORM_RTOL):
    if not math.isclose(a, b, rel_tol=rtol):
        raise CheckFailed(f"{what}: CSV {a!r} vs recomputed {b!r}")


def check_finite(path, header, rows):
    for k, row in enumerate(rows):
        for name, v in zip(header, row):
            if k == 0 and name in FIRST_RECORD_NAN:
                continue
            if not math.isfinite(v):
                raise CheckFailed(f"{path}: {name} = {v!r} on record {k}")


def check_times(path, times, expected):
    if len(times) != len(expected):
        raise CheckFailed(f"{path}: {len(times)} records, expected {len(expected)}")
    for got, want in zip(times, expected):
        if not math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12):
            raise CheckFailed(f"{path}: record at t={got!r}, expected t={want!r}")


def check_snapshot_norms(snap: dict, record: dict, vol: float, where: str):
    _close(record["l2_T"], sq_norm(snap["T"], vol), f"{where} l2_T")
    l2_v = sq_norm(snap["v1"], vol) + sq_norm(snap["v2"], vol)
    _close(record["l2_v"], l2_v, f"{where} l2_v")


def check_run_output(outdir, cfg: dict, *, constraint: bool, dense: bool):
    """Checks on a ``peqlab run`` output directory; deletes its snapshots."""
    outdir = Path(outdir)
    n_steps = step_count(cfg)
    dt = float(cfg["step.dt"])
    every = int(cfg.get("step.output_every", 10))
    vol = cell_volume(cfg)
    csv = outdir / "timeseries.csv"
    header, rows = read_csv(csv)
    check_finite(csv, header, rows)
    col = columns(header, rows)
    check_times(csv, col["t"], output_times(n_steps, every, dt))
    records = [dict(zip(header, row)) for row in rows]
    if constraint:
        worst = max(col["constraint_residual"])
        if worst > CONSTRAINT_MAX:
            raise CheckFailed(f"{csv}: constraint residual {worst:.3e} > {CONSTRAINT_MAX:g}")
    final = read_peq(outdir / "snapshot_final.peq")
    check_snapshot_norms(final, records[-1], vol, "snapshot_final.peq")
    if dense:
        check_dense(outdir, records, vol, dt, every)
    for snap in outdir.glob("*.peq"):
        snap.unlink()


def check_dense(outdir: Path, records, vol: float, dt: float, every: int):
    """Per-record snapshots on a run with output every step."""
    if every != 1:
        raise CheckFailed("dense check needs output every step")
    energy = [r["l2_T"] + r["l2_v"] for r in records]
    for k in range(1, len(energy)):
        if energy[k] > energy[k - 1]:
            raise CheckFailed(
                f"l2_T + l2_v rises at record {k}: {energy[k - 1]!r} -> {energy[k]!r}"
            )
    prev = None
    for k, rec in enumerate(records):
        name = f"snapshot_{k:06d}.peq"
        snap = read_peq(outdir / name)
        check_snapshot_norms(snap, rec, vol, name)
        if prev is not None:
            _close(rec["l2_Tt"], sq_norm((snap["T"] - prev["T"]) / dt, vol), f"{name} l2_Tt")
        prev = snap


def fit_order(deltas, errors) -> float:
    """Least-squares slope of log(error) against log(spacing)."""
    xs = [math.log(d) for d in deltas]
    ys = [math.log(e) for e in errors]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def check_mms(path, n_levels: int):
    header, rows = read_csv(path)
    check_finite(path, header, rows)
    col = columns(header, rows)
    if len(rows) != n_levels:
        raise CheckFailed(f"{path}: {len(rows)} levels, expected {n_levels}")
    if min(col["err_v1"] + col["err_v2"] + col["err_T"]) <= 0.0:
        raise CheckFailed(f"{path}: non-positive error")
    err_v = [math.hypot(a, b) for a, b in zip(col["err_v1"], col["err_v2"])]
    lo, hi = MMS_ORDER_RANGE
    for label, errs, written in (("v", err_v, col["order_v"]), ("T", col["err_T"], col["order_T"])):
        order = fit_order(col["delta"], errs)
        if not lo <= order <= hi:
            raise CheckFailed(f"{path}: refitted order_{label} = {order:.4f} outside [{lo}, {hi}]")
        _close(written[0], order, f"{path} order_{label}", rtol=1e-9)


def check_contract(path, cfg: dict):
    header, rows = read_csv(path)
    check_finite(path, header, rows)
    col = columns(header, rows)
    check_times(path, col["t"], output_times(step_count(cfg), int(cfg["step.output_every"]),
                                             float(cfg["step.dt"])))
    for k, (dv, dT, d) in enumerate(zip(col["dist_v"], col["dist_T"], col["dist_l2"])):
        _close(d, math.hypot(dv, dT), f"{path} dist_l2 on record {k}", rtol=1e-14)
    if not col["dist_l2"][-1] < col["dist_l2"][0]:
        raise CheckFailed(
            f"{path}: distance does not fall: {col['dist_l2'][0]!r} -> {col['dist_l2'][-1]!r}"
        )


def check_truncate(path, cfg: dict):
    header, rows = read_csv(path)
    check_finite(path, header, rows)
    col = columns(header, rows)
    check_times(path, col["t"], output_times(step_count(cfg), int(cfg["step.output_every"]),
                                             float(cfg["step.dt"])))
    limit = float(cfg["truncate.max_rel"])
    worst = max(col["rel_diff"])
    if worst > limit:
        raise CheckFailed(f"{path}: truncation difference {worst:.3e} > {limit:g}")


def check_tail(path, cfg: dict, reported_radius: float):
    """The windowed tail ratio at the reported radius (and beyond) is <= epsilon."""
    header, rows = read_csv(path)
    check_finite(path, header, rows)
    col = columns(header, rows)
    check_times(path, col["t"], output_times(step_count(cfg), int(cfg["step.output_every"]),
                                             float(cfg["step.dt"])))
    radii = [float(r) for r in cfg["tail.radii"].split(",")]
    eps = float(cfg["tail.epsilon"])
    tau = float(cfg["tail.tau_probe"])
    probe = [k for k, t in enumerate(col["t"]) if t >= tau]
    if not probe:
        raise CheckFailed(f"{path}: no record at t >= {tau}")
    if not any(math.isclose(r, reported_radius, rel_tol=1e-6) for r in radii):
        raise CheckFailed(f"{path}: reported radius {reported_radius!r} is not one of {radii}")
    for r in radii:
        if r < reported_radius * (1 - 1e-6):
            continue
        window = col[f"w_{r:g}"]
        ratio = max(window[k] / col["total"][k] for k in probe)
        if ratio > eps:
            raise CheckFailed(f"{path}: tail ratio {ratio:.3e} > {eps:g} at r={r:g}")
