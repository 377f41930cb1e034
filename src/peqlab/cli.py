"""Command-line front end.

Subcommands: run, mms, tail, truncate, contract, plot.  Exit codes: 0 on
success, 1 for configuration problems, 2 for numerical failures, 3 when a
configured acceptance/inequality check fails.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import diagnostics as diag
from .config import RunConfig, parse_config_file
from .errors import CheckError, ConfigError, NumericalError
from .integrator import run
from .io import CsvWriter, plot_svg, read_timeseries, write_snapshot
from .mms import mms_convergence_study
from .tail import tail_decay_experiment, truncation_convergence, two_trajectory_contraction


def _outdir(cfg: RunConfig, override):
    path = Path(override) if override else Path(cfg["output.dir"])
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {path}: {exc}") from exc
    return path


def _write_csv(path, header, rows):
    with CsvWriter(path, header) as out:
        for row in rows:
            out(row)


def cmd_run(args) -> int:
    cfg = parse_config_file(args.config)
    p = cfg.params()
    g = cfg.grid()
    step_cfg = cfg.step_config()
    out = _outdir(cfg, args.output_dir)
    s = cfg.initial_state(p, g)

    snapshots = cfg["output.snapshots"]

    def snapshot_sink(state, t, n):
        if snapshots:
            write_snapshot(state, out / f"snapshot_{n:06d}.peq")

    with CsvWriter(out / "timeseries.csv", diag.CSV_COLUMNS) as series:
        final, records = run(
            s, p, g, step_cfg, checks=cfg.checks(),
            record_sink=lambda rec: series(rec.row()), snapshot_sink=snapshot_sink,
        )
    write_snapshot(final, out / "snapshot_final.peq")
    last = records[-1]
    print(f"run finished at t={last.t:.6g}: |T|^2={last.l2_T:.6g} |v|^2={last.l2_v:.6g} "
          f"constraint={last.constraint_residual:.3e}")
    print(f"wrote {out / 'timeseries.csv'}")
    return 0


def cmd_mms(args) -> int:
    cfg = parse_config_file(args.config)
    p = cfg.params()
    sizes = tuple((n, n, n) for n in cfg["mms.sizes"])
    out = _outdir(cfg, args.output_dir)
    report = mms_convergence_study(p, sizes=sizes, dt=cfg["mms.dt"], horizon=cfg["mms.horizon"])
    _write_csv(out / "mms.csv",
               ("delta", "err_v1", "err_v2", "err_T", "order_v", "order_T"),
               report.rows())
    print(f"observed orders: velocity {report.order_v:.3f}, temperature {report.order_T:.3f}")
    if not (1.8 <= report.order_v <= 2.2 and 1.8 <= report.order_T <= 2.2):
        raise CheckError(
            f"convergence orders out of range: v={report.order_v:.3f}, T={report.order_T:.3f}"
        )
    if not report.monotone:
        raise CheckError("refinement errors are not monotone")
    return 0


def cmd_tail(args) -> int:
    cfg = parse_config_file(args.config)
    p = cfg.params()
    g = cfg.grid()
    out = _outdir(cfg, args.output_dir)
    s = cfg.initial_state(p, g)
    report = tail_decay_experiment(cfg.tail_config(), s, p, g, cfg.step_config(), cfg.checks())
    header = ["t", "total"] + [f"w_{r:g}" for r in report.radii]
    rows = [
        (t, tot, *[report.windowed[i][k] for i in range(len(report.radii))])
        for k, (t, tot) in enumerate(zip(report.times, report.totals))
    ]
    _write_csv(out / "tail.csv", header, rows)
    for r, sup_rel in zip(report.radii, report.sup_rel):
        print(f"r={r:g}: sup tail/total for t>={report.tau_probe:g} is {sup_rel:.3e}")
    if not report.passed:
        raise CheckError(f"no radius achieved tail ratio <= {report.epsilon:g}")
    print(f"smallest radius within epsilon: r={report.r_star:g}")
    return 0


def cmd_truncate(args) -> int:
    cfg = parse_config_file(args.config)
    if cfg["q.kind"] == "file":
        raise ConfigError("truncate requires an analytic heat source (q.kind zero or gaussian)")
    counts = (cfg["grid.nx"], cfg["grid.ny"], cfg["grid.nz"])
    out = _outdir(cfg, args.output_dir)
    report = truncation_convergence(cfg.params(), counts, cfg.step_config(), cfg.q_field,
                                    factor=cfg["truncate.factor"], checks=cfg.checks())
    _write_csv(out / "truncate.csv", ("t", "rel_diff"), list(zip(report.times, report.rel_diff)))
    print(f"max relative difference against {report.factor}x domain: {report.max_rel_diff:.3e}")
    limit = cfg["truncate.max_rel"]
    if limit > 0.0 and report.max_rel_diff > limit:
        raise CheckError(f"truncation difference {report.max_rel_diff:.3e} exceeds {limit:g}")
    return 0


def cmd_contract(args) -> int:
    cfg = parse_config_file(args.config)
    p = cfg.params()
    g = cfg.grid()
    out = _outdir(cfg, args.output_dir)
    s_a = cfg.initial_state(p, g)
    perturbed = RunConfig(dict(cfg.values))
    perturbed.values["init.center_x"] = cfg["init.center_x"] + cfg["contract.shift_x"]
    perturbed.values["init.t_amplitude"] = cfg["init.t_amplitude"] * cfg["contract.t_scale"]
    perturbed.values["init.v_amplitude"] = cfg["init.v_amplitude"] * cfg["contract.t_scale"]
    s_b = perturbed.initial_state(p, g)
    s_b.Q = s_a.Q.copy()
    report = two_trajectory_contraction(s_a, s_b, p, g, cfg.step_config(), cfg.checks())
    _write_csv(
        out / "contract.csv",
        ("t", "dist_v", "dist_T", "dist_l2", "v_proxy"),
        list(zip(report.times, report.dist_v, report.dist_T, report.dist_l2, report.v_proxy)),
    )
    print(f"distance {report.dist_l2[0]:.6g} -> {report.dist_l2[-1]:.6g} over t={report.times[-1]:g}")
    if report.dist_l2[0] > 0.0 and not report.dist_l2[-1] < report.dist_l2[0]:
        raise CheckError("trajectories did not contract over the configured horizon")
    return 0


def cmd_plot(args) -> int:
    data = read_timeseries(args.csv)
    if "t" not in data:
        raise ConfigError(f"{args.csv}: no time column")
    columns = [c.strip() for c in args.columns.split(",") if c.strip()]
    missing = [c for c in columns if c not in data]
    if missing:
        raise ConfigError(f"unknown columns {missing}; available: {sorted(data)}")
    series = {c: (data["t"], data[c]) for c in columns}
    dashed = []
    if args.envelope:
        if not args.config:
            raise ConfigError("--envelope needs --config to supply kappa and the heat source")
        cfg = parse_config_file(args.config)
        g = cfg.grid()
        kap = diag.kappa(cfg.params())
        l2_q = diag.l2sq(cfg.q_field(g), g)
        if "l2_T" not in data:
            raise ConfigError("envelope overlay needs an l2_T column")
        l2_t0 = float(data["l2_T"][0])
        env = [diag.gronwall_T_envelope(t, l2_t0, l2_q, kap=kap) for t in data["t"]]
        series["gronwall_envelope"] = (data["t"], np.array(env))
        dashed.append("gronwall_envelope")
    out = args.out or (str(Path(args.csv).with_suffix("")) + ".svg")
    plot_svg(series, out, title=Path(args.csv).name, log_y=not args.linear, dashed=dashed)
    print(f"wrote {out}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="peqlab",
        description="Channel-domain primitive-equations simulator and diagnostics laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_):
        sp = sub.add_parser(name, help=help_)
        sp.set_defaults(handler=handler)
        return sp

    for name, handler, help_ in (
        ("run", cmd_run, "physics run with diagnostics"),
        ("mms", cmd_mms, "manufactured-solution convergence study"),
        ("tail", cmd_tail, "windowed tail-energy experiment"),
        ("truncate", cmd_truncate, "domain-truncation convergence study"),
        ("contract", cmd_contract, "two-trajectory contraction probe"),
    ):
        sp = add(name, handler, help_)
        sp.add_argument("config", help="path to a key=value config file")
        sp.add_argument("--output-dir", default=None, help="override output.dir")

    sp = add("plot", cmd_plot, "render CSV columns to an SVG plot")
    sp.add_argument("csv", help="time-series CSV produced by a run")
    sp.add_argument("columns", help="comma-separated column names")
    sp.add_argument("--out", default=None, help="output SVG path")
    sp.add_argument("--config", default=None, help="config for the envelope overlay")
    sp.add_argument("--envelope", action="store_true", help="overlay the decay envelope")
    sp.add_argument("--linear", action="store_true", help="linear instead of log y axis")
    return parser


def _describe(exc: Exception) -> str:
    """The exception message followed by its notes, such as a run's last valid time."""
    return "; ".join((str(exc), *getattr(exc, "__notes__", ())))


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {_describe(exc)}", file=sys.stderr)
        return 1
    except CheckError as exc:
        print(f"check failed: {_describe(exc)}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {_describe(exc)}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
