"""Command-line front end.

Subcommands: run, mms, tail, truncate, contract, plot.  For every command
but plot, main parses the config file, makes the output directory and then
calls the command with (cfg, out); plot reads its CSV alone, the decay
envelope being a run's envelope_T column.  The output directory is
--output-dir when given, else out/<config file stem>, so configs/tail.cfg
writes to out/tail; an empty --output-dir is rejected before any directory is
made.  Exit codes: 0 on success, then one per failure class in FAILURES: 1
for configuration problems, 2 for numerical failures, 3 when a run monitor or
an experiment's verdict fails.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import diagnostics as diag
from .config import RunConfig, parse_config_file
from .errors import CheckError, ConfigError, NumericalError
from .integrator import trajectory
from .io import plot_svg, read_timeseries, write_csv, write_snapshot
from .mms import mms_convergence_study
from .tail import (ContractionRow, TruncationRow, tail_decay_experiment, truncation_convergence,
                   two_trajectory_contraction)


#: exit code and stderr prefix of each failure a command may raise
FAILURES = {ConfigError: (1, "config error"), NumericalError: (2, "numerical failure"),
            CheckError: (3, "check failed")}


def _write_csv(path, header, rows):
    write_csv(path, header, rows)


def cmd_run(cfg: RunConfig, out: Path) -> int:
    p, g = cfg.params(), cfg.grid()
    s = cfg.initial_state(p, g)

    def records():
        # each snapshot is written after its record's row
        for n, _, _, (rec,) in trajectory([(s, p, g)], cfg.step):
            yield rec
            if cfg.output.snapshots:
                write_snapshot(s, out / f"snapshot_{n:06d}.peq")

    last = write_csv(out / "timeseries.csv", diag.CSV_COLUMNS, records())[-1]
    write_snapshot(s, out / "snapshot_final.peq")
    print(f"run finished at t={last.t:.6g}: |T|^2={last.l2_T:.6g} |v|^2={last.l2_v:.6g} "
          f"constraint={last.constraint_residual:.3e}")
    print(f"wrote {out / 'timeseries.csv'}")
    return 0


def cmd_mms(cfg: RunConfig, out: Path) -> int:
    sizes = tuple((n, n, n) for n in cfg.mms.sizes)
    report = mms_convergence_study(cfg.params(), sizes=sizes, dt=cfg.mms.dt, horizon=cfg.mms.horizon)
    _write_csv(out / "mms.csv", report.header, report.rows())
    print(f"observed orders: velocity {report.order_v:.3f}, temperature {report.order_T:.3f}")
    if not (1.8 <= report.order_v <= 2.2 and 1.8 <= report.order_T <= 2.2):
        raise CheckError(
            f"convergence orders out of range: v={report.order_v:.3f}, T={report.order_T:.3f}"
        )
    if not report.monotone:
        raise CheckError("refinement errors are not monotone")
    return 0


def cmd_tail(cfg: RunConfig, out: Path) -> int:
    p, g = cfg.params(), cfg.grid()
    tail = cfg.tail
    rows = write_csv(out / "tail.csv", tail.header, tail_decay_experiment(
        tail, cfg.initial_state(p, g), p, g, cfg.step))
    for r, sup_rel in zip(tail.radii, tail.sup_rel(rows)):
        print(f"r={r:g}: sup tail/total for t>={tail.tau_probe:g} is {sup_rel:.3e}")
    r_star = tail.r_star(rows)
    if r_star is None:
        raise CheckError(f"no radius achieved tail ratio <= {tail.epsilon:g}")
    print(f"smallest radius within epsilon: r={r_star:g}")
    return 0


def cmd_truncate(cfg: RunConfig, out: Path) -> int:
    if cfg.q.kind == "file":
        raise ConfigError("truncate requires an analytic heat source (q.kind zero or gaussian)")
    if cfg.init.kind == "mms":
        raise ConfigError("truncate cannot widen the channel under init.kind = mms: "
                          "the manufactured fields depend on physics.lx")
    g = cfg.grid()
    rows = write_csv(out / "truncate.csv", TruncationRow._fields, truncation_convergence(
        cfg.params(), (g.nx, g.ny, g.nz), cfg.step, cfg.initial_state, factor=cfg.truncate.factor))
    max_rel_diff = max(row.rel_diff for row in rows)
    print(f"max relative difference against {cfg.truncate.factor}x domain: {max_rel_diff:.3e}")
    if cfg.truncate.exceeded(max_rel_diff):
        raise CheckError(f"truncation difference {max_rel_diff:.3e} exceeds {cfg.truncate.max_rel:g}")
    return 0


def cmd_contract(cfg: RunConfig, out: Path) -> int:
    p, g = cfg.params(), cfg.grid()
    s_a, s_b = cfg.contraction_pair(p, g)
    rows = write_csv(out / "contract.csv", ContractionRow._fields, two_trajectory_contraction(
        s_a, s_b, p, g, cfg.step))
    first, last = rows[0], rows[-1]
    print(f"distance {first.dist_l2:.6g} -> {last.dist_l2:.6g} over t={last.t:g}")
    if first.dist_l2 > 0.0 and not last.dist_l2 < first.dist_l2:
        raise CheckError("trajectories did not contract over the configured horizon")
    return 0


def cmd_plot(args) -> int:
    data = read_timeseries(args.csv)
    if "t" not in data:
        raise ConfigError(f"{args.csv}: no time column")
    if not len(data["t"]):
        raise ConfigError(f"{args.csv}: no rows to plot, only a header")
    columns = [c.strip() for c in args.columns.split(",") if c.strip()]
    if not columns:
        raise ConfigError(f"{args.csv}: no column given to plot")
    missing = [c for c in columns if c not in data]
    if missing:
        raise ConfigError(f"{args.csv}: unknown columns {missing}; available: {sorted(data)}")
    series = {c: (data["t"], data[c]) for c in columns}
    out = args.out or (str(Path(args.csv).with_suffix("")) + ".svg")
    try:
        plot_svg(series, out, title=Path(args.csv).name, log_y=not args.linear)
    except ConfigError as exc:
        raise ConfigError(f"{args.csv}: {exc}") from exc
    print(f"wrote {out}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="peqlab",
        description="Channel-domain primitive-equations simulator and diagnostics laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, handler, help_ in (
        ("run", cmd_run, "physics run with diagnostics"),
        ("mms", cmd_mms, "manufactured-solution convergence study"),
        ("tail", cmd_tail, "windowed tail-energy experiment"),
        ("truncate", cmd_truncate, "domain-truncation convergence study"),
        ("contract", cmd_contract, "two-trajectory contraction probe"),
    ):
        sp = sub.add_parser(name, help=help_)
        sp.set_defaults(handler=handler)
        sp.add_argument("config", help="path to a key=value config file")
        sp.add_argument("--output-dir", default=None, help="output directory (default: out/<config file stem>)")

    sp = sub.add_parser("plot", help="render CSV columns to an SVG plot")
    sp.add_argument("csv", help="time-series CSV produced by a run")
    sp.add_argument("columns", help="comma-separated column names")
    sp.add_argument("--out", default=None, help="output SVG path")
    sp.add_argument("--linear", action="store_true", help="linear instead of log y axis")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        if args.command == "plot":
            return cmd_plot(args)
        if args.output_dir == "":
            raise ConfigError("--output-dir is empty; leave it out to write to out/<config file stem>")
        cfg = parse_config_file(args.config)
        out = Path(args.output_dir or Path("out", Path(args.config).stem))
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot make output directory {out}: {exc}") from exc
        return args.handler(cfg, out)
    except tuple(FAILURES) as exc:
        code, prefix = FAILURES[type(exc)]
        # the notes, such as a run's last valid time, follow the message
        print("; ".join((f"{prefix}: {exc}", *getattr(exc, "__notes__", ()))), file=sys.stderr)
        return code


def entry():
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
