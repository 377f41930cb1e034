"""The benchmark's output checks accept real outputs and reject broken ones.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_checks.py

Each negative case starts from an output that passes, breaks one property,
and expects ``CheckFailed``.
"""

import contextlib
import io
import math
import shutil
import struct
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from checks import CheckFailed  # noqa: E402
from peqlab import cli  # noqa: E402

DENSE = {"step.t_end": run.horizon(6, 0.01), "step.output_every": "1",
         "output.snapshots": "true"}


def write_csv(path, header, rows):
    lines = [",".join(header)] + [",".join(f"{v:.17g}" for v in row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def edit_csv(path, column, record, value):
    header, rows = checks.read_csv(path)
    rows[record][header.index(column)] = value
    write_csv(path, header, rows)


class RunOutputChecks(unittest.TestCase):
    """A short dense-output run of dissipation.cfg, then one fault at a time."""

    def setUp(self):
        self.tmp = Path(tempfile.mkdtemp())
        cmd = run.Command("run", "dissipation.cfg", DENSE)
        self.text = run.derive_config(cmd, run.random.Random(0))
        self.cfg = checks.read_cfg(self.text)
        cfg_path = self.tmp / "dense.cfg"
        cfg_path.write_text(self.text, encoding="utf-8")
        self.out = self.tmp / "out"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", str(cfg_path), "--output-dir", str(self.out)])
        self.assertEqual(code, 0)
        self.csv = self.out / "timeseries.csv"

    def tearDown(self):
        shutil.rmtree(self.tmp)

    def check(self):
        checks.check_run_output(self.out, self.cfg, constraint=True, dense=True)

    def test_untouched_output_passes_and_snapshots_are_deleted(self):
        self.check()
        self.assertEqual(list(self.out.glob("*.peq")), [])

    def test_rising_energy_is_rejected(self):
        header, rows = checks.read_csv(self.csv)
        i = header.index("l2_T")
        rows[3][i] = rows[2][i] * 1.5
        write_csv(self.csv, header, rows)
        with self.assertRaisesRegex(CheckFailed, "rises"):
            self.check()

    def test_snapshot_disagreeing_with_its_row_is_rejected(self):
        snap = self.out / "snapshot_000004.peq"
        raw = bytearray(snap.read_bytes())
        n3 = 32 * 16 * 8
        struct.pack_into("<d", raw, 16 + 8 * 2 * n3, 10.0)  # first T value, after v1 and v2
        snap.write_bytes(bytes(raw))
        with self.assertRaisesRegex(CheckFailed, "l2_T"):
            self.check()

    def test_wrong_time_derivative_norm_is_rejected(self):
        header, rows = checks.read_csv(self.csv)
        edit_csv(self.csv, "l2_Tt", 2, rows[2][header.index("l2_Tt")] * (1 + 1e-9))
        with self.assertRaisesRegex(CheckFailed, "l2_Tt"):
            self.check()

    def test_missing_record_is_rejected(self):
        header, rows = checks.read_csv(self.csv)
        write_csv(self.csv, header, rows[:-1])
        with self.assertRaisesRegex(CheckFailed, "records"):
            self.check()

    def test_non_finite_value_is_rejected(self):
        edit_csv(self.csv, "l6_T", 1, math.nan)
        with self.assertRaisesRegex(CheckFailed, "l6_T"):
            self.check()

    def test_constraint_residual_above_limit_is_rejected(self):
        edit_csv(self.csv, "constraint_residual", 2, 1e-6)
        with self.assertRaisesRegex(CheckFailed, "constraint"):
            self.check()


class ExperimentTableChecks(unittest.TestCase):
    def setUp(self):
        self.tmp = Path(tempfile.mkdtemp())

    def tearDown(self):
        shutil.rmtree(self.tmp)

    def mms_table(self, order):
        path = self.tmp / "mms.csv"
        deltas = (0.25, 0.125, 0.0625)
        rows = [(d, 0.3 * d**order, 0.2 * d**order, 0.5 * d**order, order, order) for d in deltas]
        write_csv(path, ("delta", "err_v1", "err_v2", "err_T", "order_v", "order_T"), rows)
        return path

    def test_second_order_table_passes(self):
        checks.check_mms(self.mms_table(2.0), 3)

    def test_first_order_table_is_rejected(self):
        with self.assertRaisesRegex(CheckFailed, "order_v"):
            checks.check_mms(self.mms_table(1.0), 3)

    def test_distance_that_does_not_fall_is_rejected(self):
        cfg = {"step.dt": "0.5", "step.t_end": "1.0", "step.output_every": "1"}
        path = self.tmp / "contract.csv"
        header = ("t", "dist_v", "dist_T", "dist_l2", "v_proxy")
        write_csv(path, header, [(0.0, 0.3, 0.4, 0.5, 1.0), (0.5, 0.03, 0.04, 0.05, 1.0),
                                 (1.0, 0.03, 0.04, 0.05, 1.0)])
        checks.check_contract(path, cfg)
        write_csv(path, header, [(0.0, 0.3, 0.4, 0.5, 1.0), (0.5, 0.03, 0.04, 0.05, 1.0),
                                 (1.0, 0.6, 0.8, 1.0, 1.0)])
        with self.assertRaisesRegex(CheckFailed, "does not fall"):
            checks.check_contract(path, cfg)

    def test_truncation_difference_above_limit_is_rejected(self):
        cfg = {"step.dt": "0.5", "step.t_end": "1.0", "step.output_every": "2",
               "truncate.max_rel": "0.001"}
        path = self.tmp / "truncate.csv"
        write_csv(path, ("t", "rel_diff"), [(0.0, 0.0), (1.0, 2e-3)])
        with self.assertRaisesRegex(CheckFailed, "truncation"):
            checks.check_truncate(path, cfg)

    def test_tail_ratio_above_epsilon_at_reported_radius_is_rejected(self):
        cfg = {"step.dt": "1.0", "step.t_end": "2.0", "step.output_every": "1",
               "tail.radii": "1.2,1.6", "tail.epsilon": "0.001", "tail.tau_probe": "1.0"}
        path = self.tmp / "tail.csv"
        write_csv(path, ("t", "total", "w_1.2", "w_1.6"),
                  [(0.0, 0.0, 0.0, 0.0), (1.0, 1.0, 5e-3, 1e-5), (2.0, 1.0, 5e-3, 1e-5)])
        checks.check_tail(path, cfg, 1.6)
        with self.assertRaisesRegex(CheckFailed, "tail ratio"):
            checks.check_tail(path, cfg, 1.2)


if __name__ == "__main__":
    unittest.main()
