"""One traced benchmark round on the production names.

`perfbench/layers.py` wraps functions and methods of a fresh peqlab import
by name, and `perfbench/run.py` warms two private caches and calls
`integrator.step` through a wrapper of its own.  A rename or a changed
signature in `src/` would break `perfbench/run.py --trace 1` without failing
any other test, so this runs one short traced round of the `dense_output`
workload in a subprocess (about a second).
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_one_traced_benchmark_round():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense_output", "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"], result["attempted"]) == (True, 0, 2), proc.stderr
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in per_layer)
