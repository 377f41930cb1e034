"""One traced benchmark round on the production names.

`perfbench/layers.py` wraps functions and methods of a fresh peqlab import
by name, and `perfbench/run.py` warms two private caches and calls
`integrator.step` through a wrapper of its own.  A rename or a changed
signature in `src/` would break `perfbench/run.py --trace 1` without failing
any other test, so this runs one short traced round of the `dense_output`
workload in a subprocess (about a second).  That round reads no `mms.*`,
`truncate.*` or `grid.*` key, so a second subprocess builds the set-up of
every command of every workload through `perfbench/run.py`'s own config
readers (about half a second).
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


FACTORIZE_EVERY_COMMAND = """
import random, sys, tempfile
from pathlib import Path
sys.path[:0] = ["perfbench", "src"]
import run
pq = run.Peqlab()
with tempfile.TemporaryDirectory() as tmp:
    for name, commands in run.WORKLOADS.items():
        for k, cmd in enumerate(commands):
            path = Path(tmp, f"{name}_{k}.cfg")
            path.write_text(run.derive_config(cmd, random.Random(1)))
            run.factorize(pq, cmd, path)
print(sum(map(len, run.WORKLOADS.values())))
"""


def test_every_workload_command_reads_its_config():
    proc = subprocess.run([sys.executable, "-c", FACTORIZE_EVERY_COMMAND],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["8"], proc.stdout
