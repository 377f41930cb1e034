"""The production names the benchmark's per-layer tracer wraps or calls.

`perfbench/layers.py` rebinds functions and methods of a fresh peqlab import
by name, and `perfbench/run.py` warms two private caches before timing.  A
rename in `src/` would break `perfbench/run.py --trace 1` without failing any
other test, so this installs the tracer in a subprocess.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = f"""
import sys
sys.path[:0] = [{str(ROOT / "perfbench")!r}, {str(ROOT / "src")!r}]
from layers import Tracer
from run import Peqlab

pq = Peqlab()
Tracer().install(pq)
assert callable(pq.integrator._cached_diffusion)
assert callable(pq.projection._poisson_factors)
print("installed")
"""


def test_benchmark_tracer_installs_on_production_names():
    proc = subprocess.run([sys.executable, "-B", "-c", SCRIPT], cwd=ROOT, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "installed"
