"""perfbench/run.py --trace 1 still sees the time rule.

The tracer wraps ``quadrature.integrate_time_profile`` by name, so a library
path that stops calling it leaves the time-rule counters at 0 without any
error.  The mean values and the L^p check both go through it; a traced run of
each workload must exit 0 and count some of its integrals.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["mean_value", "rigidity"])
def test_traced_run_counts_time_rule_integrals(workload):
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
    metrics = json.loads(run.stdout.strip().splitlines()[-1])["metrics"]
    assert metrics["quadrature.time_rule.integrals"]["value"] > 0
