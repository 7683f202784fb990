"""tools/report_diff.py on two outputs of the tiny CLI config."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

from kolpot.cli import run
from test_cli import _tiny_config, _write

TOOL = Path(__file__).resolve().parent.parent / "tools" / "report_diff.py"


def _diff(old, new):
    res = subprocess.run([sys.executable, str(TOOL), str(old), str(new)],
                         capture_output=True, text=True)
    return res.returncode, res.stdout


def test_report_diff_identical_then_one_flipped_flag(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    payload = _tiny_config(old)
    payload["output"]["format"] = "both"
    assert run(str(_write(tmp_path, payload))) == 0
    shutil.copytree(old, new)

    code, out = _diff(old, new)
    assert code == 0, out
    assert "DIFFERS" not in out and "missing" not in out
    assert "kernel_mass.json" in out and "potential_identity.csv" in out
    assert "0.00e+00  worst_deviation" in out

    report = json.loads((new / "kernel_mass.json").read_text())
    report["passed"] = False
    report["worst_deviation"] *= 1.5
    (new / "kernel_mass.json").write_text(json.dumps(report))
    code, out = _diff(old, new)
    assert code == 1
    assert "DIFFERS    passed: true -> false" in out
    assert "3.33e-01  worst_deviation" in out

    (new / "kernel_mass.json").unlink()
    code, out = _diff(old, new)
    assert code == 1 and "kernel_mass.json: missing in NEW" in out
