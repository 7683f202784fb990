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
    assert "   0.00e+00   0.00e+00  worst_deviation" in out

    # the potential identity's worst residual is never 0 (the heat1 kernel
    # mass can come out exactly r, and 1.5 x 0 changes nothing)
    report = json.loads((new / "potential_identity.json").read_text())
    report["passed"] = False
    worst = report["worst_sup_rel_residual"]
    assert worst > 0.0
    report["worst_sup_rel_residual"] *= 1.5
    (new / "potential_identity.json").write_text(json.dumps(report))
    code, out = _diff(old, new)
    assert code == 1
    assert "DIFFERS    passed: true -> false" in out
    # the largest absolute change sits next to the relative one
    assert f"  {0.5 * worst:9.2e}   3.33e-01  worst_sup_rel_residual" in out

    (new / "kernel_mass.json").unlink()
    code, out = _diff(old, new)
    assert code == 1 and "kernel_mass.json: missing in NEW" in out


def test_report_diff_absolute_column_tells_a_residue_from_a_value(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir()
    new.mkdir()
    (old / "r.json").write_text(json.dumps({"rows": [{"dev": 1e-16, "value": 2.0},
                                                     {"dev": 3e-10, "value": 4.0}]}))
    (new / "r.json").write_text(json.dumps({"rows": [{"dev": 2e-16, "value": 3.0},
                                                     {"dev": 1e-16, "value": 4.0}]}))
    code, out = _diff(old, new)
    assert code == 0, out
    lines = out.splitlines()
    assert lines[0].split() == ["max", "|a-b|", "max", "rel", "field"]
    # each column is its own maximum over the rows: the residue moves by a
    # relative 1 at an absolute 3e-10, the value by 1/3 at an absolute 1
    assert lines[2:] == ["   3.00e-10   1.00e+00  rows[*].dev",
                         "   1.00e+00   3.33e-01  rows[*].value"]


def test_report_diff_into_a_closed_pipe_keeps_its_exit_code(tmp_path):
    # more lines than a pipe holds, read one, close: as under ``| head``.
    # No traceback, and the exit code still tells numbers-only (0) from a
    # differing flag (1)
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir()
    new.mkdir()
    fields = {f"field_{k}": float(k) for k in range(5000)}
    (old / "r.json").write_text(json.dumps(fields))
    for flag, expected in ((True, 0), (False, 1)):
        (new / "r.json").write_text(json.dumps({**fields, "field_0": 1.0}
                                               | ({} if flag else {"extra": True})))
        proc = subprocess.Popen([sys.executable, str(TOOL), str(old), str(new)],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        assert proc.stdout.readline().split() == ["max", "|a-b|", "max", "rel", "field"]
        proc.stdout.close()
        assert proc.wait() == expected
        assert proc.stderr.read() == ""
        proc.stderr.close()
