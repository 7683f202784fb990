import json
import subprocess
import sys
from pathlib import Path

import pytest

from kolpot.cli import describe, main, run
from kolpot.config import load_config
from kolpot.errors import SchemaError

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"


def _write(tmp_path, payload):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    return path


def _tiny_config(out_dir, seed=4242):
    return {
        "operator": {"block_sizes": [1], "A0": [[1.0]]},
        "ball": {"z0": [0.0, 0.0], "r": 3.5449077018110318, "r_factors": [1.0]},
        "quadrature": {"time_tol": 1e-07, "seed": seed, "endpoint_depth": 36},
        "experiments": [
            {"name": "kernel_mass", "tolerance": 1e-06},
            {"name": "potential_identity", "points": 6, "tolerance": 1e-05},
        ],
        "output": {"dir": str(out_dir), "format": "json"},
    }


def test_load_bundled_configs():
    cfg = load_config(CONFIGS / "heat1d.json")
    assert cfg.spec.Q == 3
    assert len(cfg.radii) == 2
    cfg2 = load_config(CONFIGS / "prototype_rigidity.json")
    assert cfg2.spec.Q == 6


def test_schema_rejects_unknown_keys(tmp_path):
    payload = _tiny_config(tmp_path / "o")
    payload["operator"]["bogus"] = 1
    with pytest.raises(SchemaError):
        load_config(_write(tmp_path, payload))


def test_schema_requires_seed_for_sampling_experiments(tmp_path):
    payload = _tiny_config(tmp_path / "o")
    del payload["quadrature"]["seed"]
    with pytest.raises(SchemaError, match="seed"):
        load_config(_write(tmp_path, payload))
    # exit code 2 through the CLI
    code = run(str(_write(tmp_path, payload)))
    assert code == 2


def test_schema_rejects_dimension_above_three(tmp_path):
    # n = 4 passes operator validation but has no slice cubature rule
    payload = _tiny_config(tmp_path / "o")
    payload["operator"] = {"block_sizes": [2, 2], "A0": [[1.0, 0.0], [0.0, 1.0]],
                           "B1": [[1.0, 0.0], [0.0, 1.0]]}
    payload["ball"]["z0"] = [0.0] * 5
    payload["experiments"] = [{"name": "kernel_mass", "tolerance": 1e-06}]
    path = _write(tmp_path, payload)
    with pytest.raises(SchemaError, match="n = 4"):
        load_config(path)
    assert run(str(path)) == 2
    assert not (tmp_path / "o").exists()


def test_schema_requires_all_sections(tmp_path):
    payload = _tiny_config(tmp_path / "o")
    del payload["output"]
    with pytest.raises(SchemaError, match="missing"):
        load_config(_write(tmp_path, payload))


def test_config_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(str(bad)) == 2


def test_run_tiny_config_passes(tmp_path):
    out = tmp_path / "out"
    path = _write(tmp_path, _tiny_config(out))
    code = run(str(path))
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["passed"] is True
    assert {e["name"] for e in summary["experiments"]} == {
        "kernel_mass", "potential_identity"}
    report = json.loads((out / "potential_identity.json").read_text())
    assert report["worst_sup_rel_residual"] < 1e-5
    assert report["seed"] == 4242


def test_run_detects_threshold_failure(tmp_path):
    out = tmp_path / "out"
    payload = _tiny_config(out)
    payload["experiments"] = [{"name": "kernel_mass", "tolerance": 1e-18}]
    code = run(str(_write(tmp_path, payload)))
    assert code == 1


def test_reports_byte_identical_across_runs_and_workers(tmp_path):
    out1, out2, out3 = (tmp_path / d for d in ("a", "b", "c"))
    payload = _tiny_config(out1)
    p1 = _write(tmp_path, payload)
    assert run(str(p1)) == 0
    payload2 = dict(payload)
    payload2["output"] = {"dir": str(out2), "format": "json"}
    p2 = tmp_path / "cfg2.json"
    p2.write_text(json.dumps(payload2))
    assert run(str(p2)) == 0
    payload3 = json.loads(json.dumps(payload))
    payload3["output"] = {"dir": str(out3), "format": "json"}
    payload3["quadrature"]["workers"] = 3
    p3 = tmp_path / "cfg3.json"
    p3.write_text(json.dumps(payload3))
    assert run(str(p3)) == 0
    for name in ("kernel_mass.json", "potential_identity.json"):
        b1 = (out1 / name).read_bytes()
        assert b1 == (out2 / name).read_bytes()
        assert b1 == (out3 / name).read_bytes()


def test_seed_override(tmp_path):
    out = tmp_path / "out"
    path = _write(tmp_path, _tiny_config(out))
    assert run(str(path), seed=777) == 0
    report = json.loads((out / "potential_identity.json").read_text())
    assert report["seed"] == 777


def test_describe_prints_geometry(tmp_path, capsys):
    code = describe(str(CONFIGS / "heat1d.json"))
    assert code == 0
    out = capsys.readouterr().out
    assert "Q=3" in out
    assert "heat operator specialization" in out
    assert "s_max=1" in out


def test_describe_prototype(capsys):
    code = describe(str(CONFIGS / "prototype_rigidity.json"))
    assert code == 0
    out = capsys.readouterr().out
    assert "Q=6" in out and "s_max=1" in out


def test_cli_entry_point_help():
    result = subprocess.run(
        [sys.executable, "-m", "kolpot.cli", "--help"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert "describe" in result.stdout and "run" in result.stdout


def test_main_dispatch(tmp_path, capsys):
    code = main(["describe", str(CONFIGS / "heat1d.json")])
    assert code == 0
    capsys.readouterr()


def test_csv_output(tmp_path):
    out = tmp_path / "out"
    payload = _tiny_config(out)
    payload["output"]["format"] = "both"
    assert run(str(_write(tmp_path, payload))) == 0
    text = (out / "potential_identity.csv").read_text()
    assert text.splitlines()[0].count(",") >= 4
