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


_LP = {"name": "lp_check", "perturbation": {"kind": "bite", "magnitude": 0.1}, "p": 3}
_RIGIDITY = {"name": "rigidity", "perturbations": [{"kind": "bite", "magnitude": 0.1}]}


@pytest.mark.parametrize("experiment", [
    dict(_LP, p="abc"),
    dict(_LP, p=0),
    dict(_LP, p=-1.5),
    dict(_LP, p=True),
    dict(_LP, perturbation={"kind": "bite"}),
    dict(_LP, perturbation={"kind": "bite", "magnitude": 1.0}),
    dict(_RIGIDITY, perturbations=[{"kind": "bite", "magnitude": "abc"}]),
    dict(_RIGIDITY, perturbations=[{"kind": "bite", "magnitude": 0.0}]),
    dict(_RIGIDITY, perturbations=[{"kind": "bite"}]),
    dict(_RIGIDITY, perturbations=5),
], ids=["p_string", "p_zero", "p_negative", "p_bool", "lp_magnitude_missing",
        "lp_magnitude_one", "rigidity_magnitude_string", "rigidity_magnitude_zero",
        "rigidity_magnitude_missing", "rigidity_perturbations_not_list"])
def test_schema_rejects_bad_lp_and_perturbation_inputs(tmp_path, experiment):
    payload = _tiny_config(tmp_path / "o")
    payload["experiments"] = [experiment]
    path = _write(tmp_path, payload)
    with pytest.raises(SchemaError):
        load_config(path)
    assert run(str(path)) == 2
    assert not (tmp_path / "o").exists()


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("section,key,value", [
    ("ball", "r", "abc"),
    ("ball", "r", _NAN),
    ("ball", "r", _INF),
    ("ball", "r", True),
    ("ball", "r", 10 ** 400),
    ("ball", "r_factors", ["abc"]),
    ("ball", "r_factors", [_NAN]),
    ("ball", "r_factors", [True]),
    ("ball", "z0", ["abc", 0.0]),
    ("ball", "z0", [_INF, 0.0]),
    ("operator", "A0", [["abc"]]),
    ("operator", "A0", [[_NAN]]),
    ("operator", "A0", [[True]]),
    ("operator", "A0", [[-1.0]]),
    ("operator", "block_sizes", ["abc"]),
    ("quadrature", "time_order", "abc"),
    ("quadrature", "time_order", 0),
    ("quadrature", "time_tol", _NAN),
    ("quadrature", "max_cells", 3),
    ("quadrature", "endpoint_depth", 0),
], ids=["r_string", "r_nan", "r_inf", "r_bool", "r_huge_int", "r_factors_string", "r_factors_nan",
        "r_factors_bool", "z0_string", "z0_inf", "A0_string", "A0_nan", "A0_bool",
        "A0_not_positive", "block_sizes_string", "time_order_string", "time_order_zero",
        "time_tol_nan", "max_cells_below_initial_cells", "endpoint_depth_zero"])
def test_schema_rejects_values_it_cannot_run(tmp_path, section, key, value):
    payload = _tiny_config(tmp_path / "o")
    payload[section][key] = value
    path = _write(tmp_path, payload)
    with pytest.raises(SchemaError):
        load_config(path)
    assert run(str(path)) == 2
    assert not (tmp_path / "o").exists()


_PI = {"name": "potential_identity", "points": 6, "tolerance": 1e-05}
_MVF = {"name": "mvf", "max_degree": 1, "tolerance": 1e-07}
_INTERIOR = {"name": "interior_inequality", "points": 2, "error_multiple": 5.0}


@pytest.mark.parametrize("experiment", [
    dict(_PI, points="abc"),
    dict(_PI, points=-3),
    dict(_PI, points=0),
    dict(_PI, points=2.5),
    dict(_PI, points=True),
    dict(_PI, tolerance="x"),
    dict(_PI, tolerance=True),
    dict(_PI, tolerance=0.0),
    dict(_PI, tolerance=_NAN),
    dict(_MVF, max_degree=-1),
    dict(_MVF, max_degree=1.5),
    dict(_MVF, centers="abc"),
    dict(_MVF, centers=[[0.5]]),
    dict(_MVF, centers=[[0.5, "abc"]]),
    dict(_MVF, centers=[0.5, 0.0]),
    dict(_INTERIOR, error_multiple=-1.0),
    dict(_RIGIDITY, ratio_min=_INF),
    dict(_RIGIDITY, lp_check="yes"),
    dict(_RIGIDITY, lp_check=1),
], ids=["points_string", "points_negative", "points_zero", "points_fraction", "points_bool",
        "tolerance_string", "tolerance_bool", "tolerance_zero", "tolerance_nan",
        "max_degree_negative", "max_degree_fraction", "centers_string", "centers_short",
        "centers_string_coordinate", "centers_flat", "error_multiple_negative",
        "ratio_min_inf", "lp_check_string", "lp_check_int"])
def test_schema_rejects_experiment_values_it_cannot_run(tmp_path, experiment):
    # each of these used to run into a traceback, or to pass on zero rows
    payload = _tiny_config(tmp_path / "o")
    payload["experiments"] = [experiment]
    path = _write(tmp_path, payload)
    with pytest.raises(SchemaError, match=f"{experiment['name']}\\."):
        load_config(path)
    assert run(str(path)) == 2
    assert not (tmp_path / "o").exists()


def test_schema_accepts_experiment_values_at_their_limits(tmp_path):
    payload = _tiny_config(tmp_path / "o")
    payload["experiments"] = [dict(_PI, points=1), dict(_MVF, max_degree=0, centers=[[0.5, 0.1]]),
                              dict(_RIGIDITY, lp_check=False, ratio_min=1e-3)]
    # the time rule's 4 initial cells at depth 1 are the smallest budget it can keep
    payload["quadrature"].update(max_cells=4, endpoint_depth=1)
    cfg = load_config(_write(tmp_path, payload))
    assert [e["name"] for e in cfg.experiments] == ["potential_identity", "mvf", "rigidity"]
    assert (cfg.quadrature.max_cells, cfg.quadrature.endpoint_depth) == (4, 1)


def test_nan_deviation_fails_its_verdict(monkeypatch):
    import kolpot as kp
    from kolpot import experiments, lab
    from kolpot.quadrature import IntegralResult, QuadratureConfig

    nan = IntegralResult(float("nan"), 0.0)
    monkeypatch.setattr(experiments, "integrate_over_ball", lambda *a, **k: nan)
    monkeypatch.setattr(experiments, "mean_value", lambda *a, **k: nan)
    monkeypatch.setattr(lab, "kernel_gamma_integrals",
                        lambda domain, ball, points, *a, **k: [nan] * len(points))
    spec = kp.heat_operator(1)
    cfg = QuadratureConfig(seed=1)
    radii = (3.5449077018110318,)
    for run_exp, exp in ((experiments.run_kernel_mass, {}),
                         (experiments.run_mvf, {"max_degree": 1}),
                         (experiments.run_potential_identity, {"points": 2})):
        rep = run_exp(exp, spec, (0.0, 0.0), radii, cfg)
        assert rep["passed"] is False, run_exp.__name__
        worst = rep.get("worst_deviation", rep.get("worst_sup_rel_residual"))
        assert worst != worst, run_exp.__name__  # NaN


def test_mean_value_rows_carry_their_diagnostics():
    import kolpot as kp
    from kolpot import experiments
    from kolpot.errors import ToleranceWarning
    from kolpot.quadrature import QuadratureConfig

    spec = kp.heat_operator(1)
    radii = (3.5449077018110318,)
    with pytest.warns(ToleranceWarning):
        rep = experiments.run_kernel_mass({}, spec, (0.0, 0.0), radii,
                                          QuadratureConfig(max_cells=8, time_tol=1e-15))
    (row,) = rep["rows"]
    assert row["converged"] is False and row["cells"] == 8 and row["quad_error"] > 0.0
    rep = experiments.run_mvf({"max_degree": 1}, spec, (0.0, 0.0), radii, QuadratureConfig())
    assert all(row["converged"] is True and row["cells"] >= 4 and row["quad_error"] >= 0.0
               for row in rep["rows"])


def test_potential_rows_carry_their_diagnostics(tmp_path):
    # a cell budget of 4 stops every potential at the time rule's 4 initial
    # cells; the JSON rows of both potential experiments say so
    from kolpot.errors import ToleranceWarning

    out = tmp_path / "out"
    payload = _tiny_config(out)
    payload["quadrature"].update(time_tol=1e-15, max_cells=4)
    payload["experiments"] = [{"name": "potential_identity", "points": 2},
                              {"name": "interior_inequality", "points": 2}]
    with pytest.warns(ToleranceWarning):
        run(str(_write(tmp_path, payload)))
    points = json.loads((out / "potential_identity.json").read_text())["reports"][0]["points"]
    rows = json.loads((out / "interior_inequality.json").read_text())["rows"]
    for row in points + rows:
        assert row["converged"] is False and row["cells"] == 4, row
        assert row["flags"] == ["tolerance_not_met"] and row["quad_error"] > 0.0
    payload["quadrature"].update(time_tol=1e-7, max_cells=4096)
    run(str(_write(tmp_path, payload)))
    points = json.loads((out / "potential_identity.json").read_text())["reports"][0]["points"]
    assert all(row["converged"] is True and row["flags"] == [] for row in points)


def test_schema_accepts_lp_and_rigidity_inputs(tmp_path):
    payload = _tiny_config(tmp_path / "o")
    payload["experiments"] = [_LP, dict(_LP, p=3.5, perturbation=None), _RIGIDITY]
    cfg = load_config(_write(tmp_path, payload))
    assert [e["name"] for e in cfg.experiments] == ["lp_check", "lp_check", "rigidity"]


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
    # the potential identity's residuals sit at rounding level, never at 0
    # (the heat1 kernel mass can come out exactly r)
    payload["experiments"] = [{"name": "potential_identity", "points": 6,
                               "tolerance": 1e-18}]
    code = run(str(_write(tmp_path, payload)))
    assert code == 1


def test_run_at_time_order_one_exits_zero(tmp_path):
    # the smallest order the schema accepts: the pair G1/K3, 3 nodes per cell.
    # QUADPACK's error model is far from sharp at this order, so the kernel
    # mass stops at its cell budget, flagged, with a value well within the
    # experiment's tolerance
    from kolpot.errors import ToleranceWarning

    out = tmp_path / "out"
    payload = _tiny_config(out)
    payload["quadrature"].update(time_order=1, max_cells=512)
    with pytest.warns(ToleranceWarning):
        assert main(["run", str(_write(tmp_path, payload))]) == 0
    report = json.loads((out / "kernel_mass.json").read_text())
    assert report["tolerances"]["time_order"] == 1 and report["passed"] is True
    assert [(row["converged"], row["cells"]) for row in report["rows"]] == [(False, 512)]


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


def test_repeated_experiments_write_their_own_reports(tmp_path):
    # two heat1 bite checks on the exact path; the repeat must not overwrite
    out = tmp_path / "out"
    payload = _tiny_config(out)
    payload["output"]["format"] = "both"
    payload["experiments"] = [_LP, dict(_LP, p=4)]
    assert run(str(_write(tmp_path, payload))) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert [(e["name"], e["report"]) for e in summary["experiments"]] == [
        ("lp_check", "lp_check"), ("lp_check", "lp_check-1")]
    for stem, p in (("lp_check", 3.0), ("lp_check-1", 4.0)):
        assert json.loads((out / f"{stem}.json").read_text())["p"] == p
        assert (out / f"{stem}.csv").read_text().splitlines()[1].count(",") >= 4
