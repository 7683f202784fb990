"""Config-driven experiment runners producing machine-readable reports.

Each runner takes the validated config pieces and returns a plain dict with a
``passed`` verdict against the configured thresholds, plus enough metadata
(operator hash, seed, tolerances, tool version) to reproduce the run.  For
the rigidity runner a detected violation on a perturbed domain is the
expected outcome, so the verdict is inverted there by design.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import __version__
from .operators import OperatorSpec, operator_hash
from .balls import LBall, lball
from .domains import ExactBall, make_perturbation
from .fundsol import GammaEvaluator
from .harmonic import AnisoPolynomial, format_polynomial, harmonic_basis
from .lab import (
    exterior_test_points,
    interior_inequality_margin,
    interior_test_points,
    lp_condition_norm,
    mean_value,
    potential_identity_residual,
)
from .quadrature import QuadratureConfig, integrate_over_ball

__all__ = ["run_experiment", "EXPERIMENT_RUNNERS"]


def _base_report(name: str, spec: OperatorSpec, cfg: QuadratureConfig) -> dict:
    return {
        "experiment": name,
        "version": __version__,
        "operator_hash": operator_hash(spec),
        "Q": spec.Q,
        "seed": cfg.seed,
        # quadrature.workers is accepted by the config schema but changes
        # nothing, so it is not echoed: reports are identical for any value
        "tolerances": {
            "time_tol": cfg.time_tol,
            "time_order": cfg.time_order,
            "endpoint_depth": cfg.endpoint_depth,
            "max_cells": cfg.max_cells,
            "mc_samples": cfg.mc_samples,
        },
    }


def _balls(spec: OperatorSpec, z0, radii, ev: GammaEvaluator) -> list[LBall]:
    z0p = spec.point(np.asarray(z0[:-1]), z0[-1])
    return [lball(spec, r, z0p, ev) for r in radii]


def run_mvf(exp: dict, spec, z0, radii, cfg) -> dict:
    """Mean-value formula on certified polynomial solutions."""
    ev = GammaEvaluator(spec)
    tol = float(exp.get("tolerance", 1e-7))
    max_deg = int(exp.get("max_degree", 4))
    basis = harmonic_basis(spec, max_deg)
    centers = [tuple(z0)]
    for extra in exp.get("centers", []):
        centers.append(tuple(float(v) for v in extra))
    rows = []
    worst = 0.0
    for center in centers:
        z0p = spec.point(np.asarray(center[:-1]), center[-1])
        for r in radii:
            ball = lball(spec, r, z0p, ev)
            for u in basis:
                target = u(z0p)
                got = mean_value(u, ball, cfg)
                dev = abs(got.value - target) / (1.0 + abs(target))
                worst = float(np.maximum(worst, dev))  # a NaN stays NaN and fails
                rows.append({
                    "center": list(center),
                    "r": r,
                    "polynomial": format_polynomial(u),
                    "expected": target,
                    "mean_value": got.value,
                    "deviation": dev,
                    "quad_error": got.error,
                    "cells": got.cells,
                    "converged": got.converged,
                })
    rep = _base_report("mvf", spec, cfg)
    rep.update({
        "tolerance": tol,
        "basis_size": len(basis),
        "max_degree": max_deg,
        "worst_deviation": worst,
        "passed": bool(worst < tol),
        "rows": rows,
    })
    return rep


def run_kernel_mass(exp: dict, spec, z0, radii, cfg) -> dict:
    """Kernel normalization: the kernel integrates to r over the ball."""
    ev = GammaEvaluator(spec)
    tol = float(exp.get("tolerance", 1e-7))
    rows = []
    worst = 0.0
    one = AnisoPolynomial.constant(spec.n, 1.0)
    for ball in _balls(spec, z0, radii, ev):
        res = integrate_over_ball(one, ball, cfg, kernel=True)
        dev = abs(res.value - ball.r) / ball.r
        worst = float(np.maximum(worst, dev))  # a NaN stays NaN and fails
        rows.append({"r": ball.r, "kernel_integral": res.value, "relative_deviation": dev,
                     "quad_error": res.error, "cells": res.cells, "converged": res.converged})
    rep = _base_report("kernel_mass", spec, cfg)
    rep.update({"tolerance": tol, "worst_deviation": worst,
                "passed": bool(worst < tol), "rows": rows})
    return rep


def run_potential_identity(exp: dict, spec, z0, radii, cfg) -> dict:
    """Exterior identity on the exact ball: residuals at its quadrature level."""
    ev = GammaEvaluator(spec)
    tol = float(exp.get("tolerance", 1e-5))
    count = int(exp.get("points", 32))
    reports = []
    worst = 0.0
    for ball in _balls(spec, z0, radii, ev):
        domain = ExactBall(ball)
        pts = exterior_test_points(domain, ball, count, cfg.seed)
        rep = potential_identity_residual(domain, ball, pts, cfg, seed=cfg.seed)
        worst = float(np.maximum(worst, rep.sup_rel_residual))
        reports.append(rep.to_dict())
    out = _base_report("potential_identity", spec, cfg)
    out.update({"tolerance": tol, "worst_sup_rel_residual": worst,
                "passed": bool(worst < tol), "reports": reports})
    return out


def run_interior_inequality(exp: dict, spec, z0, radii, cfg) -> dict:
    """Strict interior inequality with margins measured against quadrature error."""
    ev = GammaEvaluator(spec)
    count = int(exp.get("points", 16))
    mult = float(exp.get("error_multiple", 5.0))
    rows = []
    ok = True
    for ball in _balls(spec, z0, radii, ev):
        pts = interior_test_points(ball, count, cfg.seed)
        recs = interior_inequality_margin(ball, pts, cfg)
        for rec in recs:
            rec["r"] = ball.r
            passed = rec["margin"] > mult * max(rec["quad_error"], 1e-300)
            rec["passed"] = bool(passed)
            ok = ok and passed
            rows.append(rec)
    out = _base_report("interior_inequality", spec, cfg)
    out.update({"error_multiple": mult, "passed": bool(ok), "rows": rows})
    return out


def run_rigidity(exp: dict, spec, z0, radii, cfg) -> dict:
    """Falsification: perturbed domains must break the identity loudly.

    Perturbed-domain integrals run under a reduced refinement budget; for
    perturbations that push kernel mass toward the pole the left side is not
    even integrable, the truncated residual is then simply large and the
    report flags it.
    """
    ev = GammaEvaluator(spec)
    count = int(exp.get("points", 12))
    ratio_min = float(exp.get("ratio_min", 100.0))
    want_lp = bool(exp.get("lp_check", True))
    perturbations = exp.get("perturbations") or [
        {"kind": "spatial_shift", "magnitude": 0.1},
        {"kind": "radius_mismatch", "magnitude": 0.1},
        {"kind": "slice_scale", "magnitude": 0.05},
        {"kind": "bite", "magnitude": 0.1},
    ]
    cfg_pert = dataclasses.replace(cfg, endpoint_depth=24, max_cells=280)
    p_lp = math.ceil(spec.Q / 2.0) + 1
    results = []
    ok = True
    for ball in _balls(spec, z0, radii, ev):
        base_domain = ExactBall(ball)
        pts = exterior_test_points(base_domain, ball, count, cfg.seed)
        base = potential_identity_residual(base_domain, ball, pts, cfg, seed=cfg.seed)
        baseline = max(base.sup_rel_residual, 1e-14)
        for pert in perturbations:
            domain = make_perturbation(ball, pert["kind"], float(pert["magnitude"]))
            usable = [(z, c) for z, c in pts if not domain.contains(z)]
            rep = potential_identity_residual(domain, ball, usable, cfg_pert,
                                              seed=cfg.seed)
            ratio = rep.sup_rel_residual / baseline
            detected = ratio >= ratio_min
            entry = {
                "r": ball.r,
                "perturbation": domain.describe(),
                "baseline_sup_rel": base.sup_rel_residual,
                "perturbed_sup_rel": rep.sup_rel_residual,
                "ratio": ratio,
                "violation_detected": bool(detected),
            }
            if want_lp:
                lp = lp_condition_norm(domain, ball, p_lp, cfg)
                entry["lp_check"] = lp.to_dict()
                entry["lp_finite"] = bool(math.isfinite(lp.norm))
                detected = detected and entry["lp_finite"]
            ok = ok and detected
            results.append(entry)
    out = _base_report("rigidity", spec, cfg)
    out.update({"ratio_min": ratio_min, "p": p_lp, "passed": bool(ok),
                "results": results})
    return out


def run_lp_check(exp: dict, spec, z0, radii, cfg) -> dict:
    """Standalone gluing-condition evaluation for one perturbed domain."""
    ev = GammaEvaluator(spec)
    pert = exp.get("perturbation") or {"kind": "bite", "magnitude": 0.1}
    p = exp.get("p")
    p = float(p) if p is not None else math.ceil(spec.Q / 2.0) + 1
    rows = []
    ok = True
    for ball in _balls(spec, z0, radii, ev):
        domain = make_perturbation(ball, pert["kind"], float(pert["magnitude"]))
        lp = lp_condition_norm(domain, ball, p, cfg)
        finite = math.isfinite(lp.norm)
        ok = ok and finite
        rows.append({"r": ball.r, "perturbation": domain.describe(), **lp.to_dict(),
                     "finite": bool(finite)})
    out = _base_report("lp_check", spec, cfg)
    out.update({"p": p, "passed": bool(ok), "rows": rows})
    return out


EXPERIMENT_RUNNERS = {
    "mvf": run_mvf,
    "kernel_mass": run_kernel_mass,
    "potential_identity": run_potential_identity,
    "interior_inequality": run_interior_inequality,
    "rigidity": run_rigidity,
    "lp_check": run_lp_check,
}


def run_experiment(exp: dict, spec: OperatorSpec, z0, radii,
                   cfg: QuadratureConfig) -> dict:
    return EXPERIMENT_RUNNERS[exp["name"]](exp, spec, z0, radii, cfg)
