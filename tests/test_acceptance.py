"""Acceptance suite: every numbered criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with pytest -s or in the
captured output on failure) and enforces both the tolerance and the runtime
budget of its criterion.  The operators exercised throughout are the heat
operator in one and two dimensions, the two-dimensional prototype with one
drift block, and the three-dimensional chain with blocks [2, 1].
"""

import dataclasses
import json
import math
import time

import numpy as np

import kolpot as kp
from kolpot.domains import ExactBall, TimeShiftedBall, make_perturbation
from kolpot.harmonic import AnisoPolynomial, harmonic_basis
from kolpot.lab import (
    exterior_test_points,
    future_mass_detector,
    interior_inequality_margin,
    interior_test_points,
    lp_condition_norm,
    mean_value,
    potential_identity_residual,
)
from kolpot.quadrature import QuadratureConfig, integrate_over_ball
from tests.conftest import HEAT1_R, PROTO_R

BASE_RADII = {"heat1": HEAT1_R, "heat2": 4.0, "proto": PROTO_R, "chain": 4.0}


def _report(num, desc, passed, elapsed, limit):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{status}] {desc} ({elapsed:.1f}s / limit {limit:.0f}s)")
    assert passed, f"criterion {num} failed: {desc}"
    assert elapsed < limit, f"criterion {num} exceeded its runtime budget"


def test_criterion_01_group_and_homogeneity(all_specs, evaluators):
    t0 = time.time()
    rng = np.random.default_rng(101)
    ok = True
    for name, spec in all_specs.items():
        ev = evaluators[name]
        for _ in range(1000):
            z = spec.point(rng.standard_normal(spec.n), rng.standard_normal())
            w = spec.point(rng.standard_normal(spec.n), rng.standard_normal())
            v = spec.point(rng.standard_normal(spec.n), rng.standard_normal())
            lam = rng.uniform(0.5, 2.0)
            scale = 1.0 + max(abs(z.t), abs(w.t), abs(v.t),
                              np.abs(z.x).max(), np.abs(w.x).max(), np.abs(v.x).max())
            a = kp.group_compose(kp.group_compose(z, w, spec), v, spec)
            b = kp.group_compose(z, kp.group_compose(w, v, spec), spec)
            ok &= np.abs(a.x - b.x).max() <= 1e-10 * scale and abs(a.t - b.t) <= 1e-10 * scale
            zi = kp.group_inverse(z, spec)
            e = kp.group_compose(z, zi, spec)
            ok &= np.abs(e.x).max() <= 1e-10 * scale and abs(e.t) <= 1e-10 * scale
            da = kp.dilate(lam, kp.group_compose(z, w, spec), spec)
            db = kp.group_compose(kp.dilate(lam, z, spec), kp.dilate(lam, w, spec), spec)
            dscale = scale * max(lam, 1.0) ** (2 * spec.r + 1)
            ok &= np.abs(da.x - db.x).max() <= 1e-10 * dscale
            zg = spec.point(0.8 * rng.standard_normal(spec.n), rng.uniform(0.2, 1.5))
            g1 = ev.gamma(kp.dilate(lam, zg, spec))
            g2 = lam ** (2 - spec.Q) * ev.gamma(zg)
            if g1 > 0.0:
                ok &= abs(g1 - g2) <= 1e-10 * g1
    _report(1, "group laws, dilation automorphism, gamma homogeneity "
               "(1e-10, 1000 cases x 4 operators)", ok, time.time() - t0, 10.0)


def test_criterion_02_covariance_exactness(all_specs, proto):
    t0 = time.time()
    rng = np.random.default_rng(202)
    ok = True
    for spec in all_specs.values():
        C = kp.covariance_polynomial(spec)
        E = kp.exponential_polynomial(spec)
        for _ in range(100):
            t = rng.uniform(-2.0, 2.0)
            h = 1e-5
            fd = (C(t + h) - C(t - h)) / (2.0 * h)
            exact = E(t) @ spec.A @ E(t).T
            ok &= np.abs(fd - exact).max() < 1e-8 * (1.0 + np.abs(exact).max())
    Cp = kp.covariance_polynomial(proto).coeffs
    hand = np.zeros((4, 2, 2))
    hand[1] = [[1.0, 0.0], [0.0, 0.0]]
    hand[2] = [[0.0, -0.5], [-0.5, 0.0]]
    hand[3] = [[0.0, 0.0], [0.0, 1.0 / 3.0]]
    ok &= np.abs(Cp - hand).max() <= 4.0 * np.finfo(float).eps
    _report(2, "covariance derivative check 1e-8 and exact prototype coefficients",
            ok, time.time() - t0, 1.0)


def test_criterion_03_unit_mass(all_specs, evaluators):
    t0 = time.time()
    nodes, weights = np.polynomial.hermite.hermgauss(64)
    ok = True
    for name, spec in all_specs.items():
        ev = evaluators[name]
        for t in (0.1, 1.0, 10.0):
            scales = 2.0 * np.sqrt(np.diag(ev.cov.C(t)))
            grids = np.meshgrid(*[nodes * s for s in scales], indexing="ij")
            X = np.stack([g.ravel() for g in grids], axis=1)
            vals = ev.gamma_slice(X, t)
            u2 = sum((X[:, i] / scales[i]) ** 2 for i in range(spec.n))
            wg = np.meshgrid(*[weights] * spec.n, indexing="ij")
            W = np.prod(np.stack([w.ravel() for w in wg], axis=1), axis=1)
            mass = float(W @ (vals * np.exp(u2))) * float(np.prod(scales))
            ok &= abs(mass - 1.0) < 1e-6
    _report(3, "unit spatial mass of the fundamental solution (1e-6, t in {0.1,1,10})",
            ok, time.time() - t0, 30.0)


def test_criterion_04_mean_value_formula(all_specs, evaluators):
    t0 = time.time()
    cfg = QuadratureConfig(time_tol=1e-9, seed=404)
    rng = np.random.default_rng(404)
    ok = True
    worst = 0.0
    for name, spec in all_specs.items():
        ev = evaluators[name]
        basis = harmonic_basis(spec, 4)
        translate = spec.point(0.5 * rng.standard_normal(spec.n), rng.uniform(-0.5, 0.5))
        for center in (spec.origin(), translate):
            for k in (-3, -1, 0, 2, 4):
                ball = kp.lball(spec, BASE_RADII[name] * 2.0 ** k, center, ev)
                for u in basis:
                    target = u(center)
                    got = mean_value(u, ball, cfg).value
                    dev = abs(got - target) / (1.0 + abs(target))
                    worst = max(worst, dev)
                    ok &= dev < 1e-7
    _report(4, f"mean-value formula on certified solutions through degree 4 "
               f"(worst {worst:.2e} < 1e-7)", ok, time.time() - t0, 120.0)


def test_criterion_05_kernel_normalization(all_specs, evaluators):
    t0 = time.time()
    cfg = QuadratureConfig(time_tol=1e-9, seed=505)
    ok = True
    worst = 0.0
    for name, spec in all_specs.items():
        one = AnisoPolynomial.constant(spec.n, 1.0)
        for k in (-2, 0, 3):
            ball = kp.lball(spec, BASE_RADII[name] * 2.0 ** k, ev=evaluators[name])
            got = integrate_over_ball(one, ball, cfg, kernel=True).value
            dev = abs(got - ball.r) / ball.r
            worst = max(worst, dev)
            ok &= dev < 1e-7
    _report(5, f"kernel integrates to the radius over every ball "
               f"(worst {worst:.2e} < 1e-7)", ok, time.time() - t0, 30.0)


def test_criterion_06_potential_identity(all_specs, evaluators):
    t0 = time.time()
    cfg = QuadratureConfig(time_tol=1e-8, seed=606)
    ok = True
    worst = 0.0
    for name, spec in all_specs.items():
        radii_k = (-3, 0, 4) if name != "chain" else (0, 4)
        for k in radii_k:
            ball = kp.lball(spec, BASE_RADII[name] * 2.0 ** k, ev=evaluators[name])
            domain = ExactBall(ball)
            pts = exterior_test_points(domain, ball, 72, seed=606)
            below = [(z, c) for z, c in pts if c == "below"][:32]
            assert len(below) >= 32
            rep = potential_identity_residual(domain, ball, below, cfg, seed=606)
            worst = max(worst, rep.sup_rel_residual)
            ok &= rep.sup_rel_residual < 1e-5
    _report(6, f"exterior potential identity, >=32 points in the nontrivial regime "
               f"(worst sup rel {worst:.2e} < 1e-5)", ok, time.time() - t0, 300.0)


def test_criterion_07_interior_strict_inequality(all_specs, evaluators):
    t0 = time.time()
    cfg = QuadratureConfig(time_tol=1e-8, seed=707)
    ok = True
    for name, spec in all_specs.items():
        ball = kp.lball(spec, BASE_RADII[name], ev=evaluators[name])
        pts = interior_test_points(ball, 16, seed=707)
        assert len(pts) == 16
        recs = interior_inequality_margin(ball, pts, cfg)
        for rec in recs:
            ok &= rec["margin"] > 5.0 * max(rec["quad_error"], 1e-300)
            ok &= rec["margin"] > 0.0
    _report(7, "strict interior inequality with margins above 5x quadrature error "
               "(16 points per operator)", ok, time.time() - t0, 180.0)


def test_criterion_08_rigidity_falsification(proto, evaluators):
    t0 = time.time()
    cfg = QuadratureConfig(time_tol=1e-8, seed=808)
    cfg_pert = dataclasses.replace(cfg, endpoint_depth=24, max_cells=280)
    ball = kp.lball(proto, PROTO_R, ev=evaluators["proto"])
    domain0 = ExactBall(ball)
    pts = exterior_test_points(domain0, ball, 12, seed=808)
    base = potential_identity_residual(domain0, ball, pts, cfg, seed=808)
    baseline = max(base.sup_rel_residual, 1e-14)
    p_lp = math.ceil(proto.Q / 2.0) + 1
    assert p_lp == 4
    ok = base.sup_rel_residual < 1e-5
    for kind, mag in (("spatial_shift", 0.1), ("radius_mismatch", 0.1),
                      ("slice_scale", 0.05), ("bite", 0.1)):
        domain = make_perturbation(ball, kind, mag)
        usable = [(z, c) for z, c in pts if not domain.contains(z)]
        rep = potential_identity_residual(domain, ball, usable, cfg_pert, seed=808)
        ok &= rep.sup_rel_residual >= 100.0 * baseline
        lp = lp_condition_norm(domain, ball, p_lp, cfg)
        ok &= math.isfinite(lp.norm)
    _report(8, "each perturbation family at >=5% magnitude raises the residual "
               ">=100x over the exact ball; gluing norm evaluates finite at p=4",
            ok, time.time() - t0, 600.0)


def test_criterion_09_corollary_mechanism(heat1, proto, evaluators):
    t0 = time.time()
    cfg = QuadratureConfig(time_tol=1e-8, seed=909)
    ok = True
    for name, spec in (("heat1", heat1), ("proto", proto)):
        ball = kp.lball(spec, BASE_RADII[name], ev=evaluators[name])
        straddling = TimeShiftedBall(ball, 0.3 * ball.s_max)
        # detector point above the center time, laterally just outside the
        # straddling domain so the future mass does not underflow
        t_star = ball.z0.t + 0.1 * ball.s_max
        slices = straddling.signed_slices(t_star)
        assert slices, "straddling domain must have mass at the detector time"
        ell = slices[0][1]
        x_star = ell.center + 1.4 * ell.axis_extents()
        z_star = spec.point(x_star, t_star)
        assert not straddling.contains(z_star)
        out = future_mass_detector(straddling, ball, z_star, cfg)
        ok &= out["triggered"] and out["u_star_at_center"] == 0.0
        ok &= out["future_mass_value"] > 0.0
        # control: a domain entirely below the center time never triggers
        calm = future_mass_detector(ExactBall(ball), ball, z_star, cfg)
        ok &= not calm["triggered"]
    _report(9, "domains straddling the center time trigger the future-mass detector "
               "against u*(z0) = 0", ok, time.time() - t0, 60.0)


def test_criterion_10_determinism(tmp_path):
    t0 = time.time()
    from kolpot.cli import run

    def cfg_payload(out_dir, workers):
        return {
            "operator": {"block_sizes": [1], "A0": [[1.0]]},
            "ball": {"z0": [0.0, 0.0], "r": HEAT1_R, "r_factors": [1.0]},
            "quadrature": {"time_tol": 1e-07, "seed": 1010, "workers": workers,
                           "endpoint_depth": 36},
            "experiments": [
                {"name": "kernel_mass", "tolerance": 1e-06},
                {"name": "potential_identity", "points": 6, "tolerance": 1e-05},
            ],
            "output": {"dir": str(out_dir), "format": "json"},
        }

    outputs = []
    for tag, workers in (("a", 1), ("b", 1), ("c", 4)):
        out = tmp_path / tag
        path = tmp_path / f"cfg_{tag}.json"
        path.write_text(json.dumps(cfg_payload(out, workers)))
        assert run(str(path)) == 0
        outputs.append(out)
    ok = True
    for name in ("kernel_mass.json", "potential_identity.json", "summary.json"):
        blobs = [(o / name).read_bytes() for o in outputs]
        if name == "summary.json":
            # summaries embed the config filename; compare parsed content
            parsed = [json.loads(b) for b in blobs]
            for p in parsed:
                p.pop("config")
            ok &= parsed[0] == parsed[1] == parsed[2]
        else:
            ok &= blobs[0] == blobs[1] == blobs[2]
    _report(10, "byte-identical reports for the same seed, any worker count",
            ok, time.time() - t0, 60.0)
