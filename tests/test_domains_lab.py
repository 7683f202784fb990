import math
import warnings

import numpy as np
import pytest

import kolpot as kp
from kolpot.domains import (
    BittenBall,
    ExactBall,
    ScaledBall,
    TimeShiftedBall,
    make_perturbation,
)
from kolpot import errors, lab
from kolpot.errors import PointNotInterior
from kolpot.lab import (
    exterior_test_points,
    future_mass_detector,
    gamma_potential,
    interior_inequality_margin,
    interior_test_points,
    lp_condition_norm,
    mean_value,
    potential_identity_residual,
)
from kolpot.quadrature import QuadratureConfig


def test_exterior_points_classified(balls, quad_cfg):
    ball = balls["proto"]
    domain = ExactBall(ball)
    pts = exterior_test_points(domain, ball, 12, seed=5)
    assert len(pts) == 12
    cats = {c for _, c in pts}
    assert {"below", "lateral", "future"} <= cats
    for z, cat in pts:
        assert not domain.contains(z)
        if cat in ("below", "lateral"):
            assert ball.gamma_from_center(z) > 0.0
        if cat == "future":
            assert ball.gamma_from_center(z) == 0.0
    # determinism
    again = exterior_test_points(domain, ball, 12, seed=5)
    for (z1, c1), (z2, c2) in zip(pts, again):
        assert np.array_equal(z1.x, z2.x) and z1.t == z2.t and c1 == c2


def test_gamma_potential_matches_gamma_outside(balls, quad_cfg):
    # the potential of the exact ball equals the two-point kernel outside
    ball = balls["heat1"]
    domain = ExactBall(ball)
    z = ball.spec.point([0.4], -2.1)
    pot = gamma_potential(domain, ball, z, quad_cfg)
    assert pot.value == pytest.approx(ball.gamma_from_center(z), rel=1e-7)
    # and vanishes for points at or above the center time
    z_up = ball.spec.point([0.2], 0.5)
    assert gamma_potential(domain, ball, z_up, quad_cfg).value == 0.0


def test_identity_residual_report(balls, quad_cfg):
    ball = balls["proto"]
    domain = ExactBall(ball)
    pts = exterior_test_points(domain, ball, 10, seed=3)
    rep = potential_identity_residual(domain, ball, pts, quad_cfg, seed=3)
    assert rep.sup_rel_residual < 1e-6
    assert len(rep.points) == 10
    payload = rep.to_dict()
    assert payload["operator_hash"] == kp.operator_hash(ball.spec)
    assert payload["seed"] == 3
    # rejects interior points
    inside = ball.spec.point(np.zeros(2), -0.5 * ball.s_max)
    with pytest.raises(errors.TestPointInsideDomain):
        potential_identity_residual(domain, ball, [inside], quad_cfg)



@pytest.mark.parametrize("op", ["heat1", "heat2", "proto", "chain"])
def test_rows_do_not_depend_on_the_other_points(balls, op):
    # every point's pieces refine in one lockstep time rule, so a row keeps
    # its bits whatever points share the call.  On the ball moved up by
    # 0.3 s_max the "below" points' intervals straddle t0 (two sigma pieces);
    # on the ball moved down every piece runs in tau, and the "future" point
    # has no integral.  A budget of 4 cells stops some pieces short
    ball = balls[op]
    cfg = QuadratureConfig(time_tol=1e-12, max_cells=4, seed=11)
    keys = ("lhs", "quad_error", "cells", "converged", "flags")
    seen = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", errors.ToleranceWarning)
        for shift in (0.3, -0.3):
            domain = TimeShiftedBall(ball, shift * ball.s_max)
            pts = exterior_test_points(domain, ball, 6, seed=11)
            rows = potential_identity_residual(domain, ball, pts, cfg).points
            for item, row in zip(pts, rows):
                (alone,) = potential_identity_residual(domain, ball, [item], cfg).points
                assert [row[k] for k in keys] == [alone[k] for k in keys], (shift, row["index"])
                seen.append((row["cells"] > 0, row["converged"]))
        assert {(True, False), (False, True)} <= set(seen)
        keys = ("potential", "margin", "quad_error", "cells", "converged", "flags")
        pts = interior_test_points(ball, 3, seed=11)
        for z, rec in zip(pts, interior_inequality_margin(ball, pts, cfg)):
            (alone,) = interior_inequality_margin(ball, [z], cfg)
            assert [rec[k] for k in keys] == [alone[k] for k in keys]


def test_points_are_checked_before_any_integral(balls, quad_cfg, monkeypatch):
    ball = balls["proto"]
    domain = ExactBall(ball)
    outside = [z for z, _ in exterior_test_points(domain, ball, 4, seed=3)]
    inside = ball.spec.point(np.zeros(2), -0.5 * ball.s_max)

    def no_integral(*args, **kwargs):
        raise AssertionError("an integral ran before the points were checked")

    monkeypatch.setattr(lab, "kernel_gamma_integrals", no_integral)
    with pytest.raises(errors.TestPointInsideDomain, match="test point 2 "):
        potential_identity_residual(domain, ball, outside[:2] + [inside] + outside[2:], quad_cfg)
    with pytest.raises(PointNotInterior, match="point 1 "):
        interior_inequality_margin(ball, [inside, outside[0], inside], quad_cfg)

def test_interior_margin_frozen_values(balls):
    # regression fixtures computed with this package's quadrature at
    # time_tol 1e-10 and verified against a tolerance sweep
    cfg = QuadratureConfig(time_tol=1e-9, seed=1)
    b1 = balls["heat1"]
    z = b1.spec.point([0.0], -0.5 * b1.s_max)
    rec = interior_inequality_margin(b1, [z], cfg)[0]
    assert rec["gamma"] == pytest.approx((2.0 * math.pi) ** -0.5, rel=1e-12)
    assert rec["margin"] == pytest.approx(0.019080883853, rel=1e-5)

    bp = balls["proto"]
    zp = bp.spec.point([0.0, 0.0], -0.5 * bp.s_max)
    recp = interior_inequality_margin(bp, [zp], cfg)[0]
    assert recp["gamma"] == pytest.approx(1.102657790844, rel=1e-9)
    assert recp["margin"] == pytest.approx(0.444841273691, rel=1e-5)


def test_interior_margin_rejects_boundaryish_points(balls, quad_cfg):
    ball = balls["heat1"]
    outside = ball.spec.point([10.0], -0.5)
    with pytest.raises(PointNotInterior):
        interior_inequality_margin(ball, [outside], quad_cfg)


def test_interior_points_are_strictly_inside(balls):
    ball = balls["chain"]
    pts = interior_test_points(ball, 8, seed=11)
    assert len(pts) == 8
    for z in pts:
        assert ball.r * ball.gamma_from_center(z) > 1.0 + 1e-6
        s = ball.z0.t - z.t
        assert 0.2 * ball.s_max <= s <= 0.8 * ball.s_max


def test_lp_norm_zero_for_exact_ball(balls, quad_cfg):
    ball = balls["proto"]
    lp = lp_condition_norm(ExactBall(ball), ball, 4.0, quad_cfg)
    assert lp.norm == 0.0 and lp.certified


def test_lp_norm_flags_small_p(balls, quad_cfg):
    ball = balls["proto"]  # Q = 6, threshold Q/2 = 3
    lp = lp_condition_norm(ExactBall(ball), ball, 2.0, quad_cfg)
    assert "p_not_above_Q_half" in lp.flags


def test_lp_norm_bite_is_finite_and_certified(balls, quad_cfg):
    ball = balls["heat1"]
    domain = make_perturbation(ball, "bite", 0.1)
    lp = lp_condition_norm(domain, ball, 3, quad_cfg)
    assert lp.certified and 0.0 < lp.norm < 10.0
    # regression fixture: first verified run of this package
    assert lp.norm == pytest.approx(0.0935, rel=0.05)


def test_lp_norm_mismatch_detects_divergence(balls, quad_cfg):
    # the symmetric difference reaches the pole, so the true norm is infinite;
    # the checker reports a finite truncation with an honest flag
    ball = balls["heat1"]
    domain = make_perturbation(ball, "radius_mismatch", 0.1)
    lp = lp_condition_norm(domain, ball, 3, quad_cfg)
    assert math.isfinite(lp.norm) and lp.norm > 0.0
    assert not lp.certified
    assert "tail_divergence_suspected" in lp.flags


def test_lp_norm_flags_a_floor_integral_that_hits_its_budget(balls, quad_cfg, monkeypatch):
    # the spatial shift of the bundled rigidity config diverges toward the
    # pole: both pieces converge within their budgets, and the tail piece
    # holds more than 2% of the integral; so do the bite's, which is certified
    ball = kp.lball(kp.kolmogorov_prototype(), 3.6275987284684357)
    domain = make_perturbation(ball, "spatial_shift", 0.1)
    cfg = QuadratureConfig(time_tol=1e-8, seed=31415)
    with warnings.catch_warnings():
        warnings.simplefilter("error", errors.ToleranceWarning)
        lp = lp_condition_norm(domain, ball, 4, cfg)
    assert lp.flags == ("tail_divergence_suspected",) and not lp.certified
    assert math.isfinite(lp.norm) and lp.norm > 0.0
    heat1 = balls["heat1"]
    lp = lp_condition_norm(make_perturbation(heat1, "bite", 0.1), heat1, 3, quad_cfg)
    assert "tolerance_not_met" not in lp.flags
    # a piece that stops at its cell budget adds the flag; at p = 4 both pieces
    # converge within 8 cells, so the budget is met at p = 3.5 (Monte Carlo)
    monkeypatch.setattr(lab, "_LP_MAX_CELLS", 8)
    with pytest.warns(errors.ToleranceWarning):
        lp = lp_condition_norm(domain, ball, 3.5, cfg)
    assert "tolerance_not_met" in lp.flags
    assert math.isfinite(lp.norm) and lp.norm > 0.0


def test_perturbed_domains_memberships(balls):
    ball = balls["proto"]
    rng = np.random.default_rng(2)
    shifted = make_perturbation(ball, "spatial_shift", 0.2)
    h = np.asarray(shifted.h)
    scaled = ScaledBall(ball, 1.3)
    mismatch = make_perturbation(ball, "radius_mismatch", 0.3)
    bitten = BittenBall(ball)
    for _ in range(400):
        z = ball.spec.point(rng.standard_normal(2), -ball.s_max * rng.random())
        base = ball.contains(z)
        zs = ball.spec.point(z.x + h, z.t)
        if ball.classify(z) != "boundary":
            assert shifted.contains(zs) == base
        if base:
            assert scaled.contains(z)  # enlargement
            assert mismatch.contains(z)  # larger radius contains the ball
        if bitten.contains(z):
            assert base


def test_bite_is_strictly_interior(balls):
    ball = balls["heat1"]
    bitten = BittenBall(ball)
    # points removed by the bite are inside the ball but not the domain
    removed = 0
    rng = np.random.default_rng(6)
    for _ in range(3000):
        z = ball.spec.point(rng.uniform(-1, 1, 1), -ball.s_max * rng.random())
        if ball.contains(z) and not bitten.contains(z):
            removed += 1
    assert removed > 0


def test_rigidity_falsification_shift_and_mismatch(balls):
    ball = balls["heat1"]
    cfg = QuadratureConfig(time_tol=1e-8, seed=77)
    import dataclasses

    cfg_pert = dataclasses.replace(cfg, endpoint_depth=24, max_cells=280)
    domain0 = ExactBall(ball)
    pts = exterior_test_points(domain0, ball, 8, seed=77)
    base = potential_identity_residual(domain0, ball, pts, cfg, seed=77)
    assert base.sup_rel_residual < 1e-6
    for kind in ("spatial_shift", "radius_mismatch", "slice_scale", "bite"):
        domain = make_perturbation(ball, kind, 0.1 if kind != "slice_scale" else 0.05)
        usable = [(z, c) for z, c in pts if not domain.contains(z)]
        rep = potential_identity_residual(domain, ball, usable, cfg_pert, seed=77)
        assert rep.sup_rel_residual > 100.0 * max(base.sup_rel_residual, 1e-14), kind


def test_residual_grows_with_shift_magnitude(balls):
    # heuristic monotone-detection sanity: larger shifts, larger residuals
    ball = balls["heat1"]
    cfg = QuadratureConfig(time_tol=1e-7, seed=13, endpoint_depth=22, max_cells=240)
    pts = exterior_test_points(ExactBall(ball), ball, 6, seed=13)
    sups = []
    for mag in (0.05, 0.1, 0.2):
        domain = make_perturbation(ball, "spatial_shift", mag)
        usable = [(z, c) for z, c in pts if not domain.contains(z)]
        rep = potential_identity_residual(domain, ball, usable, cfg, seed=13)
        sups.append(rep.sup_rel_residual)
    assert sups[0] < sups[1] < sups[2]


def test_future_mass_detector(balls, quad_cfg):
    ball = balls["heat1"]
    straddling = TimeShiftedBall(ball, 0.3 * ball.s_max)
    z_star = ball.spec.point([3.0], 0.1 * ball.s_max)
    out = future_mass_detector(straddling, ball, z_star, quad_cfg)
    assert out["triggered"]
    assert out["u_star_at_center"] == 0.0
    assert out["future_mass_value"] > 0.0
    # a domain entirely below the center time does not trigger
    calm = future_mass_detector(ExactBall(ball), ball, z_star, quad_cfg)
    assert not calm["triggered"]


def test_mean_value_constant_and_odd(balls, quad_cfg):
    from kolpot.harmonic import AnisoPolynomial

    ball = balls["proto"]
    one = AnisoPolynomial.constant(2, 1.0)
    assert mean_value(one, ball, quad_cfg).value == pytest.approx(1.0, abs=1e-8)
    x = AnisoPolynomial.coordinate(2, 0)
    assert abs(mean_value(x, ball, quad_cfg).value) < 1e-9


def test_report_serialization_roundtrip(tmp_path, balls, quad_cfg):
    import json

    ball = balls["heat1"]
    domain = ExactBall(ball)
    pts = exterior_test_points(domain, ball, 4, seed=21)
    rep = potential_identity_residual(domain, ball, pts, quad_cfg, seed=21)
    text = rep.to_json()
    parsed = json.loads(text)
    assert parsed["sup_rel_residual"] == rep.sup_rel_residual
    csv_path = tmp_path / "points.csv"
    rep.write_csv(csv_path)
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 5


def test_potential_identity_off_origin_ball(proto, evaluators, quad_cfg):
    ball = kp.lball(proto, 2.0 * math.pi / math.sqrt(3.0), proto.point([0.3, 0.5], -0.4),
                    evaluators["proto"])
    domain = ExactBall(ball)
    pts = [p for p in exterior_test_points(domain, ball, 6, seed=31) if p[1] != "future"]
    rep = potential_identity_residual(domain, ball, pts[:3], quad_cfg)
    assert rep.sup_rel_residual < 1e-5
