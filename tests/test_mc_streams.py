"""The L^p gluing check is deterministic, and its masks read membership right.

* Determinism: ``lab._lp_profile`` draws no random numbers, so a node's value
  is the same bits alone as inside a call of many ``_CELL`` blocks, and
  ``lp_condition_norm`` does not read ``cfg.seed``.
* Membership: ``SignedSliceStack.holds`` against its ``np.add.at`` form in
  ``oracles.reference_holds``, on every domain kind, and
  ``SlicedDomain.contains`` against ``holds``.
"""

import dataclasses
import warnings

import numpy as np
import pytest

import kolpot as kp
from kolpot import lab
from kolpot.domains import (
    BittenBall,
    ExactBall,
    RadiusMismatchBall,
    ScaledBall,
    ShiftedBall,
    TimeShiftedBall,
    make_perturbation,
)
from kolpot.errors import ToleranceWarning
from kolpot.lab import _lp_profile, lp_condition_norm
from kolpot.quadrature import _CELL, QuadratureConfig
from oracles import reference_holds


@pytest.mark.parametrize("op", ["heat1", "proto", "chain"])
def test_lp_check_is_deterministic(op, balls, monkeypatch):
    # shifted domains overlap the ball at most times, so both the masked rule
    # and (at p = 3.5) the wide rule run.  The time-shifted head crosses the
    # kernel's pole at t0 and stops at its cell budget, here cut to 40 cells
    monkeypatch.setattr(lab, "_LP_MAX_CELLS", 40)
    ball = balls[op]
    cfg = QuadratureConfig(time_tol=1e-8, seed=31415)
    for domain in (ShiftedBall(ball, np.full(ball.spec.n, 0.1)),
                   TimeShiftedBall(ball, 0.3 * ball.s_max)):
        lo = min(domain.time_interval[0], ball.time_interval[0])
        hi = max(domain.time_interval[1], ball.time_interval[1])
        tau = np.linspace(lo, hi, 62)[1:-1]
        assert tau.size > 2 * _CELL
        for p in (3, 3.5):
            profile = _lp_profile(domain, ball, p)
            got = profile(tau)
            assert np.count_nonzero(got) > 50
            np.testing.assert_array_equal(got, np.concatenate([profile(t[None]) for t in tau]))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ToleranceWarning)
                lp = lp_condition_norm(domain, ball, p, cfg)
                other = lp_condition_norm(domain, ball, p, dataclasses.replace(cfg, seed=808))
            assert lp == other, (domain.describe(), p)


def test_lp_profile_builds_no_generator_per_node(balls, monkeypatch):
    # nor one per profile: the profile is built after the generators are watched
    ball = balls["proto"]
    built = []
    for name in ("Philox", "Generator"):
        original = getattr(np.random, name)
        monkeypatch.setattr(np.random, name,
                            lambda *a, _o=original, _n=name, **k: built.append(_n) or _o(*a, **k))
    profile = _lp_profile(ShiftedBall(ball, np.full(2, 0.1)), ball, 3.5)
    vals = profile(ball.t0 - ball.s_max * np.linspace(0.05, 0.95, 24))
    assert np.all(vals > 0.0)
    assert built == []


def _holds_domains(ball):
    other = kp.lball(ball.spec, 1.1 * ball.r, ball.z0, ball.ev)
    return {
        "exact": ExactBall(ball),
        # a callable factor that removes the deeper half of the slices
        "scaled_profile": ScaledBall(ball, lambda u: 1.0 + 0.2 * u if u < 0.5 else -1.0),
        "shifted": ShiftedBall(ball, np.full(ball.spec.n, 0.1)),
        "radius_mismatch": RadiusMismatchBall(ball, other),
        "bitten": BittenBall(ball, size=0.45),
        "time_shifted": TimeShiftedBall(ball, 0.3 * ball.s_max),
    }


@pytest.mark.parametrize("op", ["heat1", "proto", "chain"])
@pytest.mark.parametrize("name", ["exact", "scaled_profile", "shifted", "radius_mismatch",
                                  "bitten", "time_shifted"])
def test_holds_matches_add_at_form(op, name, balls):
    ball = balls[op]
    domain = _holds_domains(ball)[name]
    lo, hi = kp.ball_bounding_box(ball)
    t_lo = min(domain.time_interval[0], ball.time_interval[0])
    t_hi = max(domain.time_interval[1], ball.time_interval[1])
    # 20 times over both intervals and a little beyond, each asked for twice,
    # in reverse order, with 250 points per row: 10,000 points per stack
    tau = np.linspace(t_lo - 0.05 * (t_hi - t_lo), t_hi, 20)
    stack = domain.signed_slice_stack(tau)
    per_node = np.bincount(stack.node, minlength=tau.size)
    assert 0 in per_node and 1 in per_node
    if name == "bitten":
        assert 2 in per_node and np.any(stack.sign < 0)
    rng = np.random.default_rng([ord(c) for c in op + name])
    pad = 0.2 * (hi[:-1] - lo[:-1])
    node = np.tile(np.arange(tau.size), 2)[::-1]
    X = rng.uniform(lo[:-1] - pad, hi[:-1] + pad, size=(node.size, 250, ball.spec.n))
    got = stack.holds(X.transpose(0, 2, 1), node)
    ref = reference_holds(stack, X, node)
    assert got.dtype == bool and np.array_equal(got, ref)
    assert got.any() and not got.all()
    if name == "bitten":
        # points inside the ball's own slice that the -1 bite takes out
        assert np.any(ExactBall(ball).signed_slice_stack(tau).holds(X.transpose(0, 2, 1), node)
                      & ~got)


@pytest.mark.parametrize("op", ["heat1", "chain"])
@pytest.mark.parametrize("name", ["scaled_profile", "shifted", "bitten", "time_shifted"])
def test_contains_agrees_with_holds(op, name, balls):
    # SlicedDomain.contains asks holds about one point, coordinates on axis 1
    ball = balls[op]
    domain = _holds_domains(ball)[name]
    lo, hi = kp.ball_bounding_box(ball)
    lo[-1], hi[-1] = domain.time_interval
    pts = np.random.default_rng([ord(c) for c in op + name]).uniform(lo, hi, (2000, lo.size))
    stack = domain.signed_slice_stack(pts[:, -1])
    held = stack.holds(pts[:, :-1, None], np.arange(pts.shape[0]))[:, 0]
    got = np.array([domain.contains(ball.spec.point(z[:-1], z[-1])) for z in pts])
    np.testing.assert_array_equal(got, held)
    assert 100 < held.sum() < 1900


# lp_condition_norm at p = 4 on the radius-mismatch perturbation: the exact
# path, float.hex of (integral, norm) as computed in the point-major layout
# under the G10/K21 time rule, tail piece in sigma then head in tau (within
# 8.3e-14 of the two-floor rule's values), slices by the recursive
# Gauss-Jacobi ball rule
_MISMATCH_P4 = {
    "heat1": ("0x1.1591c92300dcep+64", "0x1.053adb5ad9836p+16"),
    "proto": ("0x1.650ea3de45c3ep+47", "0x1.d3e1f3923a8e6p+11"),
    "chain": ("0x1.b9380e0e60d13p+41", "0x1.5cd1d875c2861p+10"),
}


@pytest.mark.parametrize("op", sorted(_MISMATCH_P4))
def test_exact_lp_path_keeps_its_bits(op, balls, quad_cfg):
    ball = balls[op]
    lp = lp_condition_norm(make_perturbation(ball, "radius_mismatch", 0.1), ball, 4, quad_cfg)
    assert (lp.integral.hex(), lp.norm.hex()) == _MISMATCH_P4[op]
