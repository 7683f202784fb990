"""The stacked L^p gluing profile against its per-node reference.

``lab._lp_profile`` handles all nodes of a time cell with one
``signed_slice_stack`` call per domain and one ``W_quadratic`` call over the
nodes that have a slice; the reference in ``oracles`` builds every node's
signed slices from ``LBall.slice_at`` and integrates one ellipsoid at a time,
with the same per-node Monte Carlo streams.
"""

import math
import time
import warnings

import numpy as np
import pytest

import kolpot as kp
from kolpot.balls import Ellipsoid, LBall
from kolpot.domains import (
    BittenBall,
    RadiusMismatchBall,
    ScaledBall,
    ShiftedBall,
    SlicedDomain,
    TimeShiftedBall,
    make_perturbation,
)
from kolpot.errors import TimeZero, ToleranceWarning
from kolpot.fundsol import GammaEvaluator
from kolpot.lab import _lp_profile, lp_condition_norm
from kolpot.quadrature import QuadratureConfig
from oracles import reference_lp_profile, reference_W_quadratic, two_floor_lp_check

OPS = ("heat1", "proto", "chain")
SEED = 20240811


def _domains(ball):
    other = kp.lball(ball.spec, 1.1 * ball.r, ball.z0, ball.ev)
    return {
        "scaled": ScaledBall(ball, 1.05),
        # a callable factor that removes the deeper half of the slices
        "scaled_profile": ScaledBall(ball, lambda u: 1.0 + 0.2 * u if u < 0.5 else -1.0),
        "radius_mismatch": RadiusMismatchBall(ball, other),
        "bitten": BittenBall(ball),
        "shifted": ShiftedBall(ball, np.full(ball.spec.n, 0.1)),
        "time_shifted": TimeShiftedBall(ball, 0.3 * ball.s_max),
    }


def _nodes(domain, ball):
    """A cell's worth of nodes over both time intervals and a little beyond
    (no slice there), with two nodes close to t0 on either side."""
    lo = min(domain.time_interval[0], ball.time_interval[0])
    hi = max(domain.time_interval[1], ball.time_interval[1])
    grid = np.linspace(lo - 0.05 * (hi - lo), hi + 0.05 * (hi - lo), 22)
    return np.concatenate([grid, ball.t0 + np.array([-1e-3, 1e-3]) * ball.s_max])


def _assert_matches_reference(domain, ball, p, tau):
    got = _lp_profile(domain, ball, p, SEED)(tau)
    ref = reference_lp_profile(domain, ball, p, SEED)(tau)
    assert np.any(ref != 0.0) and np.any(ref == 0.0)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("op", OPS)
@pytest.mark.parametrize("name", ["scaled", "scaled_profile", "radius_mismatch", "bitten",
                                  "shifted", "time_shifted"])
def test_stacked_lp_profile_matches_reference_integer_p(op, name, balls):
    # exact degree-2p cubature for the nested families, Monte Carlo for the
    # shifted ones
    ball = balls[op]
    domain = _domains(ball)[name]
    _assert_matches_reference(domain, ball, 3, _nodes(domain, ball))


@pytest.mark.parametrize("op", OPS)
@pytest.mark.parametrize("name", ["shifted", "time_shifted"])
def test_stacked_lp_profile_matches_reference_monte_carlo(op, name, balls):
    # same per-node Philox streams, so the same bound as the exact path
    ball = balls[op]
    domain = _domains(ball)[name]
    _assert_matches_reference(domain, ball, 3.5, _nodes(domain, ball))


def _count_calls(monkeypatch, cls, name):
    calls = []
    original = getattr(cls, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls


@pytest.mark.parametrize("p", [3, 3.5])
def test_lp_profile_is_one_stacked_pass(p, balls, monkeypatch):
    ball = balls["proto"]
    for name, domain in _domains(ball).items():
        tau = _nodes(domain, ball)
        profile = _lp_profile(domain, ball, p, SEED)
        with monkeypatch.context() as m:
            slices = _count_calls(m, LBall, "slices")
            kernel = _count_calls(m, GammaEvaluator, "W_quadratic")
            per_node = _count_calls(m, SlicedDomain, "signed_slices")
            ball_maps = _count_calls(m, Ellipsoid, "ball_map")
            profile(tau)
        assert len(slices) == 2, name
        assert len(kernel) == 1, name
        assert not per_node and not ball_maps, name


class _MovedBite(BittenBall):
    """A bitten ball moved spatially by h: its -1 regions lie outside the ball."""

    def signed_slice_stack(self, t):
        st = super().signed_slice_stack(t)
        return st._replace(center=st.center + self.h)


@pytest.mark.parametrize("op", OPS)
def test_lp_monte_carlo_drops_samples_in_own_minus_one_regions(op, balls):
    # moved far enough that its slices miss the ball's, the bitten ball draws
    # the same samples as the moved ball; the ones in its bite lie outside it
    ball = balls[op]
    lo, hi = kp.ball_bounding_box(ball)
    h = np.zeros(ball.spec.n)
    h[0] = 3.0 * (hi[0] - lo[0])
    bitten = _MovedBite(ball, size=0.45)
    bitten.h = h
    tau = ball.t0 - ball.s_max * np.linspace(0.05, 0.95, 19)
    got = _lp_profile(bitten, ball, 3.5, SEED)(tau)
    ref = _lp_profile(ShiftedBall(ball, h), ball, 3.5, SEED)(tau)
    u = (ball.t0 - tau) / ball.s_max
    has_bite = (u > 0.45) & (u < 0.65)  # a bite of at least 0.3 times the slice
    assert np.all(got[has_bite] < ref[has_bite])
    no_bite = (u < 0.35) | (u > 0.75)
    np.testing.assert_array_equal(got[no_bite], ref[no_bite])


def test_lp_profile_time_zero_only_where_a_slice_lives(balls):
    ball = balls["heat1"]
    at_t0 = np.array([ball.t0 - 0.5 * ball.s_max, ball.t0])
    # the ball has no slice at t0, so the kernel is never formed there
    assert _lp_profile(ScaledBall(ball, 1.05), ball, 3, SEED)(at_t0)[1] == 0.0
    # the time-shifted ball straddles t0 and has a slice there
    with pytest.raises(TimeZero):
        _lp_profile(TimeShiftedBall(ball, 0.3 * ball.s_max), ball, 3, SEED)(at_t0)


def test_lp_norm_rejects_nonpositive_p(balls, quad_cfg):
    ball = balls["heat1"]
    with pytest.raises(ValueError):
        lp_condition_norm(ScaledBall(ball, 1.05), ball, 0.0, quad_cfg)


def test_bitten_ball_monte_carlo_sees_the_bite(balls):
    # the symmetric difference of the ball and a bitten ball is the bite, a
    # -1 region; at non-integer p it is found by Monte Carlo, and Cauchy-Schwarz
    # bounds I(3.5) by sqrt(I(3) I(4)) from the exact path
    ball = balls["heat1"]
    domain = make_perturbation(ball, "bite", 0.1)
    cfg = QuadratureConfig(time_tol=1e-8, seed=3)
    i3 = lp_condition_norm(domain, ball, 3, cfg).integral
    i4 = lp_condition_norm(domain, ball, 4, cfg).integral
    # the Monte Carlo profile is noisy, so the time rule runs into its budget
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ToleranceWarning)
        lp = lp_condition_norm(domain, ball, 3.5, cfg)
    bound = math.sqrt(i3 * i4)
    assert 0.5 * bound < lp.integral <= 1.02 * bound
    assert lp.norm == pytest.approx(lp.integral ** (1.0 / 3.5))


_PERTURBATIONS = (("spatial_shift", 0.1), ("radius_mismatch", 0.1),
                  ("slice_scale", 0.05), ("bite", 0.1))


def test_tail_first_lp_check_matches_the_two_floor_rule(balls, quad_cfg):
    # the tail piece is I7 - I5 of the two-floor rule, so every certificate
    # stays and the integral moves by no more than the floor integrals' tolerance
    start = time.perf_counter()
    for op in ("heat1", "proto"):
        ball = balls[op]
        p = math.ceil(ball.spec.Q / 2.0) + 1
        for kind, mag in _PERTURBATIONS:
            domain = make_perturbation(ball, kind, mag)
            lp = lp_condition_norm(domain, ball, p, quad_cfg)
            i7, certified = two_floor_lp_check(domain, ball, p, quad_cfg)
            assert lp.certified == certified, (op, kind)
            assert lp.integral == pytest.approx(i7, rel=1e-5), (op, kind)
    assert time.perf_counter() - start <= 15.0


@pytest.mark.parametrize("op", ["heat1", "proto"])
def test_certified_lp_integral_keeps_its_precision(op, balls, quad_cfg):
    # the head dominates a certified integral, and its absolute tolerance is
    # set from the tail; a rel_tol 1e-9 reference shows that costs no precision
    ball = balls[op]
    p = math.ceil(ball.spec.Q / 2.0) + 1
    domain = make_perturbation(ball, "bite", 0.1)
    lp = lp_condition_norm(domain, ball, p, quad_cfg)
    ref, _ = two_floor_lp_check(domain, ball, p, quad_cfg, rel_tol=1e-9, max_cells=4096)
    assert lp.certified
    assert lp.integral == pytest.approx(ref, rel=1e-6)


@pytest.mark.parametrize("op", ["heat1", "heat2", "proto", "chain"])
def test_w_quadratic_stack_matches_definition(op, balls):
    ev = balls[op].ev
    t = np.concatenate([-np.logspace(-6, 2, 9), np.logspace(-6, 2, 9)])
    M = ev.W_quadratic(t)
    assert M.shape == (t.size, ev.spec.n, ev.spec.n)
    for k, tk in enumerate(t):
        np.testing.assert_array_equal(M[k], ev.W_quadratic(tk))
        ref = reference_W_quadratic(ev, tk)
        assert np.max(np.abs(M[k] - ref)) <= 1e-13 * np.max(np.abs(ref))
    with pytest.raises(TimeZero):
        ev.W_quadratic(np.array([1.0, 0.0]))
