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
from kolpot import lab
from kolpot.balls import Ellipsoid, LBall
from kolpot.domains import (
    BittenBall,
    ExactBall,
    RadiusMismatchBall,
    ScaledBall,
    ShiftedBall,
    SlicedDomain,
    TimeShiftedBall,
    make_perturbation,
)
from kolpot.errors import TimeZero, ToleranceWarning
from kolpot.fundsol import GammaEvaluator
from kolpot.lab import _apart, _lp_classes, _lp_profile, lp_condition_norm
from kolpot.operators import transport_matrix
from kolpot.quadrature import QuadratureConfig, integrate_time_profile
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
    # exact degree-2p cubature where a node's slices nest or lie apart, Monte
    # Carlo where they overlap (the shifted families have times of both kinds)
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


def _in_ball(rng, n, samples):
    """Uniform points in the open unit ball of R^n."""
    v = rng.standard_normal((samples, n))
    return v * (rng.random((samples, 1)) ** (1.0 / n) / np.linalg.norm(v, axis=1, keepdims=True))


def _symmetric_difference(domain, ball, p, tau, samples, rng):
    """int of W^p over the symmetric difference at each time, from ``samples`` uniform
    points in each of the two one-slice regions."""
    out = []
    for t in tau:
        (_, ed), = domain.signed_slices(t)
        (_, eb), = ExactBall(ball).signed_slices(t)
        MW = reference_W_quadratic(ball.ev, t - ball.z0.t)
        cW = transport_matrix(t - ball.z0.t, ball.spec) @ ball.z0.x
        total = 0.0
        for own, other in ((ed, eb), (eb, ed)):
            X = own.center + _in_ball(rng, ball.spec.n, samples) @ own.ball_map().T
            w = np.einsum("ij,jk,ik->i", X - cW, MW, X - cW) ** p
            total += own.volume() * np.mean(w * ~other.contains(X))
        out.append(total)
    return np.array(out)


def test_lp_profile_reads_the_slices_not_the_domain_class():
    # a slice-scale family of a moved ball: its slices overlap the ball's
    # without nesting, so the profile takes the symmetric difference, not
    # |int_D - int_ball| (4.214e4, 529.7 and 8.369 here, 13-23% low)
    proto = kp.kolmogorov_prototype()
    ball = kp.lball(proto, 3.6275987284684357)
    moved = kp.lball(proto, 3.6276, proto.point([0.6, 0.0], 0.0))
    domain = ScaledBall(moved, 1.0)
    tau = ball.t0 - ball.s_max * np.array([0.2, 0.5, 0.8])
    got = _lp_profile(domain, ball, 3, 7)(tau)
    ref = reference_lp_profile(domain, ball, 3, 7)(tau)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    np.testing.assert_allclose(got, [5.559e4, 639.7, 10.36], rtol=1e-3)
    # 512 samples per slice: within 10% of a 200,000-sample estimate
    accurate = _symmetric_difference(domain, ball, 3, tau, 200_000, np.random.default_rng(1))
    np.testing.assert_allclose(got, accurate, rtol=0.1)


def _random_spd(rng, n, count):
    A = rng.standard_normal((count, n, n))
    return A @ A.transpose(0, 2, 1) + 0.1 * np.eye(n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_apart_pairs_share_no_point(n):
    # unequal shapes: a pair called apart shares none of 10^4 points of
    # either ellipsoid, and the test is not empty: both decisions occur, and
    # sampling finds the overlap of some pair not called apart
    rng = np.random.default_rng(100 + n)
    count = 60
    S = _random_spd(rng, n, 2 * count)
    level = rng.uniform(0.2, 2.0, 2 * count)
    ca = rng.standard_normal((count, n))
    v = rng.standard_normal((count, n))
    cb = ca + v / np.linalg.norm(v, axis=1, keepdims=True) * rng.uniform(0.0, 4.0, (count, 1))
    apart = _apart(ca, S[:count], level[:count], cb, S[count:], level[count:])
    assert 10 <= apart.sum() <= count - 10
    u = _in_ball(rng, n, 10_000)
    shared = []
    for k in range(count):
        ea = Ellipsoid(ca[k], S[k], float(level[k]))
        eb = Ellipsoid(cb[k], S[count + k], float(level[count + k]))
        shared.append(np.any(eb.contains(ea.center + u @ ea.ball_map().T))
                      or np.any(ea.contains(eb.center + u @ eb.ball_map().T)))
    shared = np.array(shared)
    assert not np.any(shared & apart)
    assert np.any(shared & ~apart)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_apart_is_exact_for_equal_shapes(n):
    # equal shapes: apart exactly when |cb - ca|_S >= sqrt(la) + sqrt(lb),
    # outside a 1e-9 band around the touching distance
    rng = np.random.default_rng(200 + n)
    count = 2000
    S = _random_spd(rng, n, count)
    la, lb = rng.uniform(0.2, 2.0, (2, count))
    ca = rng.standard_normal((count, n))
    # directions scaled to distances around the touching one
    v = rng.standard_normal((count, n))
    norm_S = np.sqrt(np.einsum("ki,kij,kj->k", v, S, v))
    gap = (np.sqrt(la) + np.sqrt(lb)) * rng.uniform(0.5, 1.5, count)
    cb = ca + v * (gap / norm_S)[:, None]
    got = _apart(ca, S, la, cb, S, lb)
    dist = np.sqrt(np.einsum("ki,kij,kj->k", cb - ca, S, cb - ca))
    touch = np.sqrt(la) + np.sqrt(lb)
    clear = np.abs(dist - touch) > 1e-9 * touch
    assert clear.sum() > 0.99 * count and 0.2 < got.mean() < 0.8
    np.testing.assert_array_equal(got[clear], (dist >= touch)[clear])


def test_spatial_shift_tail_is_exact(monkeypatch):
    # the bundled rigidity config's spatial shift at p = 4: every slice pair of
    # the tail piece lies apart, so the tail takes exact cubature, draws no
    # Monte Carlo stream and converges at once; the head's overlapping
    # slices still draw theirs
    ball = kp.lball(kp.kolmogorov_prototype(), 3.6275987284684357)
    domain = make_perturbation(ball, "spatial_shift", 0.1)
    drawn, pieces = [], []
    node_uniforms = lab._node_uniforms

    def counted(gen, seed, taus, salt, n):
        drawn.append(len(taus))
        return node_uniforms(gen, seed, taus, salt, n)

    def piece(profile, lo, hi, **rule):
        before = len(drawn)
        res = integrate_time_profile(profile, lo, hi, **rule)
        pieces.append((res, len(drawn) - before))
        return res

    monkeypatch.setattr(lab, "_node_uniforms", counted)
    monkeypatch.setattr(lab, "integrate_time_profile", piece)
    lp = lp_condition_norm(domain, ball, 4, QuadratureConfig(time_tol=1e-8, seed=31415))
    (tail, tail_draws), (head, head_draws) = pieces
    assert tail.converged and tail.cells <= 8 and tail_draws == 0
    assert head.converged and head_draws > 0
    assert lp.flags == ("tail_divergence_suspected",)


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


class _GrownBite(BittenBall):
    """A bitten ball whose +1 slices grow by 10% in each semi-axis, while its bites
    keep their place inside the ball's slices."""

    def signed_slice_stack(self, t):
        st = super().signed_slice_stack(t)
        return st._replace(level=np.where(st.sign > 0, 1.21 * st.level, st.level))


def test_a_bite_in_a_larger_slice_does_not_nest(balls):
    # with the ball's slice inside the domain's and a bite inside both, the
    # symmetric difference is the ring plus the bite, not |int_D - int_ball|
    # (the ring minus the bite): such times take Monte Carlo
    ball = balls["proto"]
    tau = ball.t0 - ball.s_max * np.linspace(0.05, 0.95, 19)
    sb = ExactBall(ball).signed_slice_stack(tau)
    for domain in (_GrownBite(ball, size=0.45), ScaledBall(ball, 1.1), BittenBall(ball, size=0.45)):
        sd = domain.signed_slice_stack(tau)
        nested, apart = _lp_classes(sd, sb, tau.size)
        bitten = np.isin(np.arange(tau.size), sd.node[sd.sign < 0])
        assert bitten.any() == isinstance(domain, BittenBall) and not apart.any()
        if isinstance(domain, _GrownBite):
            np.testing.assert_array_equal(nested, ~bitten)
        else:
            assert nested.all()


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
