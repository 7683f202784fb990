"""Dilation identities behind the factored covariance and slice geometry.

Every validated operator has A only in the A0 block and B only on the block
subdiagonal, so D(l) = diag(l^w_i) gives C(s) = D(sqrt s) C(+-1) D(sqrt s).
CovarianceModel, ball_time_extent, LBall.slices and everything that reads the
slices rely on it; these tests fail if an operator ever breaks that block
structure.  The slice references are built per depth from
E(s)^T C(s)^{-1} E(s) in 50-digit arithmetic, so they stay exact where C(s)
is too ill-conditioned for a double-precision inverse.
"""

import math

import mpmath
import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import minimize_scalar

import kolpot as kp
from kolpot.balls import Ellipsoid, unit_ball_volume
from kolpot.covariance import CovarianceModel
from kolpot.errors import SliceOutOfRange
from kolpot.harmonic import AnisoPolynomial
from kolpot.quadrature import (
    MCSampler,
    QuadratureConfig,
    _exact_ball_profile,
    ball_rule,
    ellipsoid_quadratic_integral,
    integrate_over_ball,
)


def _r2_chain():
    # blocks [1, 1, 1]: r = 2, Q = 11
    return kp.validate_operator(3, [1, 1, 1], [[1.0]], [np.array([[1.0]]), np.array([[1.0]])])


@pytest.fixture(scope="module", params=["heat1", "heat2", "proto", "chain", "r2"])
def spec(request, all_specs):
    return _r2_chain() if request.param == "r2" else all_specs[request.param]


def _direct_inverse(M):
    sign = 1.0 if M[0, 0] > 0 else -1.0
    c = scipy.linalg.cho_factor(sign * M, lower=True)
    return sign * scipy.linalg.cho_solve(c, np.eye(M.shape[0]))


def test_covariance_is_dilated_unit_covariance(spec):
    cov = CovarianceModel(spec)
    for sign in (1.0, -1.0):
        C1 = cov.C(sign)
        for s in (1e-4, 0.3, 2.0, 9.0):
            D = kp.dilation_matrix(math.sqrt(s), spec)
            np.testing.assert_allclose(cov.C(sign * s), D @ C1 @ D,
                                       rtol=1e-13, atol=1e-15 * np.abs(D @ C1 @ D).max())


def test_C_inverse_matches_direct_cholesky_inverse(spec):
    cov = CovarianceModel(spec)
    for t in (0.05, 0.7, 3.0, -0.05, -0.7, -3.0):
        ref = _direct_inverse(cov.C(t))
        got = cov.C_inverse(t)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-14 * np.abs(ref).max())
        np.testing.assert_allclose(got @ cov.C(t), np.eye(spec.n), atol=1e-9)


def test_C_cholesky_reproduces_covariance(spec):
    cov = CovarianceModel(spec)
    for s in (1e-6, 0.05, 1.0, 4.0):
        L = cov.C_cholesky(s)
        assert np.array_equal(L, np.tril(L))
        C = cov.C(s)
        np.testing.assert_allclose(L @ L.T, C, rtol=1e-12, atol=1e-14 * np.abs(C).max())


def test_det_at_time_extent_hits_level(spec):
    cov = CovarianceModel(spec)
    for r in (0.3, 2.0, 25.0):
        s_max = kp.ball_time_extent(r, spec)
        target = r * r * (4.0 * math.pi) ** (-spec.n)
        assert np.linalg.det(cov.C(s_max)) == pytest.approx(target, rel=1e-12)
        assert cov.detC(s_max) == pytest.approx(target, rel=1e-13)


def _per_slice_reference(f, ball, s, kernel):
    """One exact slice integral from slice_at and ball_map, as a plain loop."""
    if not 0.0 < s < ball.s_max or ball.rho(s) <= 0.0:
        return 0.0
    n = ball.spec.n
    ell = ball.slice_at(s)
    center = ball.slice_center(s)
    nodes, weights = ball_rule(n, f.space_degree + (2 if kernel else 0))
    Y = nodes @ ell.ball_map().T
    vals = f.evaluate(center + Y, ball.z0.t - s)
    if kernel:
        vals = vals * np.einsum("ij,jk,ik->i", Y, ball.ev.W_quadratic(-s), Y)
    jac = ell.level ** (n / 2.0) / math.sqrt(np.linalg.det(ell.shape))
    return jac * float(weights @ vals)


@pytest.mark.parametrize("kernel", [False, True])
def test_batched_exact_profile_matches_per_slice_reference(spec, kernel):
    basis = kp.harmonic_basis(spec, 4)
    # the highest-degree basis element carries time and cross terms
    u = basis[-1] + AnisoPolynomial.constant(spec.n, 1)
    z0 = spec.point(0.3 + 0.2 * np.arange(spec.n), -0.4)
    ball = kp.lball(spec, 3.0, z0)
    inside = ball.s_max * np.array([1e-4, 0.01, 0.37, 0.5, 0.93, 1.0 - 1e-6])
    outside = np.array([-0.1, 0.0, ball.s_max, 1.2 * ball.s_max])
    s = np.concatenate([inside, outside])
    got = _exact_ball_profile(u, ball, kernel)(s)
    ref = np.array([_per_slice_reference(u, ball, si, kernel) for si in s])
    assert np.all(got[inside.size:] == 0.0)
    assert np.all(ref[:inside.size] != 0.0)
    np.testing.assert_allclose(got, ref, rtol=1e-11, atol=1e-14 * np.abs(ref).max())


# ---------------------------------------------------------------------------
# the stacked slice primitive and its consumers, against per-depth references
# ---------------------------------------------------------------------------


def _translated_ball(spec):
    return kp.lball(spec, 3.0, spec.point(0.3 + 0.2 * np.arange(spec.n), -0.4))


def _reference_slice(ball, s):
    """(rho, E(s)^T C(s)^{-1} E(s), volume) at one depth, without homogeneity."""
    spec = ball.spec
    with mpmath.workdps(50):
        sm = mpmath.mpf(s)
        C = mpmath.matrix(spec.n, spec.n)
        for k, Ck in enumerate(ball.ev.cov.C_poly.coeffs):
            C += sm ** k * mpmath.matrix(Ck.tolist())
        E = mpmath.matrix(spec.n, spec.n)
        for k, Bk in enumerate(spec.B_powers):
            E += (-sm) ** k / math.factorial(k) * mpmath.matrix(Bk.tolist())
        M = E.T * mpmath.inverse(C) * E
        detC = mpmath.det(C)
        rho = 4 * (mpmath.log(ball.r) - spec.n * mpmath.log(4 * mpmath.pi) / 2
                   - mpmath.log(detC) / 2)
        vol = unit_ball_volume(spec.n) * rho ** (mpmath.mpf(spec.n) / 2) * mpmath.sqrt(detC)
        shape = np.array([[float(M[i, j]) for j in range(spec.n)] for i in range(spec.n)])
        return float(rho), 0.5 * (shape + shape.T), float(vol)


def _assert_shape_close(got, ref, rtol):
    # entrywise, on the scale sqrt(ref_ii ref_jj) that bounds an SPD entry
    d = np.sqrt(np.diag(ref))
    np.testing.assert_allclose(got / np.outer(d, d), ref / np.outer(d, d), rtol=0, atol=rtol)


def test_slices_and_slice_at_match_per_depth_reference(spec):
    ball = _translated_ball(spec)
    T1 = ball.ev.cov.T1
    inside = ball.s_max * np.array([1e-8, 1e-6, 1e-4, 0.01, 0.37, 0.5, 0.93, 1.0 - 1e-6])
    outside = np.array([-0.1, 0.0, ball.s_max, 1.2 * ball.s_max])
    s = np.concatenate([inside[:3], outside[:2], inside[3:], outside[2:]])
    sl = ball.slices(s)
    assert np.array_equal(sl.idx, [0, 1, 2, 5, 6, 7, 8, 9])
    assert np.array_equal(sl.s, inside)
    rng = np.random.default_rng(4)
    for k, sk in enumerate(inside):
        rho, shape, vol = _reference_slice(ball, sk)
        assert sl.rho[k] == pytest.approx(rho, rel=1e-12, abs=1e-12)
        _assert_shape_close(sl.shape[k], shape, 1e-11)
        assert sl.volume[k] == pytest.approx(vol, rel=1e-11)
        center = kp.transport_matrix(-sk, spec) @ ball.z0.x
        np.testing.assert_allclose(sl.center[k], center, rtol=1e-13, atol=1e-15)
        # center + scale * (T1 u) lands on the level set for every unit u
        u = rng.standard_normal((16, spec.n))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        Y = sl.scale[k] * (u @ T1.T)
        q = np.einsum("ij,jk,ik->i", Y, shape, Y)
        np.testing.assert_allclose(q, rho, rtol=1e-9)
        ell = ball.slice_at(sk)
        assert np.array_equal(ell.center, np.zeros(spec.n))
        assert ell.level == pytest.approx(rho, rel=1e-12, abs=1e-12)
        _assert_shape_close(ell.shape, shape, 1e-11)
    for sk in outside:
        with pytest.raises(SliceOutOfRange):
            ball.slice_at(sk)


def _per_node_reach(ball, s, i, sign):
    """The per-node extent formula: c_i(s) + sign sqrt(rho (E(-s) C(s) E(-s)^T)_ii)."""
    n = ball.spec.n
    Einv = kp.transport_matrix(-s, ball.spec)
    C = ball.ev.cov.C(s)
    Minv = Einv @ C @ Einv.T
    rho = 4.0 * (math.log(ball.r) - 0.5 * n * math.log(4.0 * math.pi)
                 - 0.5 * math.log(np.linalg.det(C)))
    rho = max(rho, 0.0)
    return (Einv @ ball.z0.x)[i] + sign * math.sqrt(rho * max(Minv[i, i], 0.0))


def test_bounding_box_matches_per_node_extents(spec):
    ball = _translated_ball(spec)
    lo, hi = kp.ball_bounding_box(ball)
    assert lo[-1] == ball.time_interval[0] and hi[-1] == ball.time_interval[1]
    u = np.linspace(0.0, 1.0, 1026)[1:-1]
    grid = ball.s_max * np.sin(0.5 * math.pi * u) ** 2
    width = hi[:-1] - lo[:-1]
    for i in range(spec.n):
        for sign, got in ((1.0, hi[i]), (-1.0, lo[i])):
            vals = np.array([sign * _per_node_reach(ball, s, i, sign) for s in grid])
            k = int(np.argmax(vals))
            best = minimize_scalar(
                lambda s: -sign * _per_node_reach(ball, s, i, sign), method="bounded",
                bounds=(grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]),
                options={"xatol": 1e-12 * ball.s_max})
            ref = max(vals[k], -best.fun)
            assert sign * got == pytest.approx(ref, rel=1e-10, abs=1e-12 * width[i])


def test_mc_sampler_tables_match_slice_integrals(spec):
    ball = _translated_ball(spec)
    sampler = MCSampler(ball)
    w = sampler.w_grid
    jac = 2.0 * ball.s_max * w
    assert sampler.vol_density[0] == 0.0 and sampler.vol_density[-1] == 0.0
    assert sampler.kernel_density[0] == 0.0 and sampler.kernel_density[-1] == 0.0
    for j in (1229, 2048, 2867, 3686, 4055):
        s = ball.s_max * w[j] ** 2
        rho, shape, vol = _reference_slice(ball, s)
        ell = Ellipsoid(np.zeros(spec.n), shape, rho)
        vol_ref = ellipsoid_quadratic_integral(ell, np.zeros((spec.n, spec.n)), const=1.0)
        kmass_ref = ellipsoid_quadratic_integral(ell, ball.ev.W_quadratic(-s))
        assert vol_ref == pytest.approx(vol, rel=1e-11)
        assert sampler.vol_density[j] / jac[j] == pytest.approx(vol_ref, rel=1e-10)
        assert sampler.kernel_density[j] / jac[j] == pytest.approx(kmass_ref, rel=1e-10)


def test_spatial_points_lie_in_their_slices(spec):
    # at the origin x - c(s) is exact, so tiny slices are checked to roundoff
    ball = kp.lball(spec, 3.0)
    sampler = MCSampler(ball)
    rng = np.random.default_rng(17)
    m = 400
    s = ball.s_max * rng.random(m) ** 2
    u_rad = rng.random(m)
    u_rad[:20] = 1.0  # radius 1 - 1e-12: right at the boundary
    sl = ball.slices(s)
    assert sl.idx.size == m
    X = sampler._spatial(rng.random((m, spec.n)), u_rad, sl)
    for k in range(m):
        ell = ball.slice_at(s[k])
        Y = X[k] - ball.slice_center(s[k])
        q = float(Y @ ell.shape @ Y)
        assert q == pytest.approx(ell.level * u_rad[k] ** (2.0 / spec.n), rel=1e-9)
        if k >= 20:
            assert ell.contains(Y)[0]


def test_mc_kernel_weights_match_per_sample_kernel(spec):
    # the stacked Monte Carlo kernel weights against ev.W at every sample; the
    # bare kernel integrates to r over the ball
    ball = _translated_ball(spec)
    cfg = QuadratureConfig(mc_samples=4000, seed=8)
    mc = integrate_over_ball(lambda x, t: 1.0, ball, cfg, kernel=True)
    X, s, p = MCSampler(ball).sample(cfg.mc_samples, cfg.seed, kernel=True)
    # the kernel at (xi, -s), with xi = x - E(-s) x0 the point in the slice frame
    W = np.array([ball.ev.W(spec.point(x - ball.slice_center(sk), -sk))
                  for x, sk in zip(X, s)])
    assert mc.value == pytest.approx(float(np.mean(W / p)), rel=1e-10)
    assert abs(mc.value - ball.r) < 4.0 * mc.error
