"""Dilation identities behind the factored covariance and slice geometry.

Every validated operator has A only in the A0 block and B only on the block
subdiagonal, so D(l) = diag(l^w_i) gives C(s) = D(sqrt s) C(+-1) D(sqrt s).
CovarianceModel, ball_time_extent and the exact ball profile rely on it;
these tests fail if an operator ever breaks that block structure.
"""

import math

import numpy as np
import pytest
import scipy.linalg

import kolpot as kp
from kolpot.covariance import CovarianceModel
from kolpot.harmonic import AnisoPolynomial
from kolpot.quadrature import _exact_ball_profile, ball_rule


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
