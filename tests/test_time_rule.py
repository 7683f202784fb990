"""The time rule's Gauss-Kronrod pairs and its error estimates.

* Every ``time_order`` m the schema accepts gives a pair G_m/K_{2m+1} built by
  Laurie's algorithm: nodes inside the interval, positive weights, the m Gauss
  nodes at the odd positions of the Kronrod nodes, and the Kronrod rule exact
  to degree 3m + 1 (3m + 2 for odd m) and no further.  At m = 10 the pair is
  QUADPACK's G10/K21 (dqk21), whose published constants are pasted below.
* On the acceptance sets (criterion 4's mean values, and the first 8 "below"
  points per radius of criterion 6), no reported error is smaller than the
  actual error, up to rounding.
* Pieces integrated in lockstep, one profile call per refinement step for all
  of them, each keep the result they have alone, a piece that declares a
  pole included.
"""

import math
import warnings

import numpy as np
import pytest
from numpy.polynomial import legendre

import kolpot as kp
from kolpot.domains import ExactBall
from kolpot.harmonic import harmonic_basis
from kolpot.lab import exterior_test_points, kernel_gamma_integral, mean_value
from kolpot.errors import ToleranceWarning
from kolpot.quadrature import (
    QuadratureConfig,
    _gauss_kronrod,
    _integrate_pieces,
    integrate_time_profile,
)
from conftest import HEAT1_R, PROTO_R

# QUADPACK dqk21: the Kronrod abscissae xgk (descending; xgk(2j) are the
# Gauss nodes), their weights wgk, and the Gauss weights wg, on (-1, 1)
XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
       0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
       0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
       0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
       0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
       0.000000000000000000000000000000000)
WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
       0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
       0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
       0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
       0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
       0.149445554002916905664936468389821)
WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
      0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
      0.295524224714752870173892994651338)

BASE_RADII = {"heat1": HEAT1_R, "heat2": 4.0, "proto": PROTO_R, "chain": 4.0}


@pytest.mark.parametrize("m", [1, 2, 3, 10, 16, 32])
def test_gauss_kronrod_pair_for_every_time_order(m):
    xk, wk, wg = _gauss_kronrod(m)
    assert xk.shape == wk.shape == (2 * m + 1,) and wg.shape == (m,)
    assert 0.0 < xk[0] and xk[-1] < 1.0 and np.all(np.diff(xk) > 0.0)
    assert np.all(wk > 0.0) and np.all(wg > 0.0)
    gauss, _ = np.polynomial.legendre.leggauss(m)
    np.testing.assert_allclose(2.0 * xk[1::2] - 1.0, gauss, rtol=0.0, atol=1e-15)
    # int_0^1 P_k(2x - 1) dx is 1 for k = 0 and 0 beyond
    degree = 3 * m + 1 + m % 2
    err_k = np.abs(legendre.legvander(2.0 * xk - 1.0, degree + 1).T @ wk
                   - np.eye(degree + 2)[0])
    err_g = np.abs(legendre.legvander(2.0 * xk[1::2] - 1.0, 2 * m).T @ wg
                   - np.eye(2 * m + 1)[0])
    assert err_k[:degree + 1].max() <= 2e-15 and err_k[degree + 1] > 1e-6
    assert err_g[:2 * m].max() <= 2e-15 and err_g[2 * m] > 1e-6


def test_gauss_kronrod_10_is_quadpack_g10_k21():
    xk, wk, wg = _gauss_kronrod(10)
    x = np.array(XGK)
    np.testing.assert_allclose(2.0 * xk - 1.0, np.concatenate([-x[:-1], x[::-1]]),
                               rtol=0.0, atol=2e-15)
    np.testing.assert_allclose(2.0 * wk, np.concatenate([WGK[:-1], WGK[::-1]]),
                               rtol=0.0, atol=2e-15)
    np.testing.assert_allclose(2.0 * wg, np.concatenate([WG, WG[::-1]]), rtol=0.0, atol=2e-15)


def _covers(results):
    """(reported error, actual error, target) triples: the largest shortfall
    of the reported error below the actual one, against the rounding slack."""
    return max(actual - err - 1e-14 * (1.0 + abs(target)) for err, actual, target in results)


@pytest.mark.parametrize("op", ["heat1", "heat2", "proto", "chain"])
def test_reported_error_covers_the_actual_error(all_specs, evaluators, op):
    spec, ev = all_specs[op], evaluators[op]
    # criterion 4: mean values of the degree <= 4 basis on origin and
    # translated balls of radius 2^k r, with the translations drawn in its order
    rng = np.random.default_rng(404)
    translate = {name: s.point(0.5 * rng.standard_normal(s.n), rng.uniform(-0.5, 0.5))
                 for name, s in all_specs.items()}[op]
    cfg = QuadratureConfig(time_tol=1e-9, seed=404)
    results = []
    for center in (spec.origin(), translate):
        for k in (-3, -1, 0, 2, 4):
            ball = kp.lball(spec, BASE_RADII[op] * 2.0 ** k, center, ev)
            for u in harmonic_basis(spec, 4):
                got = mean_value(u, ball, cfg)
                results.append((got.error, abs(got.value - u(center)), u(center)))
    assert _covers(results) <= 0.0
    # criterion 6: the first 8 "below" points per radius
    cfg = QuadratureConfig(time_tol=1e-8, seed=606)
    results = []
    for k in ((-3, 0, 4) if op != "chain" else (0, 4)):
        ball = kp.lball(spec, BASE_RADII[op] * 2.0 ** k, ev=ev)
        domain = ExactBall(ball)
        pts = exterior_test_points(domain, ball, 72, seed=606)
        for z in [z for z, cat in pts if cat == "below"][:8]:
            rhs = ball.r * ball.gamma_from_center(z)
            got = kernel_gamma_integral(domain, ball, z, cfg, abs_scale=rhs)
            assert got.converged and math.isfinite(got.value)
            results.append((got.error, abs(got.value - rhs), rhs))
    assert _covers(results) <= 0.0


# (lo, hi, abs_tol, f, pole): a piece in sigma = log(S/s) on a s^{-1/2} pole
# (S = 2, sigma_max 25) with an absolute tolerance that would stop the others
# early, mapped by hand and declared as the pole (1, -1, 2) of (1 - t)^{-1/2},
# a smooth piece, a jump at 0.3141, an empty piece and a fast oscillation
_PIECES = {
    "sigma": (0.0, 25.0, 1e-6, lambda g: np.sqrt(2.0 * np.exp(-g)), None),
    "pole": (0.0, 25.0, 1e-6, lambda t: (1.0 - t) ** -0.5, (1.0, -1.0, 2.0)),
    "smooth": (0.0, 2.0, 0.0, lambda s: np.exp(-s) * np.cos(3.0 * s), None),
    "jump": (0.0, 1.0, 0.0, lambda s: np.where(s > 0.3141, 1.0, 0.0) + s, None),
    "empty": (0.5, 0.5, 0.0, lambda s: np.ones_like(s), None),
    "wave": (0.0, 3.0, 1e-14, lambda s: np.sin(60.0 * s), None),
}


@pytest.mark.parametrize("budget,stopped", [
    ({"max_depth": 5, "max_cells": 4096}, {"jump"}),
    ({"max_depth": 48, "max_cells": 40}, {"jump", "wave"}),
], ids=["depth", "cells"])
def test_pieces_in_lockstep_keep_their_own_results(budget, stopped):
    # depth 5 caps the jump before its budget, and 40 cells stop the jump and
    # the wave; every other piece converges, the empty one in 0 cells
    names = list(_PIECES)
    rule = dict(order=10, rel_tol=1e-12, **budget)
    calls = []

    def profile(s, piece):
        calls.append(np.unique(piece))
        out = np.empty_like(s)
        for i in np.unique(piece):
            out[piece == i] = _PIECES[names[i]][3](s[piece == i])
        return out

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pieces = [(lo, hi, tol) if pole is None else (lo, hi, tol, pole)
                  for lo, hi, tol, _, pole in _PIECES.values()]
        together = _integrate_pieces(profile, pieces, **rule)
    assert sum(issubclass(w.category, ToleranceWarning) for w in caught) == len(stopped)
    steps = 0
    for name, got in zip(names, together):
        lo, hi, abs_tol, f, pole = _PIECES[name]
        seen = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ToleranceWarning)
            alone = integrate_time_profile(lambda s: seen.append(1) or f(s), lo, hi,
                                           abs_tol=abs_tol, pole=pole, **rule)
        assert got == alone, name  # value, error, cells, converged and flags
        assert got.converged == (name not in stopped), name
        steps = max(steps, len(seen))
    assert together[names.index("empty")].cells == 0
    # int_0^2 s^{-1/2} ds cut at s = 2 e^-25
    exact = 2.0 * math.sqrt(2.0) * (1.0 - math.exp(-12.5))
    assert together[names.index("pole")].value == pytest.approx(exact, rel=1e-12)
    if budget["max_cells"] == 40:
        assert all(together[names.index(n)].cells >= 40 for n in stopped)
    else:
        assert together[names.index("jump")].cells < budget["max_cells"]
    # one profile call per step, for every piece still refining
    assert len(calls) == steps
    assert len(calls[0]) == len(names) - 1
