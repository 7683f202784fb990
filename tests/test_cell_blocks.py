"""Profiles carry any number of time cells per call, in bounded blocks.

``integrate_time_profile`` asks for all the cells of a refinement step in one
profile call (84 nodes for the 4 initial cells of the default G10/K21 pair).  The stacked
kernels behind the profiles work through such a call in blocks no larger than
one cell, so a call over many cells must give the bits of the same cells
called one at a time, and must not hold much more memory than one cell does.
"""

import tracemalloc

import numpy as np
import pytest

import kolpot as kp
from kolpot.domains import ExactBall, make_perturbation
from kolpot.lab import _kernel_gamma_profile, _lp_profile, exterior_test_points
from kolpot.quadrature import _CELL, _exact_ball_profile, _sigma_end, integrate_time_profile


def _first_call(lo, hi, pole=None):
    """The times of the time rule's first profile call over (lo, hi): 4 cells of 21."""
    seen = []

    def profile(s):
        seen.append(np.array(s))
        return np.zeros(np.size(s))

    integrate_time_profile(profile, lo, hi, pole=pole)
    assert seen[0].size == 4 * _CELL == 84
    return seen[0]


def _first_pole_call(Q, pole):
    """The times of the first profile call of a time rule run in sigma toward ``pole``."""
    return _first_call(0.0, _sigma_end(Q), pole)


def _by_cells(profile, tau):
    return np.concatenate([profile(tau[a:a + _CELL]) for a in range(0, tau.size, _CELL)])


def _lp_case(ball, kind, p):
    domain = make_perturbation(ball, kind, 0.1)
    lo = min(domain.time_interval[0], ball.time_interval[0])
    hi = max(domain.time_interval[1], ball.time_interval[1])
    return _lp_profile(domain, ball, p), _first_call(lo, hi - 1e-5 * (hi - lo))


def _kernel_case(ball):
    domain = ExactBall(ball)
    z = next(z for z, cat in exterior_test_points(domain, ball, 4, seed=7) if cat == "below")
    lo, hi = domain.time_interval
    return _kernel_gamma_profile(domain, ball, z), _first_pole_call(
        ball.spec.Q, (hi, -1.0, hi - max(lo, z.t)))


@pytest.mark.parametrize("kind,p", [("spatial_shift", 3.5), ("radius_mismatch", 4)])
def test_lp_profile_blocks_keep_bits(balls, kind, p):
    # the masked and wide rules at p = 3.5 on the shifted ball, exact cubature at p = 4
    profile, tau = _lp_case(balls["proto"], kind, p)
    got = profile(tau)
    assert np.count_nonzero(got) > 50
    assert np.array_equal(got, _by_cells(profile, tau))


def test_exact_ball_profile_blocks_keep_bits(balls):
    ball = balls["chain"]
    u = [f for f in kp.harmonic_basis(ball.spec, 4) if f.space_degree == 4][0]
    profile = _exact_ball_profile(u, ball, kernel=True)
    tau = _first_pole_call(ball.spec.Q, (0.0, 1.0, ball.s_max))
    got = profile(tau)
    assert np.all(got != 0.0)
    assert np.array_equal(got, _by_cells(profile, tau))


@pytest.mark.parametrize("op", ["heat1", "heat2", "proto", "chain"])
def test_kernel_gamma_profile_blocks_keep_bits(balls, op):
    profile, tau = _kernel_case(balls[op])
    got, ref = profile(tau), _by_cells(profile, tau)
    assert np.count_nonzero(got) > 50
    assert np.array_equal(got, ref)


def _peak(profile, tau):
    profile(tau)  # warm the caches (rules, the Gauss-Legendre tables)
    tracemalloc.start()
    try:
        profile(tau)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("case", ["lp_shift", "lp_exact", "kernel_chain"])
def test_many_cell_call_stays_within_one_cell_working_set(balls, case):
    bound = 1.3
    if case == "lp_shift":
        profile, tau = _lp_case(balls["proto"], "spatial_shift", 3.5)
    elif case == "lp_exact":
        # integer p on a nested perturbation: the exact cubature path.  Its
        # one-cell working set is small (about 0.1 MB), so the geometry a
        # call holds for all its nodes (both slice stacks and the one kernel
        # per live node) shows: 1.13x at 84 nodes and 1.34x at 192, against
        # 7.6x at 192 with every slice mapped at once
        profile, tau = _lp_case(balls["proto"], "radius_mismatch", 4)
        bound = 1.4
    else:
        profile, tau = _kernel_case(balls["chain"])
    assert _peak(profile, tau) <= bound * _peak(profile, tau[-_CELL:])
