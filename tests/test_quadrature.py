import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erf, gammaincc
from scipy.stats import gamma as gamma_law

import kolpot as kp
from kolpot import quadrature
from kolpot.balls import Ellipsoid
from kolpot.domains import ExactBall
from kolpot.harmonic import AnisoPolynomial
from kolpot.lab import exterior_test_points, kernel_gamma_integral
from kolpot.quadrature import (
    QuadratureConfig,
    _exact_ball_profile,
    ball_rule,
    gaussian_quadratic_fullspace,
    integrate_over_ball,
    integrate_time_profile,
)
from conftest import HEAT1_R
from oracles import (
    MonomialMoments,
    gaussian_quadratic_auto,
    gaussian_quadratic_ellipsoid,
    gaussian_quadratic_tensor,
    polar_ball_rule,
    unit_ball_moment,
)


def test_unit_ball_moments_basic():
    assert unit_ball_moment((0,)) == pytest.approx(2.0)
    assert unit_ball_moment((2,)) == pytest.approx(2.0 / 3.0)
    assert unit_ball_moment((1,)) == 0.0
    assert unit_ball_moment((0, 0)) == pytest.approx(math.pi)
    assert unit_ball_moment((2, 0)) == pytest.approx(math.pi / 4.0)
    assert unit_ball_moment((0, 0, 0)) == pytest.approx(4.0 * math.pi / 3.0)


def test_moments_match_monte_carlo():
    rng = np.random.default_rng(1)
    n = 3
    m = MonomialMoments(n)
    N = 400000
    pts = rng.uniform(-1, 1, size=(N, n))
    inside = np.einsum("ij,ij->i", pts, pts) < 1.0
    for alpha in ((2, 0, 0), (2, 2, 0), (4, 0, 2), (0, 0, 0)):
        vals = np.prod(pts ** np.asarray(alpha), axis=1) * inside
        est = 2.0 ** n * float(np.mean(vals))
        sd = 2.0 ** n * float(np.std(vals) / math.sqrt(N))
        assert abs(m.moment(alpha) - est) < 4.0 * sd


def test_ball_rules_are_degree_exact():
    # every monomial through the degree, against the closed-form moments:
    # the library's rule from (degree // 2 + 1)^n nodes, and the polar
    # reference rule of the oracles for n <= 3
    for n, degree in itertools.product((1, 2, 3, 4), range(9)):
        m = MonomialMoments(n)
        rules = [ball_rule(n, degree)] + ([polar_ball_rule(n, degree)] if n <= 3 else [])
        assert rules[0][0].shape == ((degree // 2 + 1) ** n, n)
        for nodes, weights in rules:
            assert weights.shape == nodes.shape[:1]
            for alpha in itertools.product(range(degree + 1), repeat=n):
                if sum(alpha) > degree:
                    continue
                vals = np.prod(nodes ** np.asarray(alpha), axis=1)
                assert float(weights @ vals) == pytest.approx(
                    m.moment(alpha), rel=1e-12, abs=1e-14), (n, degree, alpha)


def test_kinetic_operator_mean_values_at_n4():
    # the kinetic Kolmogorov operator in R^(2+2+1) (Q = 10): mean values of
    # its degree <= 4 solutions reproduce u(z0), and the kernel integrates to
    # the radius, on balls about the origin and a translated centre
    eye = np.eye(2)
    spec = kp.validate_operator(4, [2, 2], eye, [eye])
    assert spec.Q == 10
    cfg = QuadratureConfig(time_tol=1e-9, seed=404)
    basis = kp.harmonic_basis(spec, 4)
    assert len(basis) == 21
    one = AnisoPolynomial.constant(4, 1.0)
    for center in (spec.origin(), spec.point([0.3, -0.2, 0.1, 0.4], 0.25)):
        for r in (1.0, 4.0):
            ball = kp.lball(spec, r, center)
            mass = integrate_over_ball(one, ball, cfg, kernel=True)
            assert mass.converged and mass.cells == 4
            assert abs(mass.value - r) <= 1e-14 * r
            for u in basis:
                got = kp.mean_value(u, ball, cfg)
                assert got.converged
                assert abs(got.value - u(center)) <= 1e-13 * (1.0 + abs(u(center)))


def _gauss_quad_1d_oracle(ell, mean, C, M, qc):
    norm = (4.0 * math.pi * C[0, 0]) ** -0.5
    a = math.sqrt(ell.level / ell.shape[0, 0])
    lo, hi = ell.center[0] - a, ell.center[0] + a

    def f(x):
        return norm * math.exp(-0.25 * (x - mean[0]) ** 2 / C[0, 0]) * M[0, 0] * (x - qc[0]) ** 2

    # hint the adaptive rule at the (possibly very narrow) Gaussian peak
    hints = [x for x in (mean[0] - 2 * math.sqrt(C[0, 0]), mean[0],
                         mean[0] + 2 * math.sqrt(C[0, 0])) if lo < x < hi]
    return quad(f, lo, hi, epsabs=1e-15, epsrel=1e-13, points=hints or None,
                limit=200)[0]


def test_gaussian_quadratic_1d_matches_adaptive():
    cov = kp.CovarianceModel(kp.heat_operator(1))
    M = np.array([[0.8]])
    qc = np.array([0.2])
    for delta in (1e-6, 1e-3, 0.3, 2.0):
        C = cov.C(delta)
        L = np.linalg.cholesky(C)
        for center, rho in ((0.0, 1.0), (1.2, 0.4), (-3.0, 2.0)):
            ell = Ellipsoid([center], [[1.0]], rho)
            for mx in (0.0, 0.9, 3.5):
                got = gaussian_quadratic_auto(ell, np.array([mx]), L, M, qc)
                ref = _gauss_quad_1d_oracle(ell, np.array([mx]), C, M, qc)
                assert abs(got - ref) < 1e-11 * max(1.0, abs(ref)) + 1e-13 * abs(ref)


def _gauss_quad_2d_oracle(ell, mean, C, M, qc):
    """Independent iterated oracle: erf-closed inner integral, adaptive outer."""
    norm = (4.0 * math.pi) ** -1 / math.sqrt(np.linalg.det(C))
    Ci = np.linalg.inv(C)
    Q, c, rho = ell.shape, ell.center, ell.level
    ex = ell.axis_extents()

    def inner(x):
        dx = x - c[0]
        A_, B_, C_ = Q[1, 1], 2 * Q[0, 1] * dx, Q[0, 0] * dx * dx - rho
        disc = B_ * B_ - 4 * A_ * C_
        if disc <= 0:
            return 0.0
        y1 = c[1] + (-B_ - math.sqrt(disc)) / (2 * A_)
        y2 = c[1] + (-B_ + math.sqrt(disc)) / (2 * A_)
        a = Ci[1, 1] / 4
        b = 2 * Ci[0, 1] / 4 * (x - mean[0])
        cc = Ci[0, 0] / 4 * (x - mean[0]) ** 2
        mu = -b / (2 * a)
        k = cc - b * b / (4 * a)
        sa = math.sqrt(a)
        lo = (y1 - mean[1] - mu) * sa
        hi = (y2 - mean[1] - mu) * sa
        if lo > hi:
            lo, hi = hi, lo
        elo, ehi = math.exp(-lo * lo), math.exp(-hi * hi)
        de = erf(hi) - erf(lo)
        F0 = 0.5 * math.sqrt(math.pi) * de / sa
        F1 = 0.5 * (elo - ehi) / a
        F2 = (0.5 * (lo * elo - hi * ehi) + 0.25 * math.sqrt(math.pi) * de) / (a * sa)
        X = x - qc[0]
        y0 = mean[1] + mu - qc[1]
        c2 = M[1, 1]
        c1 = 2 * M[0, 1] * X + 2 * M[1, 1] * y0
        c0 = M[0, 0] * X * X + 2 * M[0, 1] * X * y0 + M[1, 1] * y0 * y0
        return math.exp(-k) * (c0 * F0 + c1 * F1 + c2 * F2)

    xlo, xhi = c[0] - ex[0], c[0] + ex[0]
    sx = math.sqrt(2 * C[0, 0])
    xlo = max(xlo, mean[0] - 14 * sx)
    xhi = min(xhi, mean[0] + 14 * sx)
    if xhi <= xlo:
        return 0.0
    hints = [mean[0] + k * sx for k in (-3, -1, 0, 1, 3)]
    hints = [x for x in hints if xlo < x < xhi]
    val, _ = quad(inner, xlo, xhi, epsabs=1e-16, epsrel=1e-13, limit=800,
                  points=hints or None)
    return norm * val


def test_gaussian_engine_2d_against_iterated_oracle(proto):
    cov = kp.CovarianceModel(proto)
    ball = kp.lball(proto, 2.0 * math.pi / math.sqrt(3.0))
    M = np.array([[2.0, 0.5], [0.5, 1.0]])
    qc = np.array([0.05, 0.1])
    worst = 0.0
    for s_frac in (0.2, 0.6, 0.9):
        sl = ball.slice_at(s_frac * ball.s_max)
        ell = Ellipsoid(np.zeros(2), sl.shape, sl.level)
        ex = ell.axis_extents()
        for delta in (1e-4, 0.02, 0.2, 0.8):
            C = cov.C(delta)
            L = np.linalg.cholesky(C)
            for mean in (np.zeros(2), np.array([0.4, -0.2]), 0.97 * ex, 1.3 * ex):
                t = gaussian_quadratic_auto(ell, mean, L, M, qc)
                ref = _gauss_quad_2d_oracle(ell, mean, C, M, qc)
                scale = max(abs(ref), 1e-6)
                worst = max(worst, abs(t - ref) / scale)
    assert worst < 1e-6


def test_gaussian_polar_agrees_center_inside(proto):
    # the polar rule is an independent derivation; it converges spectrally
    # when the Gaussian center lies inside the domain
    cov = kp.CovarianceModel(proto)
    ball = kp.lball(proto, 2.0 * math.pi / math.sqrt(3.0))
    M = np.array([[2.0, 0.5], [0.5, 1.0]])
    qc = np.array([0.05, 0.1])
    sl = ball.slice_at(0.6 * ball.s_max)
    ell = Ellipsoid(np.zeros(2), sl.shape, sl.level)
    for delta in (0.2, 0.8):
        L = np.linalg.cholesky(cov.C(delta))
        t = gaussian_quadratic_tensor(ell, np.zeros(2), L, M, qc)
        p = gaussian_quadratic_ellipsoid(ell, np.zeros(2), L, M, qc, resolution=720)
        assert t == pytest.approx(p, rel=5e-9)


def test_gaussian_fullspace_limit(proto):
    # a tiny covariance deep inside a slice reproduces the full-space moment
    cov = kp.CovarianceModel(proto)
    ball = kp.lball(proto, 2.0 * math.pi / math.sqrt(3.0))
    sl = ball.slice_at(0.5 * ball.s_max)
    ell = Ellipsoid(np.zeros(2), sl.shape, sl.level)
    M = np.eye(2)
    qc = np.array([0.05, 0.1])
    C = cov.C(1e-9)
    L = np.linalg.cholesky(C)
    got = gaussian_quadratic_auto(ell, np.zeros(2), L, M, qc)
    ref = gaussian_quadratic_fullspace(np.zeros(2), 2.0 * C, M, qc)
    assert got == pytest.approx(ref, rel=1e-10)


def test_gaussian_far_outside_is_zero(proto):
    cov = kp.CovarianceModel(proto)
    ball = kp.lball(proto, 2.0 * math.pi / math.sqrt(3.0))
    sl = ball.slice_at(0.5 * ball.s_max)
    ell = Ellipsoid(np.zeros(2), sl.shape, sl.level)
    L = np.linalg.cholesky(cov.C(1e-4))
    got = gaussian_quadratic_auto(ell, np.array([50.0, 50.0]), L, np.eye(2), np.zeros(2))
    assert got == 0.0


def test_time_profile_integrates_endpoint_singularity():
    # s^{-1/2} log-type integrable blow-up toward s = 0, smooth elsewhere
    def profile(s):
        s = np.asarray(s)
        return 1.0 / np.sqrt(s) + np.cos(s)

    res = integrate_time_profile(profile, 0.0, 1.0, rel_tol=1e-11)
    expected = 2.0 + math.sin(1.0)
    assert res.converged
    assert res.value == pytest.approx(expected, rel=1e-10)


def test_time_profile_flags_budget_exhaustion():
    def profile(s):
        s = np.asarray(s)
        return 1.0 / np.sqrt(np.abs(s - 0.37) + 1e-300)  # interior singularity

    with pytest.warns(kp.errors.ToleranceWarning):
        res = integrate_time_profile(profile, 0.0, 1.0, rel_tol=1e-13,
                                     max_depth=8, max_cells=64)
    assert not res.converged
    assert "tolerance_not_met" in res.flags


def _time_rule_scan_reference(profile, lo, hi, order, rel_tol, max_depth, max_cells):
    """The refinement loop as a whole-heap scan per step (O(cells^2)), one
    profile call per cell, with QUADPACK's error model written out per cell."""
    import heapq

    from kolpot.quadrature import _gauss_kronrod

    H = 0.5 * (hi - lo)
    xk, wk, wg = _gauss_kronrod(order)

    def eval_cell(side, a, b):
        w = a + (b - a) * xk
        s = lo + H * w ** 2 if side == 0 else hi - H * w ** 2
        vals = np.asarray(profile(s)) * (2.0 * H * w * (b - a))
        kronrod = float(wk @ vals)
        gauss = float(wg @ vals[1::2])
        resasc = float(wk @ np.abs(vals - kronrod))
        err = abs(kronrod - gauss)
        if resasc != 0.0:
            err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
        return kronrod, err

    heap, counter, total, total_err, ncells = [], 0, 0.0, 0.0, 0
    for side in (0, 1):
        for k in range(2):
            val, err = eval_cell(side, k / 2, (k + 1) / 2)
            heapq.heappush(heap, (-err, counter, side, k / 2, (k + 1) / 2, 1, val, err))
            counter += 1
            total += val
            total_err += err
            ncells += 1
    converged = True
    while total_err > rel_tol * abs(total):
        refinable = [c for c in heap if c[5] < max_depth]
        if not refinable or ncells >= max_cells:
            converged = False
            break
        worst = min(refinable)
        heap.remove(worst)
        heapq.heapify(heap)
        _, _, side, a, b, depth, val, err = worst
        total -= val
        total_err -= err
        mid = 0.5 * (a + b)
        for aa, bb in ((a, mid), (mid, b)):
            v, e = eval_cell(side, aa, bb)
            heapq.heappush(heap, (-e, counter, side, aa, bb, depth + 1, v, e))
            counter += 1
            total += v
            total_err += e
            ncells += 1
    return total, total_err, ncells, converged


@pytest.mark.filterwarnings("ignore::kolpot.errors.ToleranceWarning")
@pytest.mark.parametrize("max_depth,max_cells", [(48, 4096), (6, 4096), (30, 60)])
def test_time_profile_refinement_order_matches_scan_reference(max_depth, max_cells):
    # converged, depth-capped and cell-capped runs must all be bit-identical,
    # for the default pair G10/K21 and for G3/K7
    def profile(s):
        s = np.asarray(s)
        return 1.0 / np.sqrt(np.abs(s - 0.37) + 1e-12) + np.log(s + 1e-300) ** 2

    for order in (10, 3):
        kw = dict(order=order, rel_tol=1e-10, max_depth=max_depth, max_cells=max_cells)
        res = integrate_time_profile(profile, 0.0, 1.0, **kw)
        ref = _time_rule_scan_reference(profile, 0.0, 1.0, **kw)
        assert (res.value, res.error, res.cells, res.converged) == ref, order


@pytest.mark.filterwarnings("ignore::kolpot.errors.ToleranceWarning")
@pytest.mark.parametrize("order", [10, 16, 1])
def test_time_profile_calls_once_per_refinement_step(order):
    # the 4 initial cells in the first call, then the two halves of each split
    calls = []

    def profile(s):
        calls.append(np.size(s))
        return 1.0 / np.sqrt(np.abs(s - 0.37) + 1e-12)

    res = integrate_time_profile(profile, 0.0, 1.0, order=order, rel_tol=1e-10, max_cells=60)
    cell = 2 * order + 1
    assert calls[0] == 4 * cell
    assert calls[1:] == [2 * cell] * (len(calls) - 1)
    assert res.cells == 4 + 2 * (len(calls) - 1) and len(calls) > 1


def test_kernel_integral_equals_radius(balls, quad_cfg):
    # integrating the bare kernel over the ball returns exactly the radius
    for name, ball in balls.items():
        one = AnisoPolynomial.constant(ball.spec.n, 1.0)
        res = integrate_over_ball(one, ball, quad_cfg, kernel=True)
        assert abs(res.value - ball.r) < 1e-7 * ball.r, name


@pytest.mark.parametrize("f", [lambda x, t: 1.0, {(0,): 1.0}], ids=["callable", "dict"])
def test_ball_integrals_take_only_polynomials(balls, quad_cfg, f):
    # a plain callable or a {multi-index: coefficient} dict has no exact path
    ball = balls["heat1"]
    with pytest.raises(TypeError, match="AnisoPolynomial"):
        integrate_over_ball(f, ball, quad_cfg, kernel=True)
    with pytest.raises(TypeError, match="AnisoPolynomial"):
        kp.mean_value(f, ball, quad_cfg)


def _inside(ball, pts):
    """r Gamma(z0, z) > 1 for the rows (x, t) of pts, in one numpy pass.

    Gamma(z0, z) = gamma(z^-1 o z0) = gamma(x0 - E(tau) x, tau), tau = t0 - t,
    with C(tau)^-1 = D(tau^-1/2) C(1)^-1 D(tau^-1/2)."""
    spec, ev = ball.spec, ball.ev
    x, tau = pts[:, :-1], ball.z0.t - pts[:, -1]
    live = tau > 0.0
    tau = np.where(live, tau, 1.0)
    E = sum((-tau) ** k / math.factorial(k) * Bk[:, :, None]
            for k, Bk in enumerate(spec.B_powers)).transpose(2, 0, 1)
    u = (ball.z0.x - np.einsum("kij,kj->ki", E, x)) * tau[:, None] ** -ev.cov.half_weights
    q = np.einsum("ki,ij,kj->k", u, ev.cov.C_inverse(1.0), u)
    gamma = ev.norm / np.sqrt(ev.cov.detC(tau)) * np.exp(-0.25 * q)
    return live & (ball.r * gamma > 1.0)


def test_ball_volume_against_rejection_mc(balls, quad_cfg):
    # exact slice-volume time integral vs rejection sampling in the box
    for name in ("heat1", "proto"):
        ball = balls[name]
        one = AnisoPolynomial.constant(ball.spec.n, 1.0)
        vol = integrate_over_ball(one, ball, quad_cfg, kernel=False).value
        lo, hi = kp.ball_bounding_box(ball)
        rng = np.random.default_rng(555)
        N = 200000
        pts = lo + (hi - lo) * rng.random((N, ball.spec.n + 1))
        inside = _inside(ball, pts)
        # the batched rule is the scalar one
        assert [bool(b) for b in inside[:2000]] == [
            ball.contains(ball.spec.point(p[:-1], p[-1])) for p in pts[:2000]]
        hits = int(np.count_nonzero(inside))
        box_vol = float(np.prod(hi - lo))
        est = box_vol * hits / N
        sd = box_vol * math.sqrt(hits) / N
        assert abs(vol - est) < 3.0 * sd


def _sigma_max(ball, monkeypatch):
    """The upper limit of the exact path's time rule, read from the call."""
    seen = []

    def spy(profile, lo, hi, **kw):
        seen.append((lo, hi))
        return integrate_time_profile(profile, lo, hi, **kw)

    monkeypatch.setattr(quadrature, "integrate_time_profile", spy)
    integrate_over_ball(AnisoPolynomial.constant(ball.spec.n, 1.0), ball,
                        QuadratureConfig(), kernel=True)
    monkeypatch.undo()
    assert len(seen) == 1 and seen[0][0] == 0.0
    return seen[0][1]


@pytest.mark.parametrize("op", ["heat1", "heat2", "proto", "chain"])
def test_sigma_rule_leaves_a_negligible_kernel_tail(balls, op, monkeypatch):
    # in sigma = log(s_max/s) the kernel mass of a slice, s times the s-profile,
    # is r times the Gamma(n/2 + 2) density of rate (Q - 2)/2, so the mass the
    # rule leaves past sigma_max is r gammaincc(n/2 + 2, (Q - 2) sigma_max / 2)
    ball = balls[op]
    n, Q = ball.spec.n, ball.spec.Q
    sigma_max = _sigma_max(ball, monkeypatch)
    assert gammaincc(n / 2 + 2, (Q - 2) * sigma_max / 2) <= 1e-17
    profile = _exact_ball_profile(AnisoPolynomial.constant(n, 1.0), ball, kernel=True)
    sigma = np.array([0.01, 0.3, 1.0, 3.0, 10.0, 30.0]) * 2 / (Q - 2)
    s = ball.s_max * np.exp(-sigma)
    law = ball.r * gamma_law.pdf(sigma, n / 2 + 2, scale=2 / (Q - 2))
    assert np.max(np.abs(profile(s) * s / law - 1.0)) < 1e-12


@pytest.mark.parametrize("op", ["heat1", "heat2"])
def test_sigma_rule_on_criterion_4_balls(all_specs, evaluators, op):
    # the balls and centres of criterion 4: mean values of the degree <= 4
    # basis on origin and translated balls of radius 2^k r.  In sigma the
    # pole's log factor needs no geometric refinement, so few cells suffice
    # and only rounding is left
    rng = np.random.default_rng(404)
    translate = {name: all_specs[name].point(0.5 * rng.standard_normal(all_specs[name].n),
                                             rng.uniform(-0.5, 0.5))
                 for name in ("heat1", "heat2")}  # criterion 4's draws, in its order
    spec, cfg = all_specs[op], QuadratureConfig(time_tol=1e-9, seed=404)
    base = {"heat1": HEAT1_R, "heat2": 4.0}[op]
    cells, worst = [], {}
    for center in (spec.origin(), translate[op]):
        for k in (-3, -1, 0, 2, 4):
            ball = kp.lball(spec, base * 2.0 ** k, center, evaluators[op])
            for u in kp.harmonic_basis(spec, 4):
                got = kp.lab.mean_value(u, ball, cfg)
                assert got.converged
                cells.append(got.cells)
                dev = abs(got.value - u(center)) / (1.0 + abs(u(center)))
                worst[k] = max(worst.get(k, 0.0), dev)
    assert np.mean(cells) <= 12
    assert max(worst[k] for k in (-3, -1, 0, 2)) <= 1e-13
    # at k = 4 (s_max = 256 for heat1) the degree-4 element reaches about 8e5
    # on the ball, and rounding alone leaves 2e-12 of it in a mean value of 0
    # (a time_tol of 1e-14 only refines noise, to the cell budget, and leaves 3e-12)
    assert worst[4] <= 1e-11


def test_kernel_integral_depth_cap_binds_and_keeps_its_error(balls):
    # In sigma the exterior potential of criterion 6 converges at depth 2, so
    # the default endpoint_depth (48) never binds and gives the bits of depth
    # 2.  At depth 1 the cap binds: the 4 initial cells cannot split, the
    # integral is flagged, and its reported error still covers its residual
    ball = balls["heat1"]
    domain = ExactBall(ball)
    z = next(z for z, cat in exterior_test_points(domain, ball, 16, seed=7) if cat == "below")
    rhs = ball.r * ball.gamma_from_center(z)

    def potential(depth):
        cfg = QuadratureConfig(time_tol=1e-11, endpoint_depth=depth)
        return kernel_gamma_integral(domain, ball, z, cfg, abs_scale=rhs)

    with pytest.warns(kp.errors.ToleranceWarning):
        capped = potential(1)
    assert capped.cells == 4 and not capped.converged
    assert capped.flags == ("tolerance_not_met",)
    assert abs(capped.value - rhs) <= capped.error
    free, default = potential(2), potential(48)
    assert free.converged and free.cells > 4
    assert (free.value, free.error, free.cells) == (default.value, default.error, default.cells)
    assert abs(free.value - rhs) <= 1e-13 * rhs


def test_cached_rule_arrays_are_read_only():
    # the rule caches hand the same arrays to every caller, and a whole-chord
    # rule's share of the level left comes back as the cached array itself
    rules = (quadrature._leggauss01(8), quadrature._chord_rule(8, True),
             quadrature._chord_rule(16, False), quadrature._w1_rule(8),
             quadrature._gauss_kronrod(10), quadrature.ball_rule(3, 4),
             quadrature._chord_nodes(np.zeros(2), np.ones(2), 8, True)[2:])
    for rule in rules:
        for a in rule:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0.0
