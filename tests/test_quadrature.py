import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erf

import kolpot as kp
from kolpot.balls import Ellipsoid
from kolpot.harmonic import AnisoPolynomial
from kolpot.quadrature import (
    MCSampler,
    MonomialMoments,
    QuadratureConfig,
    ball_rule,
    ellipsoid_polynomial_integral,
    ellipsoid_quadratic_integral,
    gaussian_quadratic_auto,
    gaussian_quadratic_fullspace,
    gaussian_quadratic_tensor,
    integrate_over_ball,
    integrate_time_profile,
    mc_sample_ball,
    unit_ball_moment,
)
from oracles import gaussian_quadratic_ellipsoid


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
    rng = np.random.default_rng(4)
    for n in (1, 2, 3):
        for degree in (2, 5, 8):
            nodes, weights = ball_rule(n, degree)
            m = MonomialMoments(n)
            for _ in range(10):
                alpha = tuple(rng.integers(0, degree + 1, n))
                if sum(alpha) > degree:
                    continue
                vals = np.prod(nodes ** np.asarray(alpha), axis=1)
                assert float(weights @ vals) == pytest.approx(
                    m.moment(alpha), rel=1e-12, abs=1e-14)


def test_ellipsoid_polynomial_integrals():
    e1 = Ellipsoid([0.0], [[1.0]], 1.0)
    assert ellipsoid_polynomial_integral({(0,): 1.0}, e1) == pytest.approx(2.0)
    assert ellipsoid_polynomial_integral({(2,): 1.0}, e1) == pytest.approx(2.0 / 3.0)
    # x^2 over the ellipse x^2/4 + y^2 < 1 equals 2 pi
    e2 = Ellipsoid([0.0, 0.0], np.diag([0.25, 1.0]), 1.0)
    assert ellipsoid_polynomial_integral({(2, 0): 1.0}, e2) == pytest.approx(2.0 * math.pi)
    # shifted ellipsoid: int (x - c) over it vanishes, int 1 gives the volume
    e3 = Ellipsoid([2.0, -1.0], np.array([[2.0, 0.3], [0.3, 1.0]]), 1.5)
    vol = e3.volume()
    assert ellipsoid_polynomial_integral({(0, 0): 1.0}, e3) == pytest.approx(vol, rel=1e-12)
    got = ellipsoid_polynomial_integral({(1, 0): 1.0}, e3)
    assert got == pytest.approx(2.0 * vol, rel=1e-12)


def test_quadratic_closed_form_matches_moments():
    rng = np.random.default_rng(8)
    for n in (1, 2, 3):
        A = rng.standard_normal((n, n))
        Mq = A @ A.T + 0.1 * np.eye(n)
        shape = np.eye(n) + 0.2 * np.ones((n, n))
        ell = Ellipsoid(rng.standard_normal(n), shape, 1.7)
        qc = rng.standard_normal(n)
        got = ellipsoid_quadratic_integral(ell, Mq, q_center=qc)
        poly = {}
        for i in range(n):
            for j in range(n):
                key = tuple((1 if k == i else 0) + (1 if k == j else 0) for k in range(n))
                poly[key] = poly.get(key, 0.0) + Mq[i, j]
            key = tuple(1 if k == i else 0 for k in range(n))
            poly[key] = poly.get(key, 0.0) - 2.0 * float(Mq[i] @ qc)
        poly[tuple([0] * n)] = poly.get(tuple([0] * n), 0.0) + float(qc @ Mq @ qc)
        ref = ellipsoid_polynomial_integral(poly, ell)
        assert got == pytest.approx(ref, rel=1e-12)


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
    """The refinement loop as a whole-heap scan per step (O(cells^2))."""
    import heapq

    from kolpot.quadrature import _gl_pair

    H = 0.5 * (hi - lo)
    xs1, ws1, xs2, ws2 = _gl_pair(order)

    def eval_cell(side, a, b):
        w = np.concatenate([a + (b - a) * xs1, a + (b - a) * xs2])
        s = lo + H * w ** 2 if side == 0 else hi - H * w ** 2
        vals = np.asarray(profile(s)) * (2.0 * H * w * (b - a))
        i_hi = float(ws1 @ vals[: xs1.size])
        return i_hi, abs(i_hi - float(ws2 @ vals[xs1.size:]))

    heap, counter, total, total_err, ncells = [], 0, 0.0, 0.0, 0
    for side in (0, 1):
        for k in range(4):
            val, err = eval_cell(side, k / 4, (k + 1) / 4)
            heapq.heappush(heap, (-err, counter, side, k / 4, (k + 1) / 4, 1, val, err))
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
    # converged, depth-capped and cell-capped runs must all be bit-identical
    def profile(s):
        s = np.asarray(s)
        return 1.0 / np.sqrt(np.abs(s - 0.37) + 1e-12) + np.log(s + 1e-300) ** 2

    kw = dict(order=16, rel_tol=1e-10, max_depth=max_depth, max_cells=max_cells)
    res = integrate_time_profile(profile, 0.0, 1.0, **kw)
    ref = _time_rule_scan_reference(profile, 0.0, 1.0, **kw)
    assert (res.value, res.error, res.cells, res.converged) == ref


@pytest.mark.filterwarnings("ignore::kolpot.errors.ToleranceWarning")
@pytest.mark.parametrize("order", [16, 10])
def test_time_profile_calls_once_per_refinement_step(order):
    # the 8 initial cells in the first call, then the two halves of each split
    calls = []

    def profile(s):
        calls.append(np.size(s))
        return 1.0 / np.sqrt(np.abs(s - 0.37) + 1e-12)

    res = integrate_time_profile(profile, 0.0, 1.0, order=order, rel_tol=1e-10, max_cells=60)
    cell = order + order // 2
    assert calls[0] == 8 * cell
    assert calls[1:] == [2 * cell] * (len(calls) - 1)
    assert res.cells == 8 + 2 * (len(calls) - 1) and len(calls) > 1


def test_kernel_integral_equals_radius(balls, quad_cfg):
    # integrating the bare kernel over the ball returns exactly the radius
    for name, ball in balls.items():
        one = AnisoPolynomial.constant(ball.spec.n, 1.0)
        res = integrate_over_ball(one, ball, quad_cfg, kernel=True)
        assert abs(res.value - ball.r) < 1e-7 * ball.r, name


@pytest.mark.parametrize("kernel", [False, True])
def test_dict_polynomial_matches_aniso_polynomial(balls, quad_cfg, kernel):
    # a {multi-index: coefficient} dict is the t-free AnisoPolynomial
    ball = balls["proto"]
    terms = {(0, 0): 1.0, (2, 0): 0.5, (1, 1): -0.3, (0, 3): 0.2}
    upoly = AnisoPolynomial(2, {(alpha, 0): c for alpha, c in terms.items()})
    got = integrate_over_ball(terms, ball, quad_cfg, kernel=kernel)
    ref = integrate_over_ball(upoly, ball, quad_cfg, kernel=kernel)
    assert got.value == ref.value and got.error == ref.error and got.cells == ref.cells


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


def test_mc_sampler_deterministic(balls):
    ball = balls["proto"]
    s1 = mc_sample_ball(ball, 500, seed=101)
    s2 = mc_sample_ball(ball, 500, seed=101)
    for a, b in zip(s1, s2):
        assert np.array_equal(a.x, b.x) and a.t == b.t
    s3 = mc_sample_ball(ball, 500, seed=102)
    assert any(not np.array_equal(a.x, c.x) for a, c in zip(s1, s3))


def test_mc_samples_inside_and_marginal(balls):
    ball = balls["heat1"]
    pts = mc_sample_ball(ball, 20000, seed=7)
    for z in pts[:2000]:
        assert ball.contains(z)
    # Kolmogorov-Smirnov distance of the time marginal against the
    # slice-volume law
    sampler = MCSampler(ball)
    depths = np.sort(np.array([ball.z0.t - z.t for z in pts]))
    w = np.sqrt(depths / ball.s_max)
    cdf_tab = np.interp(w, sampler.w_grid, sampler.vol_cdf / sampler.vol_cdf[-1])
    emp = np.arange(1, depths.size + 1) / depths.size
    ks = float(np.max(np.abs(emp - cdf_tab)))
    assert ks < 0.01


def test_mc_worker_count_invariance(balls):
    ball = balls["proto"]
    sampler = MCSampler(ball)
    X1, s1, p1 = sampler.sample(3000, seed=99, kernel=True, workers=1)
    X2, s2, p2 = sampler.sample(3000, seed=99, kernel=True, workers=3)
    assert np.array_equal(X1, X2) and np.array_equal(s1, s2) and np.array_equal(p1, p2)


def test_mc_path_agrees_with_exact_kernel_integral(balls):
    # kernel-importance Monte Carlo of u w against the exact path, u smooth
    ball = balls["heat1"]
    cfg = QuadratureConfig(time_tol=1e-9, mc_samples=60000, seed=31337)

    def u(x, t):
        return 1.0 + 0.5 * float(x[0]) + 0.1 * float(x[0]) ** 2 + 0.2 * float(t)

    mc = integrate_over_ball(u, ball, cfg, kernel=True)
    upoly = AnisoPolynomial(1, {((0,), 0): 1.0, ((1,), 0): 0.5,
                                ((2,), 0): 0.1, ((0,), 1): 0.2})
    exact = integrate_over_ball(upoly, ball, cfg, kernel=True)
    assert abs(mc.value - exact.value) < 4.0 * mc.error
    assert mc.error < 0.01 * abs(exact.value)


def test_mc_path_bare_kernel(balls):
    # sampling from the kernel marginal makes the f = W estimate nearly exact
    ball = balls["heat1"]
    cfg = QuadratureConfig(time_tol=1e-9, mc_samples=30000, seed=2718)
    mc = integrate_over_ball(lambda x, t: 1.0, ball, cfg, kernel=True)
    assert abs(mc.value - ball.r) < 4.0 * max(mc.error, 1e-12) + 1e-4 * ball.r


def test_kernel_integral_stable_under_floor_halving(balls):
    # deepening the dyadic endpoint refinement moves the kernel integral by
    # less than 1e-8 r: the endpoint blow-up is integrable and resolved
    ball = balls["heat1"]
    one = AnisoPolynomial.constant(1, 1.0)
    vals = []
    for depth in (40, 48):
        cfg = QuadratureConfig(time_tol=1e-11, endpoint_depth=depth, seed=1)
        vals.append(integrate_over_ball(one, ball, cfg, kernel=True).value)
    assert abs(vals[1] - vals[0]) < 1e-8 * ball.r
