"""Test-only oracles and references for the Gaussian x quadratic slice integrals.

* The polar rule ``gaussian_quadratic_ellipsoid``: an independent derivation,
  radially exact through incomplete gamma functions, spectrally convergent
  when the Gaussian center lies inside the slice.
* The pointwise reference engine (``reference_gaussian_quadratic_auto``):
  the one-slice-per-call normal-aligned tensor rule that evaluates the
  quadratic at every Gauss-Legendre node, as the library did before its
  engine was stacked, with nodes and sections formed as offsets from the
  slice centre, so it holds its digits on thin slices near the pole.
* The one-slice calls into the stacked engine, ``gaussian_quadratic_auto``
  (``gaussian_quadratic_stack`` on one slice) and ``gaussian_quadratic_tensor``
  (its tensor rule, unclassified).
* The per-node reference of the kernel-weighted Gamma profile
  (``reference_kernel_gamma_profile``), which builds each domain's signed
  slices per node from ``LBall.slice_at`` and ``LBall.slice_center``.
* The per-node reference of the L^p gluing profile (``reference_lp_profile``),
  the library's profile before it was stacked: one ellipsoid at a time, each
  node classified on its own (``reference_lp_class``: nested, apart or
  overlapping), the polar rule where the slices nest or lie apart at integer
  p, and elsewhere a Monte Carlo symmetric difference that only reads +1
  slices (correct for every family except the bitten ball at non-integer p).
* ``ball_cubature_kernel_gamma``: one slice of the kernel-weighted Gamma
  profile of an exact ball by a degree-exact unit-ball cubature, with every
  offset formed from the slice centre.
* ``reference_W_quadratic``: the kernel matrix C^{-1} A C^{-1} / 4 from the
  covariance inverse at t, without the kernel's own homogeneity scaling.
* ``reference_holds``: signed-slice membership as ``SignedSliceStack.holds``
  computed it before its count became one bincount: a three-operand einsum
  and an unbuffered ``np.add.at`` over the rows.
* ``two_floor_lp_check``: the L^p gluing certificate as ``lp_condition_norm``
  decided it before its integral was split tail first: two integrals in tau
  over the whole span, to the 1e-5 and the 1e-7 floor, compared.
* ``unit_ball_moment`` and ``MonomialMoments``: closed-form monomial moments
  of the unit ball, the reference for the degree-exact ``ball_rule``.
* ``polar_ball_rule``: the polar (n = 2) and spherical (n = 3) product rules
  on the unit ball, an independent degree-exact rule for the references that
  integrate polynomials over slices.
"""

from __future__ import annotations

import math
import warnings
from functools import lru_cache

import numpy as np
from scipy.special import gammainc, gammaincc, ndtri

from kolpot.balls import Ellipsoid
from kolpot.domains import (
    BittenBall,
    ExactBall,
    RadiusMismatchBall,
    ScaledBall,
    ShiftedBall,
    TimeShiftedBall,
)
from kolpot.errors import SliceOutOfRange, ToleranceWarning
from kolpot.lab import _lp_profile
from kolpot.operators import transport_matrix
from kolpot.quadrature import (
    _WINDOW,
    _erf_moments,
    _gauss_tensor_stack,
    _leggauss01,
    _tail_gl,
    gaussian_quadratic_fullspace,
    gaussian_quadratic_stack,
    integrate_time_profile,
)


# ---------------------------------------------------------------------------
# unit-ball monomial moments
# ---------------------------------------------------------------------------


def unit_ball_moment(alpha: tuple[int, ...]) -> float:
    """int_{|u|<1} u^alpha du; zero unless every exponent is even."""
    if any(a % 2 for a in alpha):
        return 0.0
    n = len(alpha)
    num = 1.0
    for a in alpha:
        num *= math.gamma((a + 1) / 2.0)
    return num / math.gamma((sum(alpha) + n) / 2.0 + 1.0)


class MonomialMoments:
    """Cached unit-ball monomial moments in a fixed dimension."""

    def __init__(self, n: int):
        self.n = n
        self._cache: dict[tuple[int, ...], float] = {}

    def moment(self, alpha) -> float:
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != self.n:
            raise ValueError(f"multi-index length {len(alpha)} != dimension {self.n}")
        try:
            return self._cache[alpha]
        except KeyError:
            m = unit_ball_moment(alpha)
            self._cache[alpha] = m
            return m


@lru_cache(maxsize=None)
def polar_ball_rule(n: int, degree: int):
    """Product rule on the unit ball of R^n (n <= 3) exact for polynomials <= degree.

    Gauss-Legendre for n = 1; for n = 2 and 3 a Gauss-Legendre radial rule
    times equispaced angles (the trapezoid rule is exact for trigonometric
    polynomials) and, in R^3, Gauss-Legendre in cos(phi).  For n = 2 and 3 it
    shares no nodes with the Gauss-Jacobi recursion of ``ball_rule``, so the
    references that integrate over slices with it check that rule
    independently.
    """
    degree = max(int(degree), 0)
    if n == 1:
        x, w = np.polynomial.legendre.leggauss(degree // 2 + 1)
        return x[:, None], w
    r, wr = _leggauss01(degree // 2 + 2)
    ntheta = degree + 2
    theta = 2.0 * math.pi * (np.arange(ntheta) + 0.5) / ntheta
    wtheta = np.full(ntheta, 2.0 * math.pi / ntheta)
    if n == 2:
        R, T = np.meshgrid(r, theta, indexing="ij")
        nodes = np.stack([(R * np.cos(T)).ravel(), (R * np.sin(T)).ravel()], axis=1)
        return nodes, np.outer(wr * r, wtheta).ravel()
    if n != 3:
        raise ValueError(f"polar_ball_rule covers n <= 3, not n = {n}")
    mu, wmu = np.polynomial.legendre.leggauss(degree // 2 + 1)
    R, MU, T = np.meshgrid(r, mu, theta, indexing="ij")
    sin_phi = np.sqrt(1.0 - MU ** 2)
    nodes = np.stack([(R * sin_phi * np.cos(T)).ravel(), (R * sin_phi * np.sin(T)).ravel(),
                      (R * MU).ravel()], axis=1)
    return nodes, np.einsum("i,j,k->ijk", wr * r ** 2, wmu, wtheta).ravel()


# ---------------------------------------------------------------------------
# polar rule
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def sphere_rule(n: int, resolution: int):
    """Direction nodes and surface weights on S^{n-1} for the polar engine."""
    if n == 1:
        omega = np.array([[1.0], [-1.0]])
        w = np.array([1.0, 1.0])
    elif n == 2:
        m = max(resolution, 8)
        theta = 2.0 * math.pi * (np.arange(m) + 0.5) / m
        omega = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        w = np.full(m, 2.0 * math.pi / m)
    elif n == 3:
        mphi = max(resolution // 2, 6)
        mtheta = max(resolution, 12)
        mu, wmu = np.polynomial.legendre.leggauss(mphi)
        theta = 2.0 * math.pi * (np.arange(mtheta) + 0.5) / mtheta
        MU, T = np.meshgrid(mu, theta, indexing="ij")
        sin_phi = np.sqrt(1.0 - MU ** 2)
        omega = np.stack(
            [(sin_phi * np.cos(T)).ravel(), (sin_phi * np.sin(T)).ravel(), MU.ravel()],
            axis=1,
        )
        w = np.outer(wmu, np.full(mtheta, 2.0 * math.pi / mtheta)).ravel()
    else:
        raise NotImplementedError(f"sphere rule not implemented for n={n}")
    omega.setflags(write=False)
    w.setflags(write=False)
    return omega, w


_GAMMA_HALF = {k: math.gamma((k + 1) / 2.0) for k in range(0, 8)}


def _radial_integrals(k: int, r1sq: np.ndarray, r2sq: np.ndarray) -> np.ndarray:
    """int_{r1}^{r2} r^k e^{-r^2} dr elementwise, via incomplete gamma.

    Switches to the upper tail when both endpoints are past the mode, which
    keeps the difference accurate for far-away slivers.
    """
    a = (k + 1) / 2.0
    upper = r1sq > a
    diff = np.where(
        upper,
        gammaincc(a, r1sq) - gammaincc(a, r2sq),
        gammainc(a, r2sq) - gammainc(a, r1sq),
    )
    return 0.5 * _GAMMA_HALF[k] * diff


def gaussian_quadratic_ellipsoid(
    ell: Ellipsoid,
    mean: np.ndarray,
    chol_cov_half: np.ndarray,
    M: np.ndarray,
    q_center: np.ndarray,
    resolution: int = 64,
) -> float:
    """Integral over an ellipsoid of

        (4 pi)^{-n/2} det(C)^{-1/2} exp(-<C^{-1}(x-mean), x-mean>/4) * q(x)

    where ``chol_cov_half`` is the lower Cholesky factor L of C and q is the
    centered quadratic <M (x - q_center), x - q_center>.

    Substituting x = mean + 2 L v gives pi^{-n/2} e^{-|v|^2} against a
    quadratic over a transformed ellipsoid; in polar coordinates around the
    Gaussian center the radial factor integrates in closed form, so only the
    angular integral is numised.  The angular integrand is analytic whenever
    the Gaussian center lies inside the domain, and exponentially small where
    rays miss, so modest direction counts give near machine accuracy.
    """
    n = ell.n
    L2 = 2.0 * chol_cov_half
    d = mean - ell.center
    Qd = ell.shape @ d
    Aq = L2.T @ ell.shape @ L2          # quadratic coefficient of the domain in v
    bq = 2.0 * (L2.T @ Qd)
    c0 = float(d @ Qd) - ell.level

    dq = mean - q_center
    q0 = float(dq @ M @ dq)
    q1 = L2.T @ (2.0 * (M @ dq))
    Q2 = L2.T @ M @ L2

    omega, wts = sphere_rule(n, resolution)
    a = np.einsum("ij,jk,ik->i", omega, Aq, omega)
    b = omega @ bq
    disc = b * b - 4.0 * a * c0
    hit = disc > 0.0
    if not np.any(hit):
        return 0.0
    sq = np.sqrt(disc[hit])
    ah = a[hit]
    r_lo = np.maximum((-b[hit] - sq) / (2.0 * ah), 0.0)
    r_hi = np.maximum((-b[hit] + sq) / (2.0 * ah), 0.0)
    ok = r_hi > r_lo
    if not np.any(ok):
        return 0.0
    r1sq = r_lo[ok] ** 2
    r2sq = r_hi[ok] ** 2
    om = omega[hit][ok]
    w = wts[hit][ok]

    lin_w = om @ q1
    quad_w = np.einsum("ij,jk,ik->i", om, Q2, om)
    vals = (
        q0 * _radial_integrals(n - 1, r1sq, r2sq)
        + lin_w * _radial_integrals(n, r1sq, r2sq)
        + quad_w * _radial_integrals(n + 1, r1sq, r2sq)
    )
    return math.pi ** (-n / 2.0) * float(w @ vals)


# ---------------------------------------------------------------------------
# pointwise reference engine
# ---------------------------------------------------------------------------


def _reference_normal_frame(Aq: np.ndarray, cv: np.ndarray) -> np.ndarray:
    """Orthonormal frame whose first axis points along the domain boundary
    normal nearest the origin (the Gaussian center).

    The ray from the origin toward the ellipsoid centre cv meets the
    boundary first at |cv| - h along chat = cv / |cv|, where the normal is
    parallel to Aq chat; no root of the ray's quadratic is taken, whose
    discriminant cancels to noise for a thin slice far from the origin."""
    n = Aq.shape[0]
    norm_c = np.linalg.norm(cv)
    if norm_c < 1e-12:
        lam, U = np.linalg.eigh(Aq)
        e1 = U[:, -1]  # largest eigenvalue: smallest axis, nearest boundary
    else:
        grad = -(Aq @ (cv / norm_c))
        e1 = grad / np.linalg.norm(grad)
    # complete to an orthonormal basis
    basis = [e1]
    for k in range(n):
        v = np.zeros(n)
        v[k] = 1.0
        for u in basis:
            v = v - (v @ u) * u
        nv = np.linalg.norm(v)
        if nv > 1e-8:
            basis.append(v / nv)
        if len(basis) == n:
            break
    return np.stack(basis, axis=1)  # columns are the frame vectors



def _window(c, half):
    """The interval c -/+ half inside the Gaussian window: its ends as offsets
    (lo, hi) from c, which keep the digits of a small half-width, and as
    absolute points (a, b), exactly -/+ ``_WINDOW`` where the window binds.
    hi <= lo: empty."""
    return (np.maximum(-half, -_WINDOW - c), np.minimum(half, _WINDOW - c),
            np.maximum(c - half, -_WINDOW), np.minimum(c + half, _WINDOW))


def _compressed_nodes(c, half, order: int):
    """Nodes over c -/+ half inside the window with quadratic compression at
    both ends: offsets from c, absolute points, and weights.

    Two Gauss-Legendre pieces, each reparametrized as end + span * y^2
    toward its outer end; this renders sqrt(w - edge) factors from grazing
    domain boundaries analytic.  The offsets carry the geometry, the
    absolute points (formed from the absolute ends, ``_window``) the
    Gaussian.  ``c``/``half`` may be arrays; the rule broadcasts over them
    (leading axes), nodes on the last axis.
    """
    y, wy = _leggauss01(order)
    lo, hi, a, b = (np.asarray(e, dtype=float)[..., None] for e in _window(c, half))
    sy = 0.5 * (hi - lo) * y ** 2
    w = (hi - lo) * y * wy
    return (np.concatenate([lo + sy, hi - sy], axis=-1),
            np.concatenate([a + sy, b - sy], axis=-1), np.concatenate([w, w], axis=-1))


def reference_gaussian_quadratic_tensor(
    ell: Ellipsoid,
    mean: np.ndarray,
    chol_cov_half: np.ndarray,
    M: np.ndarray,
    q_center: np.ndarray,
    order: int | None = None,
) -> float:
    """Pointwise tensor rule: the quadratic is evaluated at every GL node.

    Whitens the Gaussian, rotates so the first axis is the domain boundary
    normal nearest the Gaussian center, integrates that axis exactly against
    the quadratic section limits, and sweeps the remaining directions with
    Gauss-Legendre nodes compressed at true projection edges.

    Every node and section is an offset u = w - c_w from the slice centre
    c_w, and a section's x-space offsets, from the slice's and from the
    quadratic's centre, are formed from it (S u): a thin slice far from the
    Gaussian's centre, near the kernel's pole, keeps the digits of its small
    extent.  A section near the Gaussian's centre deep inside a much larger
    slice starts from the Gaussian's centre instead (``segment_values``).
    The Gaussian is taken at absolute points w formed from each interval's
    absolute ends (``_window``), exactly -/+ the window where it binds.
    Short or tail sections are evaluated pointwise from the geometric form,
    so the huge-coefficient cancellation of a naive moment expansion
    (narrow Gaussian far from the quadratic's center) never materializes.
    Core sections of moderate length use erf-moment closed forms.
    """
    n = ell.n
    if order is None:
        order = 48 if n == 2 else 32
    L2 = 2.0 * chol_cov_half
    Qe = ell.shape
    rho = ell.level
    cv = np.linalg.solve(L2, ell.center - mean)
    Aq = L2.T @ Qe @ L2
    Aq = 0.5 * (Aq + Aq.T)
    R = _reference_normal_frame(Aq, cv)
    S = L2 @ R                       # x = mean + S w
    Sinv = np.linalg.inv(S)
    c_w = Sinv @ (ell.center - mean)  # ellipsoid center in w-coordinates
    E00 = mean - ell.center          # Gaussian center vs ellipsoid center
    Dq = ell.center - q_center       # ellipsoid center vs quadratic center

    A = S.T @ Qe @ S
    A = 0.5 * (A + A.T)
    alpha = float(A[0, 0])
    s1 = S[:, 0]
    Srest = S[:, 1:]
    Ms1 = M @ s1
    cc2 = float(s1 @ Ms1)
    Qs1 = Qe @ s1

    def quad_values(diffs):
        return np.einsum("...n,nm,...m->...", diffs, M, diffs)

    def segment_values(u_rest: np.ndarray, w_rest: np.ndarray) -> np.ndarray:
        """int e^{-w1^2} q(x(w1, w_rest)) dw1 over the domain section, at rest
        coordinates given as offsets u_rest from the slice centre and as
        absolute points w_rest.

        Section endpoints come from the vertex form: the quadratic's minimum
        along w1 is evaluated geometrically (vector sums in x-space), which
        stays accurate where the textbook discriminant cancels to nothing.
        The x-space offsets start from the slice centre (S u_rest), except
        where the section's absolute centre c1 = c_w1 + u1 would come out of
        a larger cancellation than the section's offset from the slice
        centre does from the Gaussian's ((mean - centre) + S w_rest): a
        section near the Gaussian's centre deep inside a slice much larger
        than the Gaussian.
        """
        K = u_rest.shape[0]
        rest = u_rest @ Srest.T                  # (K, n) the point u1 = 0 vs ellipsoid center
        v1 = -(rest @ Qs1) / alpha               # the section's vertex, from that point
        c1 = c_w[0] + v1                         # the sections' absolute centres in w1
        near = (np.abs(c1) * np.linalg.norm(c_w)
                < abs(c_w[0]) * np.hypot(v1, np.linalg.norm(u_rest, axis=1)))
        offs, dq0 = rest, rest + Dq              # vs ellipsoid and quadratic centers
        if np.any(near):
            g = w_rest[near] @ Srest.T           # the point w1 = 0 vs the Gaussian center
            offs[near], dq0[near] = g + E00, g + (mean - q_center)
            v1[near] = -(offs[near] @ Qs1) / alpha
            c1[near] = v1[near]
        offp = offs + v1[:, None] * s1           # vertex point vs ellipsoid center
        lev = rho - np.einsum("ij,jk,ik->i", offp, Qe, offp)
        mask = lev > 0.0
        half = np.sqrt(np.where(mask, lev, 0.0) / alpha)
        lo, hi, a_abs, b_abs = _window(c1, half)  # ends: offsets from the vertex, absolute
        mask = mask & (hi > lo)
        out = np.zeros(K)
        if not np.any(mask):
            return out
        dq = dq0 + v1[:, None] * s1              # (K, n) vertex point vs quadratic center
        width = hi - lo
        core = (a_abs <= 0.8) & (b_abs >= -0.8)
        cf = mask & core & (width > 1.2)
        glm = mask & ~cf

        if np.any(cf):
            # moments about w1 = 0, with the quadratic's coefficients there
            F0, F1, F2 = _erf_moments(a_abs[cf], b_abs[cf])
            d0 = dq[cf] - c1[cf, None] * s1
            c0_tot = np.einsum("ij,jk,ik->i", d0, M, d0)
            c1_tot = 2.0 * (d0 @ Ms1)
            out[cf] = c0_tot * F0 + c1_tot * F1 + cc2 * F2

        if np.any(glm):
            idx_g = np.nonzero(glm)[0]
            short = width[glm] <= 1.2
            # nodes: offsets from the vertex and absolute points
            rows, nodes_list, abs_list, wts_list = [], [], [], []
            y16, w16 = _leggauss01(16)
            if np.any(short):
                rr = idx_g[short]
                wd = width[rr][:, None]
                nodes_list.append(lo[rr][:, None] + wd * y16)
                abs_list.append(a_abs[rr][:, None] + wd * y16)
                wts_list.append(wd * w16)
                rows.append(rr)
            if np.any(~short):
                # anchor panels at the absolute endpoint nearest zero, truncate the far tail
                rr = idx_g[~short]
                a, bb = a_abs[rr], b_abs[rr]
                neg = bb < 0.0
                a2 = np.where(neg, -bb, a)
                b2 = np.where(neg, -a, bb)
                b2 = np.minimum(b2, np.sqrt(a2 * a2 + 20.0))
                fr, y, wy = _tail_gl(16)
                edges = a2[:, None] + (b2 - a2)[:, None] * fr[None, :]
                pan_nodes = []
                pan_wts = []
                for j in range(3):
                    e0 = edges[:, j][:, None]
                    e1 = edges[:, j + 1][:, None]
                    pan_nodes.append(e0 + (e1 - e0) * y)
                    pan_wts.append((e1 - e0) * wy * np.ones_like(y))
                nds = np.concatenate(pan_nodes, axis=1)
                nds = np.where(neg[:, None], -nds, nds)
                nodes_list.append(nds - c1[rr, None])
                abs_list.append(nds)
                wts_list.append(np.concatenate(pan_wts, axis=1))
                rows.append(rr)
            for du, w1, wt, rr in zip(nodes_list, abs_list, wts_list, rows):
                qv = quad_values(dq[rr][:, None, :] + du[:, :, None] * s1[None, None, :])
                out[rr] = np.einsum("kj,kj->k", wt * np.exp(-w1 ** 2), qv)
        return out

    if n == 1:
        return math.pi ** (-0.5) * float(segment_values(np.zeros((1, 0)), np.zeros((1, 0)))[0])

    # coordinate ranges of the domain in u, from support functions (stable)
    Qinv = np.linalg.inv(Qe)

    def support(idx: int) -> float:
        g = Sinv[idx, :]
        return math.sqrt(max(rho * float(g @ Qinv @ g), 0.0))

    if n == 2:
        lo_c, hi_c, _, _ = _window(c_w[1], support(1))
        if hi_c <= lo_c:
            return 0.0
        nodes, w2, wts = _compressed_nodes(c_w[1], support(1), order)
        vals = segment_values(nodes[:, None], w2[:, None])
        return math.pi ** (-1.0) * float(wts @ (np.exp(-w2 ** 2) * vals))

    if n == 3:
        # Schur data of the projection onto the rest-plane (eliminate u1)
        A_p = A[1:, 1:] - np.outer(A[0, 1:], A[0, 1:]) / alpha
        ext = np.array([support(1), support(2)])
        oi = int(np.argmax(ext))  # outer index within the rest-plane
        ii = 1 - oi
        lo_c, hi_c, _, _ = _window(c_w[1 + oi], ext[oi])
        if hi_c <= lo_c:
            return 0.0
        o_nodes, o_abs, o_wts = _compressed_nodes(c_w[1 + oi], ext[oi], order)  # (K,)
        s_mid = Srest[:, ii]
        s_out = Srest[:, oi]
        # vertex of the projected quadratic in the middle coordinate (no
        # linear term about the centre), then its level evaluated
        # geometrically through the doubly-minimizing point
        m_star = -A_p[ii, oi] * o_nodes / A_p[ii, ii]
        offs_mo = np.outer(m_star, s_mid) + np.outer(o_nodes, s_out)
        w1_star = -(offs_mo @ Qs1) / alpha
        offp = offs_mo + w1_star[:, None] * s1
        lev_m = rho - np.einsum("ij,jk,ik->i", offp, Qe, offp)
        okm = lev_m > 0.0
        if not np.any(okm):
            return 0.0
        half_m = np.sqrt(lev_m[okm] / A_p[ii, ii])
        c_m = c_w[1 + ii] + m_star[okm]  # the lines' absolute centres
        m_lo, m_hi, _, _ = _window(c_m, half_m)
        keep = m_hi > m_lo
        if not np.any(keep):
            return 0.0
        o_nodes, o_abs, o_wts = o_nodes[okm][keep], o_abs[okm][keep], o_wts[okm][keep]
        m_off, m_abs, m_wts = _compressed_nodes(c_m[keep], half_m[keep], order)  # (K, 2J)
        m_nodes = m_star[okm][keep][:, None] + m_off
        K, J2 = m_nodes.shape
        u_rest, w_rest = np.empty((K, J2, 2)), np.empty((K, J2, 2))
        u_rest[:, :, ii], w_rest[:, :, ii] = m_nodes, m_abs
        u_rest[:, :, oi], w_rest[:, :, oi] = o_nodes[:, None], o_abs[:, None]
        vals = segment_values(u_rest.reshape(-1, 2), w_rest.reshape(-1, 2)).reshape(K, J2)
        inner_sum = np.einsum("kj,kj->k", m_wts * np.exp(-m_abs ** 2), vals)
        total = float((o_wts * np.exp(-o_abs ** 2)) @ inner_sum)
        return math.pi ** (-1.5) * total

    raise NotImplementedError(f"tensor engine not implemented for n={n}")


def reference_gaussian_quadratic_auto(
    ell: Ellipsoid,
    mean: np.ndarray,
    chol_cov_half: np.ndarray,
    M: np.ndarray,
    q_center: np.ndarray,
) -> float:
    """One slice, classified as the stacked engine does, then the pointwise tensor rule.

    In every dimension the whitened domain is classified first: a boundary
    everywhere beyond the Gaussian window collapses to the closed-form
    full-space moment (or to zero when the center is outside), and everything
    else goes to the normal-aligned tensor engine.
    """
    Qe = ell.shape
    rho = ell.level
    E00 = mean - ell.center
    h0 = math.sqrt(max(float(E00 @ Qe @ E00) / rho, 0.0))
    # conservative whitened distance from the Gaussian center to the domain
    # boundary: |Mahalanobis - 1| times the smallest whitened semiaxis, which
    # is at least sqrt(rho / tr(L2^T Q L2))
    L2 = 2.0 * chol_cov_half
    tr = float(np.sum((Qe @ L2) * L2))
    amin = math.sqrt(rho / tr) if tr > 0 else 0.0
    if abs(h0 - 1.0) * amin >= _WINDOW:
        if h0 < 1.0:
            cov = 2.0 * (chol_cov_half @ chol_cov_half.T)
            return gaussian_quadratic_fullspace(mean, cov, M, q_center)
        return 0.0
    return reference_gaussian_quadratic_tensor(ell, mean, chol_cov_half, M, q_center)




# ---------------------------------------------------------------------------
# one-slice calls into the stacked engine
# ---------------------------------------------------------------------------


def _one_slice(ell: Ellipsoid, mean, chol_cov_half, M, q_center):
    """The arguments of one slice, as a stack of one for the engine."""
    args = dict(center=ell.center, shape=ell.shape, level=ell.level, mean=mean,
                chol_cov_half=chol_cov_half, M=M, q_center=q_center)
    return {k: np.asarray(a, dtype=float)[None] for k, a in args.items()}


def gaussian_quadratic_tensor(ell: Ellipsoid, mean, chol_cov_half, M, q_center) -> float:
    """The tensor rule of ``gaussian_quadratic_stack`` on one slice, unclassified."""
    return float(_gauss_tensor_stack(**_one_slice(ell, mean, chol_cov_half, M, q_center))[0])


def gaussian_quadratic_auto(ell: Ellipsoid, mean, chol_cov_half, M, q_center) -> float:
    """``gaussian_quadratic_stack`` on one slice."""
    return float(gaussian_quadratic_stack(**_one_slice(ell, mean, chol_cov_half, M, q_center))[0])


# ---------------------------------------------------------------------------
# per-node reference of the kernel-weighted Gamma profile
# ---------------------------------------------------------------------------


def _reference_ball_slice(ball, s):
    """The slice at depth s in global coordinates, or None."""
    try:
        ell = ball.slice_at(s)
    except SliceOutOfRange:
        return None
    return Ellipsoid(ball.slice_center(s), ell.shape, ell.level)


def reference_signed_slices(domain, t):
    """(sign, ellipsoid) pairs of a domain at time t, built per node."""
    if isinstance(domain, RadiusMismatchBall):
        ball = domain.other
    else:
        ball = domain.ball
    dt = domain.dt if isinstance(domain, TimeShiftedBall) else 0.0
    s = ball.t0 + dt - t
    ell = _reference_ball_slice(ball, s)
    if ell is None:
        return []
    if isinstance(domain, ScaledBall):
        f = domain.factor
        f = float(f(s / ball.s_max)) if callable(f) else float(f)
        return [(1.0, Ellipsoid(ell.center, ell.shape, ell.level * f ** 2))] if f > 0.0 else []
    if isinstance(domain, ShiftedBall):
        return [(1.0, Ellipsoid(ell.center + domain.h, ell.shape, ell.level))]
    if isinstance(domain, BittenBall):
        u = s / ball.s_max
        a, b = domain.s_range
        if a < u < b:
            size = domain.size * math.sin(math.pi * (u - a) / (b - a))
            if size > 1e-3:
                T = ell.ball_map()
                center = ell.center + domain.offset * T[:, domain.axis]
                return [(1.0, ell), (-1.0, Ellipsoid(center, ell.shape, ell.level * size ** 2))]
        return [(1.0, ell)]
    assert isinstance(domain, (ExactBall, RadiusMismatchBall, TimeShiftedBall))
    return [(1.0, ell)]


def reference_kernel_gamma_profile(domain, ball, z):
    """tau -> int over the slices of Gamma(., z) W(z0^{-1} o .), node by node."""
    spec = ball.spec
    ev = ball.ev
    x0 = ball.z0.x
    t0 = ball.z0.t

    def one(tau: float) -> float:
        delta = tau - z.t
        if delta <= 0.0:
            return 0.0
        slices = reference_signed_slices(domain, tau)
        if not slices:
            return 0.0
        L = ev.cov.C_cholesky(delta)
        mean = transport_matrix(delta, spec) @ z.x
        MW = reference_W_quadratic(ev, tau - t0)
        cW = transport_matrix(tau - t0, spec) @ x0
        val = 0.0
        for sign, ell in slices:
            val += sign * reference_gaussian_quadratic_auto(ell, mean, L, MW, cW)
        return val

    def profile(tau_arr):
        return np.array([one(float(t)) for t in np.atleast_1d(tau_arr)])

    return profile


def ball_cubature_kernel_gamma(ball, z, tau: float, degree: int = 30) -> float:
    """int over the exact ball's slice at time tau of Gamma(., z) W(z0^{-1} o .),
    by the degree-exact unit-ball rule ``polar_ball_rule(n, degree)`` mapped onto
    the slice, x = c + T u with T T^T = level shape^{-1}.  Every offset, from the
    Gaussian's centre and from the kernel's, is the slice centre's offset plus
    T u, so a slice near the pole keeps the digits of its small extent."""
    spec, ev = ball.spec, ball.ev
    s = ball.t0 - tau
    ell = _reference_ball_slice(ball, s)
    nodes, weights = polar_ball_rule(spec.n, degree)
    T = np.linalg.cholesky(ell.level * np.linalg.inv(ell.shape))
    Tu = nodes @ T.T
    delta = tau - z.t
    C = ev.cov.C(delta)
    y = (ell.center - transport_matrix(delta, spec) @ z.x) + Tu
    gauss = ((4.0 * math.pi) ** (-0.5 * spec.n) / math.sqrt(np.linalg.det(C))
             * np.exp(-0.25 * np.einsum("ij,jk,ik->i", y, np.linalg.inv(C), y)))
    yw = (ell.center - transport_matrix(-s, spec) @ ball.z0.x) + Tu
    W = np.einsum("ij,jk,ik->i", yw, reference_W_quadratic(ev, -s), yw)
    return abs(np.linalg.det(T)) * float(weights @ (gauss * W))


def reference_W_quadratic(ev, t: float) -> np.ndarray:
    """W(x, t) = x^T M x with M = C(t)^{-1} A C(t)^{-1} / 4, at one time."""
    Cinv = ev.cov.C_inverse(t)
    M = 0.25 * Cinv @ ev.spec.A @ Cinv
    return 0.5 * (M + M.T)


# ---------------------------------------------------------------------------
# per-node reference of the L^p gluing profile
# ---------------------------------------------------------------------------


def _reference_slice_power_integral(ell, MW, cW, p: int, n: int) -> float:
    """Exact integral of W^p over one ellipsoid via a degree-2p polar ball rule."""
    nodes, weights = polar_ball_rule(n, 2 * p)
    T = ell.ball_map()
    X = ell.center + nodes @ T.T
    Y = X - cW
    w = np.einsum("ij,jk,ik->i", Y, MW, Y)
    jac = ell.level ** (n / 2.0) / math.sqrt(np.linalg.det(ell.shape))
    return jac * float(weights @ np.clip(w, 0.0, None) ** p)


def _reference_apart(ea: Ellipsoid, eb: Ellipsoid) -> bool:
    """Two ellipsoids lie apart along d = (Sa + Sb)(cb - ca): the support function of ea
    in direction d stays below that of eb in direction -d."""
    delta = eb.center - ea.center
    d = (ea.shape + eb.shape) @ delta
    ha = float(ea.center @ d) + math.sqrt(ea.level * float(d @ np.linalg.inv(ea.shape) @ d))
    hb = float(eb.center @ d) - math.sqrt(eb.level * float(d @ np.linalg.inv(eb.shape) @ d))
    return ha < hb


def reference_lp_class(d_sl, b_sl) -> str:
    """'nested', 'apart' or 'overlapping', for one time's (sign, ellipsoid) slices of a
    domain and of the ball: nested when each has one +1 slice, with equal centre and
    shape, and the domain's -1 regions sit in a slice no larger than the ball's; apart
    when every pair of +1 slices lies apart."""
    d_pos = [e for sign, e in d_sl if sign > 0]
    b_pos = [e for sign, e in b_sl if sign > 0]
    if len(d_pos) == len(b_pos) == 1:
        ed, eb = d_pos[0], b_pos[0]
        if (np.array_equal(ed.center, eb.center) and np.array_equal(ed.shape, eb.shape)
                and (ed.level <= eb.level or len(d_pos) == len(d_sl))):
            return "nested"
    if all(_reference_apart(ed, eb) for ed in d_pos for eb in b_pos):
        return "apart"
    return "overlapping"


def reference_lp_profile(domain, ball, p: float, seed: int):
    """tau -> int of W^p over the slices of the symmetric difference, node by node.

    At integer p, a node whose slices nest or lie apart (``reference_lp_class``)
    takes the polar rule on every slice, |int_D - int_ball| or int_D + int_ball;
    every other node takes Monte Carlo.
    """
    spec = ball.spec
    ev = ball.ev
    t0 = ball.z0.t
    x0 = ball.z0.x
    p_int = int(round(p))
    exact_power = abs(p - p_int) < 1e-12 and p_int >= 1
    base = ExactBall(ball)

    def region_value(src_slices, other_slices, salt, MW, cW, tau):
        total = 0.0
        for sign, ell in src_slices:
            if sign <= 0:
                continue
            m = 512
            key = ((int(seed) & 0xFFFFFFFF) << 28) ^ (
                int(abs(tau) * 1e7) & 0xFFFFFFF) ^ salt
            rr = np.random.Generator(np.random.Philox(key=key))
            U = rr.random((m, spec.n + 1))
            v = ndtri(np.clip(U[:, : spec.n], 1e-12, 1 - 1e-12))
            nv = np.linalg.norm(v, axis=1, keepdims=True)
            rad = U[:, spec.n] ** (1.0 / spec.n)
            T = ell.ball_map()
            X = ell.center + (v / nv * rad[:, None]) @ T.T
            outside = np.ones(m, dtype=bool)
            for s2, e2 in other_slices:
                if s2 > 0:
                    outside &= ~e2.contains(X)
            Y = X - cW
            w = np.clip(np.einsum("ij,jk,ik->i", Y, MW, Y), 0.0, None)
            total += ell.volume() * float(np.mean(w ** p * outside))
        return total

    def one(tau: float) -> float:
        b_sl = reference_signed_slices(base, tau)
        d_sl = reference_signed_slices(domain, tau)
        if not b_sl and not d_sl:
            return 0.0
        MW = reference_W_quadratic(ev, tau - t0)
        cW = transport_matrix(tau - t0, spec) @ x0
        kind = reference_lp_class(d_sl, b_sl) if exact_power else "overlapping"
        if kind != "overlapping":
            vb = sum(sign * _reference_slice_power_integral(e, MW, cW, p_int, spec.n)
                     for sign, e in b_sl)
            vd = sum(sign * _reference_slice_power_integral(e, MW, cW, p_int, spec.n)
                     for sign, e in d_sl)
            return abs(vd - vb) if kind == "nested" else vd + vb
        return (region_value(b_sl, d_sl, 1, MW, cW, tau)
                + region_value(d_sl, b_sl, 2, MW, cW, tau))

    def profile(tau_arr):
        return np.array([one(float(t)) for t in np.atleast_1d(tau_arr)])

    return profile


def reference_holds(stack, X: np.ndarray, node: np.ndarray) -> np.ndarray:
    """Membership of the points X[k] at input time node[k] in a signed slice stack."""
    i, j = np.nonzero(node[:, None] == stack.node[None, :])
    Y = X[i] - stack.center[j][:, None, :]
    inside = np.einsum("pqi,pij,pqj->pq", Y, stack.shape[j], Y) < stack.level[j][:, None]
    count = np.zeros(X.shape[:2])
    np.add.at(count, i, stack.sign[j][:, None] * inside)
    return count > 0.0


# ---------------------------------------------------------------------------
# the two-floor L^p gluing rule
# ---------------------------------------------------------------------------


def two_floor_lp_check(domain, ball, p: float, cfg, rel_tol: float = 1e-6,
                       max_cells: int = 600):
    """(I7, certified) from two overlapping integrals of ``lab._lp_profile``.

    I5 and I7 run in tau from the earliest time to 1e-5 and 1e-7 of the span
    below the latest one; the check is certified when |I7 - I5| <= 2e-2 |I7|.
    A divergent case stops its 1e-5 floor at the cell budget, which is part of
    the rule reproduced here, so its ``ToleranceWarning`` is not raised.
    """
    profile = _lp_profile(domain, ball, p, cfg.seed)
    lo = min(domain.time_interval[0], ball.time_interval[0])
    hi = max(domain.time_interval[1], ball.time_interval[1])
    span = hi - lo
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ToleranceWarning)
        i5, i7 = (integrate_time_profile(profile, lo, hi - floor * span,
                                         order=cfg.time_order, rel_tol=rel_tol,
                                         abs_tol=0.0, max_depth=30,
                                         max_cells=max_cells).value
                  for floor in (1e-5, 1e-7))
    return i7, abs(i7 - i5) <= 2e-2 * max(abs(i7), 1e-300)
