"""Test-only oracles and references for the Gaussian x quadratic slice integrals.

* The polar rule ``gaussian_quadratic_ellipsoid``: an independent derivation,
  radially exact through incomplete gamma functions, spectrally convergent
  when the Gaussian center lies inside the slice.
* The pointwise reference engine (``reference_gaussian_quadratic_auto``):
  the one-slice-per-call normal-aligned tensor rule that evaluates the
  quadratic at every Gauss-Legendre node, as the library did before its
  engine was stacked.
* The per-node reference of the kernel-weighted Gamma profile
  (``reference_kernel_gamma_profile``), which builds each domain's signed
  slices per node from ``LBall.slice_at`` and ``LBall.slice_center``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import gammainc, gammaincc

from kolpot.balls import Ellipsoid
from kolpot.domains import (
    BittenBall,
    ExactBall,
    RadiusMismatchBall,
    ScaledBall,
    ShiftedBall,
    TimeShiftedBall,
)
from kolpot.errors import SliceOutOfRange
from kolpot.operators import transport_matrix
from kolpot.quadrature import (
    _WINDOW,
    _compressed_nodes,
    _erf_moments,
    _leggauss01,
    _tail_gl,
    gaussian_quadratic_fullspace,
)


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
    const: float = 0.0,
    lin: np.ndarray | None = None,
    resolution: int = 64,
) -> float:
    """Integral over an ellipsoid of

        (4 pi)^{-n/2} det(C)^{-1/2} exp(-<C^{-1}(x-mean), x-mean>/4) * q(x)

    where ``chol_cov_half`` is the lower Cholesky factor L of C and q is the
    centered quadratic (const, lin, M) around ``q_center``.

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
    q0 = const + float(dq @ M @ dq)
    if lin is not None:
        q0 += float(np.asarray(lin) @ dq)
        l_eff = np.asarray(lin) + 2.0 * (M @ dq)
    else:
        l_eff = 2.0 * (M @ dq)
    q1 = L2.T @ l_eff
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


def _reference_normal_frame(Aq: np.ndarray, cv: np.ndarray, level: float) -> np.ndarray:
    """Orthonormal frame whose first axis points along the domain boundary
    normal nearest the origin (the Gaussian center)."""
    n = Aq.shape[0]
    norm_c = np.linalg.norm(cv)
    if norm_c < 1e-12:
        lam, U = np.linalg.eigh(Aq)
        e1 = U[:, -1]  # largest eigenvalue: smallest axis, nearest boundary
    else:
        chat = cv / norm_c
        a = float(chat @ Aq @ chat)
        b = -2.0 * float(chat @ Aq @ cv)
        c = float(cv @ Aq @ cv) - level
        disc = max(b * b - 4.0 * a * c, 0.0)
        t1 = (-b - math.sqrt(disc)) / (2.0 * a)
        t2 = (-b + math.sqrt(disc)) / (2.0 * a)
        t = t1 if abs(t1) <= abs(t2) else t2
        bstar = t * chat
        grad = Aq @ (bstar - cv)
        gn = np.linalg.norm(grad)
        e1 = grad / gn if gn > 0 else chat
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



def reference_gaussian_quadratic_tensor(
    ell: Ellipsoid,
    mean: np.ndarray,
    chol_cov_half: np.ndarray,
    M: np.ndarray,
    q_center: np.ndarray,
    const: float = 0.0,
    lin: np.ndarray | None = None,
    order: int | None = None,
) -> float:
    """Pointwise tensor rule: the quadratic is evaluated at every GL node.

    Whitens the Gaussian, rotates so the first axis is the domain boundary
    normal nearest the Gaussian center, integrates that axis exactly against
    the quadratic section limits, and sweeps the remaining directions with
    Gauss-Legendre nodes compressed at true projection edges.

    All section and coefficient data are assembled from x-space offsets, and
    short or tail sections are evaluated pointwise from the geometric form,
    so the huge-coefficient cancellation of a naive moment expansion (narrow
    Gaussian far from the quadratic's center) never materializes.  Core
    sections of moderate length use erf-moment closed forms.
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
    R = _reference_normal_frame(Aq, cv, rho)
    S = L2 @ R                       # x = mean + S w
    E00 = mean - ell.center          # offset from the ellipsoid center
    D0 = mean - q_center             # offset from the quadratic center
    if lin is not None:
        lin = np.asarray(lin, dtype=float)

    A = S.T @ Qe @ S
    A = 0.5 * (A + A.T)
    bvec = 2.0 * (S.T @ (Qe @ E00))
    alpha = float(A[0, 0])
    s1 = S[:, 0]
    Srest = S[:, 1:]
    Ms1 = M @ s1
    cc2 = float(s1 @ Ms1)
    Qs1 = Qe @ s1

    def segment_values(w_rest: np.ndarray) -> np.ndarray:
        """int e^{-w1^2} q(x(w1, w_rest)) dw1 over the domain section.

        Section endpoints come from the vertex form: the quadratic's minimum
        along w1 is evaluated geometrically (vector sums in x-space), which
        stays accurate where the textbook discriminant cancels to nothing.
        """
        K = w_rest.shape[0]
        offs = E00 + w_rest @ Srest.T            # (K, n) w1 = 0 point vs ellipsoid center
        w1s = -(offs @ Qs1) / alpha              # vertex of the section quadratic
        offp = offs + w1s[:, None] * s1          # vertex point vs ellipsoid center
        lev = rho - np.einsum("ij,jk,ik->i", offp, Qe, offp)
        mask = lev > 0.0
        half = np.sqrt(np.where(mask, lev, 0.0) / alpha)
        lo = np.clip(w1s - half, -_WINDOW, _WINDOW)
        hi = np.clip(w1s + half, -_WINDOW, _WINDOW)
        mask = mask & (hi > lo)
        out = np.zeros(K)
        if not np.any(mask):
            return out
        dif0 = D0 + w_rest @ Srest.T             # (K, n) w1 = 0 point vs quadratic center
        width = hi - lo
        core = (lo <= 0.8) & (hi >= -0.8)
        cf = mask & core & (width > 1.2)
        glm = mask & ~cf

        if np.any(cf):
            F0, F1, F2 = _erf_moments(lo[cf], hi[cf])
            d_cf = dif0[cf]
            c0_tot = np.einsum("ij,jk,ik->i", d_cf, M, d_cf) + const
            c1_tot = 2.0 * (d_cf @ Ms1)
            if lin is not None:
                c0_tot = c0_tot + d_cf @ lin
                c1_tot = c1_tot + float(lin @ s1)
            out[cf] = c0_tot * F0 + c1_tot * F1 + cc2 * F2

        if np.any(glm):
            lo_g, hi_g = lo[glm], hi[glm]
            d_g = dif0[glm]
            short = (hi_g - lo_g) <= 1.2
            nodes_list, wts_list, rows = [], [], []
            idx_g = np.nonzero(glm)[0]
            y16, w16 = _leggauss01(16)
            if np.any(short):
                a = lo_g[short][:, None]
                bb = hi_g[short][:, None]
                nodes_list.append(a + (bb - a) * y16)
                wts_list.append((bb - a) * w16 * np.ones_like(y16))
                rows.append(idx_g[short])
            far = ~short
            if np.any(far):
                a = lo_g[far]
                bb = hi_g[far]
                # anchor panels at the endpoint nearest zero, truncate the far tail
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
                wt = np.concatenate(pan_wts, axis=1)
                nds = np.where(neg[:, None], -nds, nds)
                nodes_list.append(nds)
                wts_list.append(wt)
                rows.append(idx_g[far])
            for nds, wt, rr in zip(nodes_list, wts_list, rows):
                d_loc = dif0[rr]
                diffs = d_loc[:, None, :] + nds[:, :, None] * s1[None, None, :]
                qv = np.einsum("kjn,nm,kjm->kj", diffs, M, diffs)
                if lin is not None:
                    qv = qv + diffs @ lin
                if const:
                    qv = qv + const
                out[rr] = np.einsum("kj,kj->k", wt * np.exp(-nds ** 2), qv)
        return out

    if n == 1:
        return math.pi ** (-0.5) * float(segment_values(np.zeros((1, 0)))[0])

    # coordinate ranges of the domain in w, from support functions (stable)
    Sinv = np.linalg.inv(S)
    c_w = -(Sinv @ E00)  # ellipsoid center in w-coordinates
    Qinv = np.linalg.inv(Qe)

    def support(idx: int) -> float:
        g = Sinv[idx, :]
        return math.sqrt(max(rho * float(g @ Qinv @ g), 0.0))

    if n == 2:
        h2 = support(1)
        lo_c, hi_c = max(c_w[1] - h2, -_WINDOW), min(c_w[1] + h2, _WINDOW)
        if hi_c <= lo_c:
            return 0.0
        nodes, wts = _compressed_nodes(lo_c, hi_c, order)
        vals = segment_values(nodes[:, None])
        return math.pi ** (-1.0) * float(wts @ (np.exp(-nodes ** 2) * vals))

    if n == 3:
        # Schur data of the projection onto the rest-plane (eliminate w1)
        A_p = A[1:, 1:] - np.outer(A[0, 1:], A[0, 1:]) / alpha
        ext = np.array([support(1), support(2)])
        oi = int(np.argmax(ext))  # outer index within the rest-plane
        ii = 1 - oi
        lo_c = max(c_w[1 + oi] - ext[oi], -_WINDOW)
        hi_c = min(c_w[1 + oi] + ext[oi], _WINDOW)
        if hi_c <= lo_c:
            return 0.0
        o_nodes, o_wts = _compressed_nodes(lo_c, hi_c, order)  # (K,)
        s_mid = Srest[:, ii]
        s_out = Srest[:, oi]
        # vertex of the projected quadratic in the middle coordinate, then its
        # value evaluated geometrically through the doubly-minimizing point
        b_p = bvec[1:] - bvec[0] * A[0, 1:] / alpha
        beta_p = b_p[ii] + 2.0 * A_p[ii, oi] * o_nodes
        m_star = -beta_p / (2.0 * A_p[ii, ii])
        offs_mo = E00 + np.outer(m_star, s_mid) + np.outer(o_nodes, s_out)
        w1_star = -(offs_mo @ Qs1) / alpha
        offp = offs_mo + w1_star[:, None] * s1
        lev_m = rho - np.einsum("ij,jk,ik->i", offp, Qe, offp)
        okm = lev_m > 0.0
        if not np.any(okm):
            return 0.0
        half_m = np.sqrt(lev_m[okm] / A_p[ii, ii])
        m_lo = np.clip(m_star[okm] - half_m, -_WINDOW, _WINDOW)
        m_hi = np.clip(m_star[okm] + half_m, -_WINDOW, _WINDOW)
        keep = m_hi > m_lo
        if not np.any(keep):
            return 0.0
        o_nodes = o_nodes[okm][keep]
        o_wts = o_wts[okm][keep]
        m_nodes, m_wts = _compressed_nodes(m_lo[keep], m_hi[keep], order)  # (K, 2J)
        K, J2 = m_nodes.shape
        w_rest = np.empty((K, J2, 2))
        w_rest[:, :, ii] = m_nodes
        w_rest[:, :, oi] = o_nodes[:, None]
        vals = segment_values(w_rest.reshape(-1, 2)).reshape(K, J2)
        inner_sum = np.einsum("kj,kj->k", m_wts * np.exp(-m_nodes ** 2), vals)
        total = float((o_wts * np.exp(-o_nodes ** 2)) @ inner_sum)
        return math.pi ** (-1.5) * total

    raise NotImplementedError(f"tensor engine not implemented for n={n}")


def reference_gaussian_quadratic_auto(
    ell: Ellipsoid,
    mean: np.ndarray,
    chol_cov_half: np.ndarray,
    M: np.ndarray,
    q_center: np.ndarray,
    const: float = 0.0,
    lin: np.ndarray | None = None,
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
            return gaussian_quadratic_fullspace(mean, cov, M, q_center,
                                                const=const, lin=lin)
        return 0.0
    return reference_gaussian_quadratic_tensor(ell, mean, chol_cov_half, M, q_center,
                                               const=const, lin=lin)




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
        return [(1.0, ell.scaled(f))] if f > 0.0 else []
    if isinstance(domain, ShiftedBall):
        return [(1.0, ell.shifted(domain.h))]
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
        MW = ev.W_quadratic(tau - t0)
        cW = transport_matrix(tau - t0, spec) @ x0
        val = 0.0
        for sign, ell in slices:
            val += sign * reference_gaussian_quadratic_auto(ell, mean, L, MW, cW)
        return val

    def profile(tau_arr):
        return np.array([one(float(t)) for t in np.atleast_1d(tau_arr)])

    return profile
