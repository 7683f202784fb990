"""Integration machinery over level-set balls and their ellipsoidal slices.

Three layers:

* exact slice integrals: polynomials over ellipsoids via unit-ball monomial
  moments (or degree-exact product cubature on the unit ball), quadratics in
  closed form, and Gaussian-times-quadratic integrands by the normal-aligned
  tensor engine behind ``gaussian_quadratic_auto`` (the polar rule
  ``gaussian_quadratic_ellipsoid``, radially exact through incomplete gamma
  functions, is kept as an independent cross-check for the tests);
* a 1-d adaptive time integrator with square-root compression at both
  endpoints, which tames the integrable kernel blow-up near the pole and the
  degenerating slices at the far end;
* seeded Monte Carlo with fixed-size counter-keyed chunks (Philox), so sample
  streams are reproducible and independent of how work is split across
  workers.
"""

from __future__ import annotations

import heapq
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import erf, gammainc, gammaincc, ndtri

from .balls import Ellipsoid, LBall, SliceStack, unit_ball_volume
from .errors import SliceOutOfRange, ToleranceWarning
from .harmonic import AnisoPolynomial
from .operators import GroupPoint

__all__ = [
    "QuadratureConfig",
    "IntegralResult",
    "MonomialMoments",
    "unit_ball_moment",
    "ball_rule",
    "sphere_rule",
    "ellipsoid_polynomial_integral",
    "ellipsoid_quadratic_integral",
    "gaussian_quadratic_ellipsoid",
    "gaussian_quadratic_tensor",
    "gaussian_quadratic_auto",
    "gaussian_quadratic_fullspace",
    "integrate_time_profile",
    "integrate_over_ball",
    "mc_sample_ball",
    "MCSampler",
]

MC_CHUNK = 4096  # samples per Philox key; fixed so chunking never affects streams


@dataclass(frozen=True)
class QuadratureConfig:
    """Knobs shared by all integration routines.

    ``time_order``/``time_tol`` drive the adaptive 1-d time rule,
    ``endpoint_depth`` caps its dyadic refinement depth, ``mc_samples`` and
    ``seed`` control the Monte Carlo paths.  ``workers`` only splits Monte
    Carlo chunks; results are identical for any worker count.
    """

    time_order: int = 16
    time_tol: float = 1e-9
    endpoint_depth: int = 48
    max_cells: int = 4096
    mc_samples: int = 20000
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if self.time_tol <= 0.0:
            raise ValueError("time tolerance must be positive")
        if self.mc_samples <= 0:
            raise ValueError("mc_samples must be positive")
        if not 0 <= int(self.seed) < 2 ** 63:
            raise ValueError("seed must fit in a 63-bit nonnegative integer")


@dataclass
class IntegralResult:
    value: float
    error: float
    method: str
    cells: int = 0
    samples: int = 0
    converged: bool = True
    flags: tuple[str, ...] = field(default_factory=tuple)

    def __float__(self):
        return self.value


# ---------------------------------------------------------------------------
# unit-ball moments and degree-exact rules
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
def _leggauss01(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w


@lru_cache(maxsize=None)
def ball_rule(n: int, degree: int):
    """Cubature rule on the unit ball of R^n exact for polynomials <= degree.

    Product of a Gauss-Legendre radial rule with equispaced angles (trapezoid
    is exact for trigonometric polynomials) and, in R^3, Gauss-Legendre in
    cos(phi).  Returns (nodes, weights) as read-only arrays.
    """
    degree = max(int(degree), 0)
    if n == 1:
        m = degree // 2 + 1
        x, w = np.polynomial.legendre.leggauss(m)
        nodes, weights = x[:, None], w
    elif n == 2:
        r, wr = _leggauss01(degree // 2 + 2)
        ntheta = degree + 2
        theta = 2.0 * math.pi * (np.arange(ntheta) + 0.5) / ntheta
        R, T = np.meshgrid(r, theta, indexing="ij")
        nodes = np.stack([(R * np.cos(T)).ravel(), (R * np.sin(T)).ravel()], axis=1)
        weights = (np.outer(wr * r, np.full(ntheta, 2.0 * math.pi / ntheta))).ravel()
    elif n == 3:
        r, wr = _leggauss01(degree // 2 + 2)
        mu, wmu = np.polynomial.legendre.leggauss(degree // 2 + 1)
        ntheta = degree + 2
        theta = 2.0 * math.pi * (np.arange(ntheta) + 0.5) / ntheta
        R, MU, T = np.meshgrid(r, mu, theta, indexing="ij")
        sin_phi = np.sqrt(1.0 - MU ** 2)
        nodes = np.stack(
            [
                (R * sin_phi * np.cos(T)).ravel(),
                (R * sin_phi * np.sin(T)).ravel(),
                (R * MU).ravel(),
            ],
            axis=1,
        )
        W = np.einsum("i,j,k->ijk", wr * r ** 2, wmu, np.full(ntheta, 2.0 * math.pi / ntheta))
        weights = W.ravel()
    else:
        raise NotImplementedError(f"ball rule not implemented for n={n}")
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


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


# ---------------------------------------------------------------------------
# exact ellipsoid integrals
# ---------------------------------------------------------------------------


def _poly_terms(poly) -> dict[tuple[int, ...], float]:
    """Accept a {multi-index: coefficient} dict or an object exposing one."""
    if isinstance(poly, dict):
        return poly
    if hasattr(poly, "space_terms"):
        return poly.space_terms()
    raise TypeError("polynomial must be a dict of terms or expose space_terms()")


def _affine_monomial(alpha, c, T):
    """Expansion of prod_i (c_i + (T u)_i)^alpha_i as {beta: coeff} over u."""
    n = T.shape[1]
    out = {tuple([0] * n): 1.0}
    for i, ai in enumerate(alpha):
        row = {tuple([0] * n): c[i]}
        for j in range(n):
            if T[i, j] != 0.0:
                key = tuple(1 if k == j else 0 for k in range(n))
                row[key] = row.get(key, 0.0) + T[i, j]
        for _ in range(ai):
            new = {}
            for b1, c1 in out.items():
                for b2, c2 in row.items():
                    key = tuple(x + y for x, y in zip(b1, b2))
                    new[key] = new.get(key, 0.0) + c1 * c2
            out = new
    return out


def ellipsoid_polynomial_integral(poly, ell: Ellipsoid,
                                  moments: MonomialMoments | None = None) -> float:
    """Exact integral of a polynomial over an ellipsoid.

    Affine change of variables onto the unit ball, then cached monomial
    moments.  ``poly`` maps multi-indices over R^n to coefficients.
    """
    terms = _poly_terms(poly)
    n = ell.n
    moments = moments if moments is not None else MonomialMoments(n)
    T = ell.ball_map()
    jac = ell.level ** (n / 2.0) / math.sqrt(np.linalg.det(ell.shape))
    total = 0.0
    for alpha, coef in terms.items():
        if coef == 0.0:
            continue
        expanded = _affine_monomial(alpha, ell.center, T)
        acc = 0.0
        for beta, c in expanded.items():
            if c != 0.0:
                acc += c * moments.moment(beta)
        total += coef * acc
    return jac * total


def ellipsoid_quadratic_integral(ell: Ellipsoid, M: np.ndarray,
                                 q_center: np.ndarray | None = None,
                                 const: float = 0.0,
                                 lin: np.ndarray | None = None) -> float:
    """Closed-form integral over an ellipsoid of

        const + lin . (x - q_center) + (x - q_center)^T M (x - q_center).

    Uses vol * (const + lin.dc + dc^T M dc + rho tr(M Q^{-1}) / (n + 2)) with
    dc the offset of the ellipsoid center from the quadratic's center.
    """
    n = ell.n
    vol = ell.volume()
    dc = ell.center - (q_center if q_center is not None else np.zeros(n))
    Qinv = np.linalg.inv(ell.shape)
    val = const + float(dc @ M @ dc) + ell.level * float(np.trace(M @ Qinv)) / (n + 2.0)
    if lin is not None:
        val += float(np.asarray(lin) @ dc)
    return vol * val


# ---------------------------------------------------------------------------
# Gaussian x quadratic over an ellipsoid: polar rule, radially exact (a
# cross-check; production slices go through gaussian_quadratic_auto below)
# ---------------------------------------------------------------------------


def gaussian_quadratic_fullspace(mean: np.ndarray, cov: np.ndarray,
                                 M: np.ndarray, q_center: np.ndarray,
                                 const: float = 0.0,
                                 lin: np.ndarray | None = None) -> float:
    """E[q(X)] for X ~ N(mean, cov) and the centered quadratic q as above."""
    d = mean - q_center
    val = const + float(d @ M @ d) + float(np.trace(M @ cov))
    if lin is not None:
        val += float(np.asarray(lin) @ d)
    return val


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


_WINDOW = 8.5  # Gaussian reach in e^{-|v|^2} units; exp(-72) beyond




def _erf_moments(lo: np.ndarray, hi: np.ndarray):
    """(F0, F1, F2) with F_k = int_lo^hi v^k e^{-v^2} dv, elementwise."""
    e_lo = np.exp(-lo ** 2)
    e_hi = np.exp(-hi ** 2)
    df = erf(hi) - erf(lo)
    F0 = 0.5 * math.sqrt(math.pi) * df
    F1 = 0.5 * (e_lo - e_hi)
    F2 = 0.5 * (lo * e_lo - hi * e_hi) + 0.25 * math.sqrt(math.pi) * df
    return F0, F1, F2


def _compressed_nodes(lo, hi, order: int):
    """Nodes/weights over [lo, hi] with quadratic compression at both ends.

    Two Gauss-Legendre pieces, each reparametrized as w = end + span * y^2
    toward its outer endpoint; this renders sqrt(w - edge) factors from
    grazing domain boundaries analytic.  ``lo``/``hi`` may be arrays; the
    rule broadcasts over them (leading axes), nodes on the last axis.
    """
    y, wy = _leggauss01(order)
    lo = np.asarray(lo, dtype=float)[..., None]
    hi = np.asarray(hi, dtype=float)[..., None]
    mid = 0.5 * (lo + hi)
    span = mid - lo
    nodes = np.concatenate([lo + span * y ** 2, hi - span * y ** 2], axis=-1)
    weights = np.concatenate([2.0 * span * y * wy, 2.0 * span * y * wy], axis=-1)
    return nodes, weights



def _normal_frame(Aq: np.ndarray, cv: np.ndarray, level: float) -> np.ndarray:
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


@lru_cache(maxsize=None)
def _tail_gl(order: int):
    """Panel fractions and panel-local GL nodes for tail segments."""
    y, wy = _leggauss01(order)
    fr = np.array([0.0, 0.18, 0.45, 1.0])
    return fr, y, wy


def gaussian_quadratic_tensor(
    ell: Ellipsoid,
    mean: np.ndarray,
    chol_cov_half: np.ndarray,
    M: np.ndarray,
    q_center: np.ndarray,
    const: float = 0.0,
    lin: np.ndarray | None = None,
    order: int | None = None,
) -> float:
    """Iterated form of the Gaussian x quadratic ellipsoid integral.

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
    R = _normal_frame(Aq, cv, rho)
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


def gaussian_quadratic_auto(
    ell: Ellipsoid,
    mean: np.ndarray,
    chol_cov_half: np.ndarray,
    M: np.ndarray,
    q_center: np.ndarray,
    const: float = 0.0,
    lin: np.ndarray | None = None,
) -> float:
    """Production entry point for Gaussian x quadratic slice integrals.

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
    return gaussian_quadratic_tensor(ell, mean, chol_cov_half, M, q_center,
                                     const=const, lin=lin)


# ---------------------------------------------------------------------------
# adaptive 1-d time integration with endpoint compression
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _gl_pair(order: int):
    x1, w1 = np.polynomial.legendre.leggauss(order)
    x2, w2 = np.polynomial.legendre.leggauss(max(order // 2, 2))
    return 0.5 * (x1 + 1.0), 0.5 * w1, 0.5 * (x2 + 1.0), 0.5 * w2


def integrate_time_profile(
    profile,
    lo: float,
    hi: float,
    *,
    order: int = 16,
    rel_tol: float = 1e-9,
    abs_tol: float = 0.0,
    max_depth: int = 48,
    max_cells: int = 4096,
) -> IntegralResult:
    """Adaptive integral of ``profile`` over (lo, hi).

    The interval is split at its midpoint and each half is reparametrized
    with a square-root compression toward its outer endpoint (s = lo + H w^2
    and s = hi - H w^2), which makes the integrable endpoint behaviour of the
    slice profiles mild in w.  Cells are then refined worst-first, with the
    cell error taken from an embedded lower-order rule.  ``profile`` must
    accept a 1-d array of times and return values of the same shape.
    """
    if hi <= lo:
        return IntegralResult(0.0, 0.0, "exact", cells=0)
    H = 0.5 * (hi - lo)
    xs1, ws1, xs2, ws2 = _gl_pair(order)

    def eval_cell(side: int, a: float, b: float):
        w_hi = a + (b - a) * xs1
        w_lo = a + (b - a) * xs2
        w_all = np.concatenate([w_hi, w_lo])
        if side == 0:
            s = lo + H * w_all ** 2
        else:
            s = hi - H * w_all ** 2
        jac = 2.0 * H * w_all * (b - a)
        vals = np.asarray(profile(s)) * jac
        i_hi = float(ws1 @ vals[: xs1.size])
        i_lo = float(ws2 @ vals[xs1.size:])
        return i_hi, abs(i_hi - i_lo)

    heap = []
    counter = 0
    total = 0.0
    total_err = 0.0
    ncells = 0
    init = 4
    for side in (0, 1):
        for k in range(init):
            a, b = k / init, (k + 1) / init
            val, err = eval_cell(side, a, b)
            heapq.heappush(heap, (-err, counter, side, a, b, 1, val, err))
            counter += 1
            total += val
            total_err += err
            ncells += 1

    converged = True
    while total_err > max(abs_tol, rel_tol * abs(total)):
        # depth-capped cells are never refined again: drop them from the heap,
        # their value and error stay in the running totals
        while heap and heap[0][5] >= max_depth:
            heapq.heappop(heap)
        if not heap or ncells >= max_cells:
            converged = False
            break
        _, _, side, a, b, depth, val, err = heapq.heappop(heap)
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

    flags = () if converged else ("tolerance_not_met",)
    if not converged:
        warnings.warn(
            f"time integral reached budget (cells={ncells}) before tolerance",
            ToleranceWarning,
        )
    return IntegralResult(total, total_err, "exact", cells=ncells,
                          converged=converged, flags=flags)


# ---------------------------------------------------------------------------
# Monte Carlo over a ball
# ---------------------------------------------------------------------------


def _chunk_generator(seed: int, chunk_index: int) -> np.random.Generator:
    key = (int(seed) << 64) ^ chunk_index
    return np.random.Generator(np.random.Philox(key=key))


class MCSampler:
    """Seed-reproducible sampling over one ball.

    Time is drawn from a tabulated marginal (slice volume for uniform
    sampling, kernel slice mass for kernel-weighted estimates) via exact
    inversion of the piecewise-linear density; space is uniform in the slice
    ellipsoid.  Samples are generated in fixed chunks of ``MC_CHUNK`` with
    per-chunk Philox keys, so any worker partition yields the same stream.
    """

    GRID = 4096

    def __init__(self, ball: LBall):
        self.ball = ball
        self.n = ball.spec.n
        w = np.linspace(0.0, 1.0, self.GRID + 1)
        s = ball.s_max * w ** 2
        jac = 2.0 * ball.s_max * w
        sl = ball.slices(s)
        vols = np.zeros(s.size)
        vols[sl.idx] = sl.volume
        # int over the slice of W(-s) = vol * rho tr(W(-s) shape^{-1}) / (n + 2),
        # and tr(W(-s) shape^{-1}) = tr(G1) / s
        trace_g1 = float(np.trace(_unit_kernel(ball)))
        kmass = np.zeros(s.size)
        kmass[sl.idx] = sl.volume * (sl.rho / sl.s) * (trace_g1 / (self.n + 2.0))
        self.w_grid = w
        self.vol_density = vols * jac
        self.kernel_density = kmass * jac
        self.volume, self.vol_cdf = self._build_cdf(self.vol_density)
        self.kernel_mass, self.kernel_cdf = self._build_cdf(self.kernel_density)

    def _build_cdf(self, density: np.ndarray):
        dw = np.diff(self.w_grid)
        masses = 0.5 * (density[:-1] + density[1:]) * dw
        cdf = np.concatenate([[0.0], np.cumsum(masses)])
        return float(cdf[-1]), cdf

    def _invert(self, u: np.ndarray, density: np.ndarray, cdf: np.ndarray):
        """Exact inversion of the piecewise-linear density; returns (w, pdf)."""
        total = cdf[-1]
        target = u * total
        idx = np.clip(np.searchsorted(cdf, target, side="right") - 1, 0, cdf.size - 2)
        w0 = self.w_grid[idx]
        dw = self.w_grid[idx + 1] - w0
        g0 = density[idx]
        g1 = density[idx + 1]
        rem = target - cdf[idx]
        a = 0.5 * (g1 - g0) / dw
        # solve a * y^2 + g0 * y = rem for y in (0, dw)
        with np.errstate(invalid="ignore", divide="ignore"):
            y_quad = (-g0 + np.sqrt(np.maximum(g0 * g0 + 4.0 * a * rem, 0.0))) / (2.0 * a)
            y_lin = rem / np.where(g0 > 0.0, g0, 1.0)
        y = np.where(np.abs(a) * dw > 1e-12 * (g0 + g1 + 1e-300), y_quad, y_lin)
        y = np.clip(y, 0.0, dw)
        w = w0 + y
        pdf = (g0 + 2.0 * a * y) / total
        return w, pdf

    def _spatial(self, u_dir: np.ndarray, u_rad: np.ndarray, sl: SliceStack) -> np.ndarray:
        """Uniform points in the slices of ``sl``: center + scale * (u @ T1.T)."""
        normals = ndtri(np.clip(u_dir, 1e-15, 1.0 - 1e-15))
        nv = np.linalg.norm(normals, axis=1)
        zero = nv == 0.0
        normals[zero, 0] = 1.0
        nv[zero] = 1.0
        radius = u_rad ** (1.0 / self.n) * (1.0 - 1e-12)
        u = normals / nv[:, None] * radius[:, None]
        return sl.center + sl.scale * (u @ self.ball.ev.cov.T1.T)

    def _uniforms(self, count: int, seed: int, workers: int = 1) -> np.ndarray:
        cols = self.n + 2
        out = np.empty((count, cols))
        chunks = range((count + MC_CHUNK - 1) // MC_CHUNK)

        def fill(j):
            start = j * MC_CHUNK
            stop = min(start + MC_CHUNK, count)
            rng = _chunk_generator(seed, j)
            block = rng.random((MC_CHUNK, cols))
            out[start:stop] = block[: stop - start]

        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                list(pool.map(fill, chunks))
        else:
            for j in chunks:
                fill(j)
        return out

    def sample(self, count: int, seed: int, kernel: bool = False, workers: int = 1):
        """Returns (points (count, n), depths s, importance density over (s, x)).

        With ``kernel=False`` the marginal over s is the slice volume, so the
        points are uniform in the ball.  With ``kernel=True`` the marginal is
        the slice kernel mass (importance sampling for kernel-weighted
        integrands).  The returned density is with respect to ds dx.
        """
        U = self._uniforms(count, seed, workers)
        density = self.kernel_density if kernel else self.vol_density
        cdf = self.kernel_cdf if kernel else self.vol_cdf
        w, pdf_w = self._invert(U[:, 0], density, cdf)
        s = self.ball.s_max * w ** 2
        jac = 2.0 * self.ball.s_max * w
        sl = self.ball.slices(s)
        if sl.idx.size != count:
            raise SliceOutOfRange("a sampled depth lies outside (0, s_max)")
        X = self._spatial(U[:, 1: 1 + self.n], U[:, 1 + self.n], sl)
        p_sx = pdf_w / jac / sl.volume
        return X, s, p_sx


def mc_sample_ball(ball: LBall, count: int, seed: int) -> list[GroupPoint]:
    """Uniform samples in the ball, deterministic for a given seed."""
    sampler = MCSampler(ball)
    X, s, _ = sampler.sample(count, seed, kernel=False)
    t0 = ball.z0.t
    return [GroupPoint(X[i], t0 - s[i]) for i in range(count)]


# ---------------------------------------------------------------------------
# integrate over a ball
# ---------------------------------------------------------------------------


def _unit_kernel(ball: LBall) -> np.ndarray:
    """G1 = T1^T W_quadratic(-1) T1, the kernel in the unit-ball variable.

    With D = D(sqrt s), D W_quadratic(-s) D = W_quadratic(-1) / s, so on the
    slice at depth s, x - c(s) = scale * (u @ T1.T) gives
    W = (rho / s) u^T G1 u.
    """
    T1 = ball.ev.cov.T1
    return T1.T @ ball.ev.W_quadratic(-1.0) @ T1


def _exact_ball_profile(f, ball: LBall, kernel: bool):
    """Profile of exact slice integrals of f (x W), one stacked pass per call.

    The slices come from ``LBall.slices``; a degree-exact unit-ball rule is
    mapped onto each of them, f is evaluated once for all nodes with per-row
    times, and the kernel is (rho/s) u^T G1 u (``_unit_kernel``).
    """
    n = ball.spec.n
    deg = int(getattr(f, "space_degree", 0)) + (2 if kernel else 0)
    nodes, weights = ball_rule(n, deg)
    P = nodes @ ball.ev.cov.T1.T
    mean_weights = weights / unit_ball_volume(n)
    if kernel:
        kern = np.einsum("ij,jk,ik->i", nodes, _unit_kernel(ball), nodes)
    t0 = ball.z0.t

    def profile(s_arr):
        sl = ball.slices(s_arr)
        out = np.zeros(np.size(s_arr))
        if sl.idx.size == 0:
            return out
        X = sl.center[:, None, :] + sl.scale[:, None, :] * P
        t = np.repeat(t0 - sl.s, nodes.shape[0])
        vals = f.evaluate(X.reshape(-1, n), t).reshape(sl.s.size, -1)
        if kernel:
            vals = vals * ((sl.rho / sl.s)[:, None] * kern)
        out[sl.idx] = sl.volume * (vals @ mean_weights)
        return out

    return profile


def integrate_over_ball(f, ball: LBall, cfg: QuadratureConfig,
                        kernel: bool = True) -> IntegralResult:
    """Integral of f (optionally times the mean-value kernel) over the ball.

    Polynomial integrands (anything exposing ``evaluate`` and
    ``space_degree``) take the exact path: degree-exact cubature per slice and
    the adaptive time rule.  General callables f(X, t) take the Monte Carlo
    path, kernel-importance-sampled when ``kernel`` is set so the weight
    singularity near the pole does not inflate the variance.
    """
    if hasattr(f, "space_degree") or isinstance(f, dict):
        if isinstance(f, dict):
            f = AnisoPolynomial(ball.spec.n, {(k, 0): float(c) for k, c in f.items()})
        profile = _exact_ball_profile(f, ball, kernel)
        scale = ball.r if kernel else max(abs(ball.s_max), 1.0)
        res = integrate_time_profile(
            profile, 0.0, ball.s_max,
            order=cfg.time_order, rel_tol=cfg.time_tol,
            abs_tol=cfg.time_tol * scale,
            max_depth=cfg.endpoint_depth,
            max_cells=cfg.max_cells,
        )
        return res

    sampler = MCSampler(ball)
    X, s, p = sampler.sample(cfg.mc_samples, cfg.seed, kernel=kernel,
                             workers=cfg.workers)
    t = ball.z0.t - s
    fx = np.empty(cfg.mc_samples)
    for i in range(cfg.mc_samples):
        fx[i] = f(X[i], t[i])
    if kernel:
        # W(x, -s) = (D^{-1} y)^T W_quadratic(-1) (D^{-1} y) / s with y = x - c(s)
        Z = (X - ball.slices(s).center) * s[:, None] ** -ball.ev.cov.half_weights
        fx = fx * (np.einsum("ij,jk,ik->i", Z, ball.ev.W_quadratic(-1.0), Z) / s)
    contrib = fx / p
    value = float(np.mean(contrib))
    err = float(np.std(contrib, ddof=1) / math.sqrt(cfg.mc_samples))
    return IntegralResult(value, err, "mc", samples=cfg.mc_samples)

