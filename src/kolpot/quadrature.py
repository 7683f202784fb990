"""Integration machinery over level-set balls and their ellipsoidal slices.

Three layers:

* exact slice integrals: polynomials over ellipsoids via unit-ball monomial
  moments (or degree-exact product cubature on the unit ball), quadratics in
  closed form, and Gaussian-times-quadratic integrands by one stacked
  engine, ``gaussian_quadratic_stack``, which integrates a whole stack of
  slices (a leading slice axis; all nodes of a time cell) per call: a
  closed-form full-space or zero classification, then a normal-aligned
  tensor rule whose sections carry their quadratic coefficients
  (``gaussian_quadratic_auto`` and ``gaussian_quadratic_tensor`` are its
  one-slice calls);
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
from typing import NamedTuple

import numpy as np
from scipy.special import erf, ndtri

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
    "ellipsoid_polynomial_integral",
    "ellipsoid_quadratic_integral",
    "gaussian_quadratic_stack",
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
# Gaussian x quadratic over ellipsoids: one engine with a leading slice axis
# ---------------------------------------------------------------------------


def gaussian_quadratic_fullspace(mean: np.ndarray, cov: np.ndarray,
                                 M: np.ndarray, q_center: np.ndarray,
                                 const=0.0, lin: np.ndarray | None = None):
    """E[q(X)] for X ~ N(mean, cov) and the centered quadratic q as above.

    Leading axes of the arguments are a stack and give an array; one set of
    arguments gives a float.
    """
    d = mean - q_center
    val = (const + np.einsum("...i,...ij,...j->...", d, M, d)
           + np.einsum("...ij,...ji->...", M, cov))
    if lin is not None:
        val = val + np.einsum("...i,...i->...", lin, d)
    return val if np.ndim(val) else float(val)


_WINDOW = 8.5  # Gaussian reach in e^{-|v|^2} units; exp(-72) beyond
_BLOCK = 1024  # sections per sweep block; keeps the (sections x nodes) temporaries small


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


def _normal_frame(Aq: np.ndarray, cv: np.ndarray) -> np.ndarray:
    """Orthonormal frames (columns) whose first axis points along the domain
    boundary normal nearest the origin (the Gaussian center), one per slice.

    The domain is <Aq (w - cv), w - cv> < level.  The first axis is
    completed by Gram-Schmidt over the coordinate axes, skipping those that
    are numerically dependent.
    """
    K, n = cv.shape
    norm_c = np.linalg.norm(cv, axis=1)
    e1 = np.empty((K, n))
    at_center = norm_c < 1e-12
    if np.any(at_center):
        # largest eigenvalue: smallest axis, nearest boundary
        e1[at_center] = np.linalg.eigh(Aq[at_center])[1][:, :, -1]
    off = ~at_center
    if np.any(off):
        # the ray from the center toward the ellipsoid center cv = |cv| chat
        # meets the boundary first at t = |cv| - h, h = sqrt(level / chat^T Aq chat),
        # where the normal is Aq (t chat - cv) = -h Aq chat.  This closed form
        # needs no root of the ray's quadratic, whose discriminant cancels to
        # noise for thin slices far from the center
        grad = -np.einsum("kij,kj->ki", Aq[off], cv[off] / norm_c[off, None])
        e1[off] = grad / np.linalg.norm(grad, axis=1)[:, None]
    frame = np.zeros((K, n, n))
    frame[:, :, 0] = e1
    count = np.ones(K, dtype=int)
    rows = np.arange(K)
    for k in range(n):
        v = np.zeros((K, n))
        v[:, k] = 1.0
        for j in range(n):  # columns not yet filled are zero and leave v alone
            u = frame[:, :, j]
            v = v - np.einsum("ki,ki->k", v, u)[:, None] * u
        nv = np.linalg.norm(v, axis=1)
        add = (nv > 1e-8) & (count < n)
        frame[rows[add], :, count[add]] = v[add] / nv[add, None]
        count = count + add
    return frame


@lru_cache(maxsize=None)
def _tail_gl(order: int):
    """Panel fractions and panel-local GL nodes for tail segments."""
    y, wy = _leggauss01(order)
    fr = np.array([0.0, 0.18, 0.45, 1.0])
    return fr, y, wy


class _Sections(NamedTuple):
    """Per-slice data of the whitened, normal-aligned problem (x = mean + S w)."""

    E00: np.ndarray     # (K, n) Gaussian center minus ellipsoid center
    D0: np.ndarray      # (K, n) Gaussian center minus quadratic center
    s1: np.ndarray      # (K, n) first frame column of S
    Srest: np.ndarray   # (K, n, n-1) the other columns
    Qs1: np.ndarray     # (K, n) shape @ s1
    alpha: np.ndarray   # (K,) s1^T shape s1
    shape: np.ndarray   # (K, n, n)
    level: np.ndarray   # (K,)
    M: np.ndarray       # (K, n, n) quadratic, symmetric
    Ms1: np.ndarray     # (K, n)
    cc2: np.ndarray     # (K,) s1^T M s1
    const: np.ndarray   # (K,)
    lin: np.ndarray | None     # (K, n)
    lin_s1: np.ndarray | None  # (K,)


def _qform(d: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """d[k]^T Q[k] d[k] per row."""
    return np.einsum("ki,ki->k", np.einsum("kij,kj->ki", Q, d), d)


def _coefficients(sec: _Sections, d: np.ndarray):
    """(b0, b1) with q(d + y s1) = b0 + b1 y + cc2 y^2 per section, d the
    sections' offsets from the quadratic center in x-space."""
    b0 = _qform(d, sec.M) + sec.const
    b1 = 2.0 * np.einsum("ki,ki->k", d, sec.Ms1)
    if sec.lin is not None:
        b0 = b0 + np.einsum("ki,ki->k", d, sec.lin)
        b1 = b1 + sec.lin_s1
    return b0, b1


def _section_integrals(sec: _Sections, g: np.ndarray, w_rest: np.ndarray) -> np.ndarray:
    """int e^{-w1^2} q(x(w1, w_rest)) dw1 over the domain section, per section.

    Section k belongs to slice g[k] and sits at the rest-coordinates
    w_rest[k].  Its endpoints come from the vertex form: the domain
    quadratic's minimum along w1 is evaluated geometrically (vector sums in
    x-space), which stays accurate where the textbook discriminant cancels
    to nothing.  Core sections of moderate length use erf-moment closed
    forms; short and tail sections use Gauss-Legendre nodes against the
    section's quadratic coefficients, expanded about the section midpoint m
    (q = b0 + b1 y + cc2 y^2, y = w1 - m, |y| at most half the section), so
    the huge-coefficient cancellation of an expansion about a far point
    (narrow Gaussian far from the quadratic's center) never materializes.
    """
    K = g.size
    # the per-slice data of every section, gathered once
    sec = _Sections(*(None if a is None else np.take(a, g, axis=0) for a in sec))
    shift = np.zeros((K, sec.E00.shape[1]))
    for j in range(w_rest.shape[1]):
        shift += sec.Srest[:, :, j] * w_rest[:, j, None]
    offs = sec.E00 + shift                     # w1 = 0 point vs ellipsoid center
    w1s = -np.einsum("kn,kn->k", offs, sec.Qs1) / sec.alpha  # vertex of the section quadratic
    offp = offs + w1s[:, None] * sec.s1        # vertex point vs ellipsoid center
    lev = sec.level - _qform(offp, sec.shape)
    mask = lev > 0.0
    half = np.sqrt(np.where(mask, lev, 0.0) / sec.alpha)
    lo = np.clip(w1s - half, -_WINDOW, _WINDOW)
    hi = np.clip(w1s + half, -_WINDOW, _WINDOW)
    mask = mask & (hi > lo)
    out = np.zeros(K)
    if not np.any(mask):
        return out
    closed = (lo <= 0.8) & (hi >= -0.8) & (hi - lo > 1.2)  # core and not short
    cf = np.flatnonzero(mask & closed)
    glm = np.flatnonzero(mask & ~closed)
    # the quadratic's coefficients about w1 = m: 0 for the closed forms, the
    # section midpoint for Gauss-Legendre; D0 + shift + m s1 is that point
    # against the quadratic's center
    m = np.where(closed, 0.0, 0.5 * (lo + hi))
    b0, b1 = _coefficients(sec, sec.D0 + shift + m[:, None] * sec.s1)

    if cf.size:
        F0, F1, F2 = _erf_moments(lo[cf], hi[cf])
        out[cf] = b0[cf] * F0 + b1[cf] * F1 + sec.cc2[cf] * F2

    if glm.size:
        # Gauss-Legendre nodes and weights, (nodes, sections)
        short = (hi[glm] - lo[glm]) <= 1.2
        groups = []
        rs = glm[short]
        if rs.size:
            y16, w16 = _leggauss01(16)
            width = hi[rs] - lo[rs]
            groups.append((rs, lo[rs] + y16[:, None] * width, w16[:, None] * width))
        rf = glm[~short]
        if rf.size:
            a, bb = lo[rf], hi[rf]
            # anchor panels at the endpoint nearest zero, truncate the far tail
            neg = bb < 0.0
            a2 = np.where(neg, -bb, a)
            b2 = np.where(neg, -a, bb)
            b2 = np.minimum(b2, np.sqrt(a2 * a2 + 20.0))
            fr, y, wy = _tail_gl(16)
            edges = a2 + fr[:, None] * (b2 - a2)
            e0, e1 = edges[:-1, None, :], edges[1:, None, :]
            nds = (e0 + y[:, None] * (e1 - e0)).reshape(-1, rf.size)
            wts = (wy[:, None] * (e1 - e0)).reshape(-1, rf.size)
            groups.append((rf, np.where(neg, -nds, nds), wts))
        for rows, nds, wts in groups:
            y = nds - m[rows]
            ew = np.square(nds)
            np.negative(ew, out=ew)
            np.exp(ew, out=ew)
            ew *= wts
            ewy = ew * y
            out[rows] = (b0[rows] * ew.sum(axis=0) + b1[rows] * ewy.sum(axis=0)
                         + sec.cc2[rows] * np.einsum("jk,jk->k", ewy, y))
    return out


def _sweep(sec: _Sections, g, lo, hi, place, order: int) -> np.ndarray:
    """sum_j wt_j e^{-v_j^2} I(v_j) per item, over compressed nodes on [lo, hi].

    Item k belongs to slice g[k]; ``place(rows, v)`` gives the
    rest-coordinates (items, nodes, n - 1) of the sections at nodes v of the
    items ``rows``, and I is their section integral.  Items go through in
    blocks of at most _BLOCK sections.
    """
    J2 = 2 * order
    out = np.empty(g.size)
    step = max(_BLOCK // J2, 1)
    for a in range(0, g.size, step):
        rows = slice(a, min(a + step, g.size))
        v, wv = _compressed_nodes(lo[rows], hi[rows], order)
        w_rest = place(rows, v)
        vals = _section_integrals(sec, np.repeat(g[rows], J2),
                                  w_rest.reshape(-1, w_rest.shape[-1]))
        out[rows] = np.einsum("kj,kj->k", wv * np.exp(-v ** 2), vals.reshape(v.shape))
    return out


def _gauss_tensor_stack(center, shape, level, mean, chol_cov_half, M, q_center,
                        const, lin, order: int | None) -> np.ndarray:
    """The normal-aligned tensor rule for a stack of slices (leading axis).

    Whitens each Gaussian, rotates so that the first axis is the domain
    boundary normal nearest the Gaussian center, integrates that axis
    exactly against the quadratic section limits (``_section_integrals``),
    and sweeps the remaining directions with Gauss-Legendre nodes compressed
    at true projection edges: one outer sweep for n = 2; for n = 3 an outer
    sweep in the rest coordinate of larger reach and, after eliminating w1
    (a Schur complement), an inner sweep between the middle coordinate's
    section limits.  All section and coefficient data are assembled from
    x-space offsets.
    """
    K, n = center.shape
    if n > 3:
        raise NotImplementedError(f"tensor engine not implemented for n={n}")
    if order is None:
        order = 48 if n == 2 else 32
    L2 = 2.0 * chol_cov_half
    cv = np.linalg.solve(L2, (center - mean)[:, :, None])[:, :, 0]
    Aq = np.swapaxes(L2, 1, 2) @ shape @ L2
    Aq = 0.5 * (Aq + np.swapaxes(Aq, 1, 2))
    S = L2 @ _normal_frame(Aq, cv)   # x = mean + S w
    ST = np.swapaxes(S, 1, 2)
    A = ST @ shape @ S
    A = 0.5 * (A + np.swapaxes(A, 1, 2))
    E00 = mean - center                     # offset from the ellipsoid center
    s1 = S[:, :, 0]
    Ms1 = np.einsum("kij,kj->ki", M, s1)
    sec = _Sections(
        E00=E00,
        D0=mean - q_center,                 # offset from the quadratic center
        s1=s1,
        Srest=S[:, :, 1:],
        Qs1=np.einsum("kij,kj->ki", shape, s1),
        alpha=A[:, 0, 0],
        shape=shape,
        level=level,
        M=M,
        Ms1=Ms1,
        cc2=np.einsum("ki,ki->k", s1, Ms1),
        const=np.broadcast_to(np.asarray(const, dtype=float), (K,)),
        lin=lin,
        lin_s1=None if lin is None else np.einsum("ki,ki->k", lin, s1),
    )
    if n == 1:
        return math.pi ** (-0.5) * _section_integrals(sec, np.arange(K), np.zeros((K, 0)))

    # coordinate ranges of the domain in w, from support functions (stable)
    Sinv = np.linalg.inv(S)
    c_w = -np.einsum("kij,kj->ki", Sinv, E00)  # ellipsoid centers in w-coordinates
    G = Sinv[:, 1:, :]
    ext = np.sqrt(np.maximum(
        level[:, None] * np.einsum("kri,kij,krj->kr", G, np.linalg.inv(shape), G), 0.0))
    out = np.zeros(K)
    rows = np.arange(K)

    if n == 2:
        lo_c = np.maximum(c_w[:, 1] - ext[:, 0], -_WINDOW)
        hi_c = np.minimum(c_w[:, 1] + ext[:, 0], _WINDOW)
        kv = np.flatnonzero(hi_c > lo_c)
        out[kv] = math.pi ** (-1.0) * _sweep(sec, kv, lo_c[kv], hi_c[kv],
                                             lambda r, v: v[:, :, None], order)
        return out

    # n == 3: Schur data of the projection onto the rest-plane (eliminate w1)
    alpha = sec.alpha
    A_p = A[:, 1:, 1:] - A[:, 0, 1:, None] * A[:, 0, None, 1:] / alpha[:, None, None]
    oi = np.argmax(ext, axis=1)  # outer index within the rest-plane
    ii = 1 - oi
    lo_c = np.maximum(c_w[rows, 1 + oi] - ext[rows, oi], -_WINDOW)
    hi_c = np.minimum(c_w[rows, 1 + oi] + ext[rows, oi], _WINDOW)
    kv = np.flatnonzero(hi_c > lo_c)
    oi, ii = oi[kv], ii[kv]
    o_nodes, o_wts = _compressed_nodes(lo_c[kv], hi_c[kv], order)  # (Kv, J2)
    s_mid = sec.Srest[kv, :, ii]
    s_out = sec.Srest[kv, :, oi]
    # vertex of the projected quadratic in the middle coordinate, then its
    # value evaluated geometrically through the doubly-minimizing point
    b_p = 2.0 * np.einsum("kij,kjl,kl->ki", ST[kv], shape[kv], E00[kv])
    b_p = b_p[:, 1:] - b_p[:, :1] * A[kv, 0, 1:] / alpha[kv, None]
    a_mid = A_p[kv, ii, ii][:, None]
    beta_p = b_p[np.arange(kv.size), ii][:, None] + 2.0 * A_p[kv, ii, oi][:, None] * o_nodes
    m_star = -beta_p / (2.0 * a_mid)
    offs_mo = (E00[kv, None, :] + m_star[:, :, None] * s_mid[:, None, :]
               + o_nodes[:, :, None] * s_out[:, None, :])
    w1_star = -np.einsum("kjn,kn->kj", offs_mo, sec.Qs1[kv]) / alpha[kv, None]
    offp = offs_mo + w1_star[:, :, None] * sec.s1[kv, None, :]
    lev_m = level[kv, None] - np.einsum("kji,kil,kjl->kj", offp, shape[kv], offp)
    okm = lev_m > 0.0
    half_m = np.sqrt(np.where(okm, lev_m, 0.0) / a_mid)
    m_lo = np.clip(m_star - half_m, -_WINDOW, _WINDOW)
    m_hi = np.clip(m_star + half_m, -_WINDOW, _WINDOW)
    keep = okm & (m_hi > m_lo)
    pk = np.nonzero(keep)[0]  # per pair: its position in kv
    o_keep = o_nodes[keep]
    outer_first = oi[pk] == 0

    def place(r, v):
        o = np.broadcast_to(o_keep[r, None], v.shape)
        first = outer_first[r, None]
        return np.stack([np.where(first, o, v), np.where(first, v, o)], axis=-1)

    inner = _sweep(sec, kv[pk], m_lo[keep], m_hi[keep], place, order)
    total = np.bincount(kv[pk], weights=o_wts[keep] * np.exp(-o_keep ** 2) * inner,
                        minlength=K)
    return math.pi ** (-1.5) * total


def gaussian_quadratic_stack(center, shape, level, mean, chol_cov_half, M, q_center,
                             const=0.0, lin=None) -> np.ndarray:
    """Gaussian x quadratic integrals over a stack of ellipsoids (leading axis).

    Slice k integrates

        (4 pi)^{-n/2} det(C)^{-1/2} exp(-<C^{-1}(x-mean), x-mean>/4) * q(x)

    over {x : <shape (x - center), x - center> < level}, where
    ``chol_cov_half`` is the lower Cholesky factor L of C and q is the
    centered quadratic (const, lin, M) around ``q_center``, M symmetric.
    ``const`` is a scalar or one value per slice.  Each whitened domain is
    classified first: a boundary everywhere beyond the Gaussian window
    collapses to the closed-form full-space moment (or to zero when the
    center is outside), and everything else goes to the normal-aligned
    tensor rule (``_gauss_tensor_stack``).
    """
    K = center.shape[0]
    E00 = mean - center
    h0 = np.sqrt(np.maximum(np.einsum("ki,kij,kj->k", E00, shape, E00) / level, 0.0))
    # conservative whitened distance from the Gaussian center to the domain
    # boundary: |Mahalanobis - 1| times the smallest whitened semiaxis, which
    # is at least sqrt(rho / tr(L2^T Q L2))
    L2 = 2.0 * chol_cov_half
    tr = np.einsum("kij,kij->k", shape @ L2, L2)
    amin = np.sqrt(np.where(tr > 0.0, level / np.where(tr > 0.0, tr, 1.0), 0.0))
    far = np.abs(h0 - 1.0) * amin >= _WINDOW
    const = np.broadcast_to(np.asarray(const, dtype=float), (K,))
    out = np.zeros(K)
    full = far & (h0 < 1.0)
    if np.any(full):
        L = chol_cov_half[full]
        out[full] = gaussian_quadratic_fullspace(
            mean[full], 2.0 * (L @ np.swapaxes(L, 1, 2)), M[full], q_center[full],
            const=const[full], lin=None if lin is None else lin[full])
    near = ~far
    if np.any(near):
        out[near] = _gauss_tensor_stack(
            center[near], shape[near], level[near], mean[near], chol_cov_half[near],
            M[near], q_center[near], const[near], None if lin is None else lin[near], None)
    return out


def _one_slice(ell: Ellipsoid, mean, chol_cov_half, M, q_center, lin):
    """The arguments of one slice, as a stack of one for the engine."""
    return dict(
        center=ell.center[None], shape=ell.shape[None], level=np.array([ell.level]),
        mean=np.asarray(mean, dtype=float)[None],
        chol_cov_half=np.asarray(chol_cov_half, dtype=float)[None],
        M=np.asarray(M, dtype=float)[None], q_center=np.asarray(q_center, dtype=float)[None],
        lin=None if lin is None else np.asarray(lin, dtype=float)[None],
    )


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
    """The tensor rule of ``gaussian_quadratic_stack`` on one slice, unclassified."""
    args = _one_slice(ell, mean, chol_cov_half, M, q_center, lin)
    return float(_gauss_tensor_stack(const=const, order=order, **args)[0])


def gaussian_quadratic_auto(
    ell: Ellipsoid,
    mean: np.ndarray,
    chol_cov_half: np.ndarray,
    M: np.ndarray,
    q_center: np.ndarray,
    const: float = 0.0,
    lin: np.ndarray | None = None,
) -> float:
    """``gaussian_quadratic_stack`` on one slice."""
    args = _one_slice(ell, mean, chol_cov_half, M, q_center, lin)
    return float(gaussian_quadratic_stack(const=const, **args)[0])


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

