"""Integration machinery over level-set balls and their ellipsoidal slices.

Three layers:

* exact slice integrals: polynomials over ellipsoids via unit-ball monomial
  moments (or degree-exact product cubature on the unit ball), quadratics in
  closed form, and Gaussian-times-quadratic integrands by one stacked
  engine, ``gaussian_quadratic_stack``, which integrates a whole stack of
  slices (a leading slice axis; all nodes of a refinement step) per call: a
  closed-form full-space or zero classification, then a normal-aligned
  tensor rule whose sections lie on lines carrying their Schur-vertex data
  once, with a width-graded Gauss-Legendre order (``gaussian_quadratic_auto``
  and ``gaussian_quadratic_tensor`` are its one-slice calls);
* a 1-d adaptive time integrator with square-root compression at both
  endpoints, which tames the integrable kernel blow-up near the pole and the
  degenerating slices at the far end.  It asks its profile for all cells of
  a refinement step in one call, and the stacked kernels behind the profiles
  work through a call in blocks of at most one cell (``_CELL``), so their
  working set does not grow with the cells a call carries;
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
        if self.time_order < 1:
            raise ValueError("time order must be at least 1")
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
_BLOCK = 4096  # sections per sweep block; keeps the (sections x nodes) temporaries small
_CELL = 24  # slices per stacked-kernel block: one time cell's nodes at the default order 16


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


def _vertex_scalars(D, sv, s1, M, const, lin) -> np.ndarray:
    """(P, Pv, P1, Qvv, Qv1, cc2) per row, stacked, with the offsets D from
    the quadratic's centre: q(D + dv sv + d1 s1) = P + Pv dv + P1 d1
    + Qvv dv^2 + 2 Qv1 dv d1 + cc2 d1^2."""
    MD, Ms1 = np.einsum("kij,kj->ki", M, D), np.einsum("kij,kj->ki", M, s1)
    P = np.einsum("ki,ki->k", D, MD) + const
    Pv, P1 = 2.0 * np.einsum("ki,ki->k", sv, MD), 2.0 * np.einsum("ki,ki->k", s1, MD)
    if lin is not None:
        P, Pv, P1 = (P + np.einsum("ki,ki->k", lin, D), Pv + np.einsum("ki,ki->k", lin, sv),
                     P1 + np.einsum("ki,ki->k", lin, s1))
    return np.stack([P, Pv, P1, np.einsum("ki,kij,kj->k", sv, M, sv),
                     np.einsum("ki,ki->k", sv, Ms1), np.einsum("ki,ki->k", s1, Ms1)])


def _span(c, half):
    """The interval c -/+ half, clipped to the Gaussian window."""
    return np.clip(c - half, -_WINDOW, _WINDOW), np.clip(c + half, -_WINDOW, _WINDOW)


@lru_cache(maxsize=None)
def _w1_rule(order: int):
    """Gauss-Legendre nodes tau = t - 1/2 on the unit interval, as a column,
    and the rows w tau^k (k = 0, 1, 2) that give the moments."""
    t, wt = _leggauss01(order)
    tau = t - 0.5
    return tau[:, None], np.stack([wt, wt * tau, wt * tau * tau])


def _gauss_inplace(x: np.ndarray) -> np.ndarray:
    """e^{-x^2}, written over x."""
    np.square(x, out=x)
    np.negative(x, out=x)
    return np.exp(x, out=x)


def _w1_integrals(lo, hi, w0, b0, b1, c2) -> np.ndarray:
    """int_lo^hi e^{-w^2} (b0 + b1 (w - w0) + c2 (w - w0)^2) dw, elementwise.

    ``lo``, ``hi`` have the sections' shape (hi == lo: empty); the rest
    broadcast to it.  The moments F_k = int (w - mid)^k e^{-w^2} are taken
    about each section's midpoint (0 for the closed forms), so a narrow
    Gaussian far from the quadratic's centre never meets the cancellation of
    a far expansion point.  Sections wider than 1.2 use erf closed forms if
    they reach the Gaussian core, else (tails) three Gauss-Legendre panels.
    A short section uses one Gauss-Legendre rule: e^{-w^2} = e^{-mid^2}
    e^{-2 mid y - y^2} (y = w - mid) varies by at most kappa = width (|mid|
    + width) in the exponent, and for kappa <= 0.5 the 8-node remainder, of
    order (2 kappa)^16 (8!)^4 / (17 (16!)^3), is far below roundoff, so 8
    nodes serve there and 16 elsewhere.  Its offsets from mid are formed
    from the width, (t - 1/2) width: a thin section keeps all their digits.
    """
    width = hi - lo
    wide = width > 1.2
    closed = wide & (lo <= 0.8) & (hi >= -0.8)
    mid = np.where(closed, 0.0, 0.5 * (lo + hi))
    F = np.empty((3, width.size))
    lo_f, hi_f, mid_f, width_f = lo.ravel(), hi.ravel(), mid.ravel(), width.ravel()

    coarse = width_f * (np.abs(mid_f) + width_f) <= 0.5  # never wide
    for sel, order in ((coarse, 8), (~(coarse | wide.ravel()), 16)):
        rows = slice(None) if sel.all() else np.flatnonzero(sel)
        wd, m = width_f[rows], mid_f[rows]
        if not wd.size:
            continue
        tau, wk = _w1_rule(order)
        # offsets from mid: wd (tau + r / wd), with r what rounding leaves
        # between mid and the true midpoint of [lo, hi]
        r = (lo_f[rows] - m) + 0.5 * wd
        e = tau * wd
        e += r
        e += m
        S0, T1, T2 = wk @ _gauss_inplace(e)  # sum_j w_j tau_j^k e^{-x_j^2}
        del e  # the (nodes x sections) block is the largest array here: free it first
        F[:, rows] = (wd * S0, wd * (wd * T1 + r * S0),
                      wd * (wd * (wd * T2 + 2.0 * r * T1) + r * r * S0))

    cf = np.flatnonzero(closed)
    if cf.size:
        F[:, cf] = _erf_moments(lo_f[cf], hi_f[cf])
    tf = np.flatnonzero(wide & ~closed)
    if tf.size:
        sign = np.where(hi_f[tf] < 0.0, -1.0, 1.0)  # panels built on the positive side
        a2 = np.where(sign < 0.0, -hi_f[tf], lo_f[tf])
        # the far tail is cut where e^{-w^2} has fallen by e^{-20}
        b2 = np.minimum(np.where(sign < 0.0, -lo_f[tf], hi_f[tf]), np.sqrt(a2 * a2 + 20.0))
        edges = a2 + _tail_gl(16)[0][:, None] * (b2 - a2)
        h = np.diff(edges, axis=0)  # (panels, tails)
        c = edges[:-1] + 0.5 * h
        tau, wk = _w1_rule(16)
        x = tau[:, :, None] * h
        x += c
        S0, T1, T2 = (wk @ _gauss_inplace(x).reshape(tau.size, -1)).reshape(3, *h.shape)
        y0, g = sign * c - mid_f[tf], sign * h  # node offsets from mid: y0 + g tau
        F[:, tf] = ((h * S0).sum(axis=0), (h * (y0 * S0 + g * T1)).sum(axis=0),
                    (h * (y0 * (y0 * S0 + 2.0 * g * T1) + g * g * T2)).sum(axis=0))

    F = F.reshape((3,) + width.shape)
    d = mid - w0
    return (b0 + d * (b1 + c2 * d)) * F[0] + (b1 + 2.0 * c2 * d) * F[1] + c2 * F[2]


class _Lines(NamedTuple):
    """The lines of the sweep, one row per line (``quad`` has them on its last axis).

    A line is a row of w1 sections along one swept coordinate v.  Its vertex
    point (w1_0, v*) minimises the domain quadratic over the line's plane;
    with dv = v - v*, d1 = w1 - w1_0, a section's level left is
    lev0 - a_v dv^2, its centre w1_0 + g1 dv, and its quadratic
    P + Pv dv + P1 d1 + Qvv dv^2 + 2 Qv1 dv d1 + cc2 d1^2, with the six
    scalars ``quad`` taken at the vertex point's offset from its centre.
    """

    slice: np.ndarray   # the slice of the line
    axis: np.ndarray    # the w-coordinate swept (1 for n = 2)
    vertex: np.ndarray  # (L, n) the vertex point in w: w1_0 and v* among its coordinates
    lo: np.ndarray      # the sweep range in v, inside the Gaussian window
    hi: np.ndarray
    weight: np.ndarray  # the outer weight: 1 for n = 2, wt e^{-o^2} for n = 3
    lev0: np.ndarray
    a_v: np.ndarray
    g1: np.ndarray
    alpha: np.ndarray   # the curvature along w1
    quad: np.ndarray    # (6, L) P, Pv, P1, Qvv, Qv1, cc2


def _lines(center, shape, level, mean, chol_cov_half, M, q_center, const, lin,
           order: int) -> _Lines:
    """The lines of a stack of slices (n = 2, 3) in the frame x = mean + S w.

    S whitens each Gaussian and turns its first axis to the domain boundary
    normal nearest the Gaussian centre.  Once every other coordinate is
    eliminated, the level left on a rest coordinate r falls as
    (r - c_r)^2 / (A^-1)_rr about the ellipsoid centre c_w (A = S^T shape S).
    n = 2 sweeps its one rest coordinate, from the vertex c_w, and n = 3 the
    one of smaller reach, one line per compressed Gauss-Legendre node of the
    outer one, o, whose vertex moves from c_w along the conjugate direction
    u = (k1, km, 1) of (w1, v, o).
    """
    K, n = center.shape
    L2 = 2.0 * chol_cov_half
    cv = np.linalg.solve(L2, (center - mean)[:, :, None])[:, :, 0]
    Aq = np.swapaxes(L2, 1, 2) @ shape @ L2
    S = L2 @ _normal_frame(0.5 * (Aq + np.swapaxes(Aq, 1, 2)), cv)
    A = np.swapaxes(S, 1, 2) @ shape @ S
    A = 0.5 * (A + np.swapaxes(A, 1, 2))
    Sinv = np.linalg.inv(S)
    c_w = np.einsum("kij,kj->ki", Sinv, center - mean)  # ellipsoid centres in w
    G = Sinv[:, 1:, :]
    var = np.einsum("kri,kij,krj->kr", G, np.linalg.inv(shape), G)  # (A^-1)_rr
    ext = np.sqrt(np.maximum(level[:, None] * var, 0.0))
    D = center - q_center  # ellipsoid centres against the quadratic's centres

    if n == 2:
        lo, hi = _span(c_w[:, 1], ext[:, 0])
        k = np.flatnonzero(hi > lo)
        axis, vertex, D_v = np.ones(k.size, dtype=int), c_w[k], D[k]
        lo, hi, weight, lev0, a_v = lo[k], hi[k], np.ones(k.size), level[k], 1.0 / var[k, 0]
    else:
        rows = np.arange(K)
        oi = np.argmax(ext, axis=1)  # the outer coordinate is 1 + oi
        lo, hi = _span(c_w[rows, 1 + oi], ext[rows, oi])
        kv = np.flatnonzero(hi > lo)
        co, cm = 1 + oi[kv], 2 - oi[kv]  # outer and swept coordinates
        o, wo = _compressed_nodes(lo[kv], hi[kv], order)  # (Kv, J2)
        a11, a1m, a1o = A[kv, 0, 0], A[kv, 0, cm], A[kv, 0, co]
        a_m = A[kv, cm, cm] - a1m * a1m / a11  # Schur curvature of the swept coordinate
        km = -(A[kv, cm, co] - a1m * a1o / a11) / a_m
        k1 = -(a1o + a1m * km) / a11
        do = o - c_w[kv, co][:, None]
        lev0 = level[kv, None] - do * do / var[kv, oi[kv]][:, None]
        m0 = c_w[kv, cm][:, None] + km[:, None] * do
        m_lo, m_hi = _span(m0, np.sqrt(np.maximum(lev0, 0.0) / a_m[:, None]))
        pk, jk = np.nonzero(m_hi > m_lo)  # only where lev0 > 0
        k, axis, do = kv[pk], cm[pk], do[pk, jk]
        e = np.arange(3)
        u = k1[pk, None] * (e == 0) + km[pk, None] * (e == axis[:, None]) + (e == co[pk, None])
        vertex = c_w[k] + do[:, None] * u
        D_v = D[k] + do[:, None] * np.einsum("kij,kj->ki", S[k], u)
        lo, hi, lev0, a_v = m_lo[pk, jk], m_hi[pk, jk], lev0[pk, jk], a_m[pk]
        weight = wo[pk, jk] * np.exp(-o[pk, jk] ** 2)

    sv, s1, a11 = S[k, :, axis], S[k, :, 0], A[k, 0, 0]
    return _Lines(k, axis, vertex, lo, hi, weight, lev0, a_v, -A[k, 0, axis] / a11, a11,
                  _vertex_scalars(D_v, sv, s1, M[k], const[k], None if lin is None else lin[k]))


def _line_sweep(ln: _Lines, order: int, K: int) -> np.ndarray:
    """The sum over the lines of each of K slices of their weight times
    sum_j wt_j e^{-v_j^2} I(v_j), over compressed nodes on [lo, hi], with I(v)
    the w1 integral of the section at v; lines go in blocks of at most _BLOCK
    sections."""
    step = max(_BLOCK // (2 * order), 1)
    out = np.empty(ln.slice.size)
    v0, w1_0 = ln.vertex[np.arange(out.size), ln.axis], ln.vertex[:, 0]
    for a in range(0, out.size, step):
        r = slice(a, a + step)
        P, Pv, P1, Qvv, Qv1, cc2 = ln.quad[:, r, None]
        v, wv = _compressed_nodes(ln.lo[r], ln.hi[r], order)
        dv = v - v0[r, None]
        lev = ln.lev0[r, None] - ln.a_v[r, None] * dv * dv
        lo, hi = _span(w1_0[r, None] + ln.g1[r, None] * dv,
                       np.sqrt(np.maximum(lev, 0.0) / ln.alpha[r, None]))
        vals = _w1_integrals(lo, hi, w1_0[r, None], P + dv * (Pv + dv * Qvv),
                             P1 + 2.0 * Qv1 * dv, cc2)
        out[r] = np.einsum("kj,kj->k", wv * np.exp(-v ** 2), vals)
    return np.bincount(ln.slice, weights=ln.weight * out, minlength=K)


def _gauss_tensor_stack(center, shape, level, mean, chol_cov_half, M, q_center,
                        const, lin, order: int | None) -> np.ndarray:
    """The normal-aligned tensor rule for a stack of slices (leading axis).

    In the whitened frame x = mean + S w, whose first axis is the domain
    boundary normal nearest the Gaussian centre, the w1 axis is integrated
    against its exact section limits (``_w1_integrals``), which for n = 1 is
    the whole integral.  For n = 2 and 3 the sections lie on lines carrying
    their Schur-vertex data (``_lines``), swept with ``order`` compressed
    Gauss-Legendre nodes per half line (``_line_sweep``; 48 for n = 2, 32
    for n = 3 by default), ``_CELL`` slices at a time.
    """
    K, n = center.shape
    if n > 3:
        raise NotImplementedError(f"tensor engine not implemented for n={n}")
    const = np.broadcast_to(np.asarray(const, dtype=float), (K,))
    if n == 1:
        s = 2.0 * chol_cov_half[:, :, 0]  # x = mean + s w
        w0 = (center - mean)[:, 0] / s[:, 0]
        P, _, P1, _, _, cc2 = _vertex_scalars(center - q_center, s, s, M, const, lin)
        lo, hi = _span(w0, np.sqrt(np.maximum(level, 0.0) / (s[:, 0] ** 2 * shape[:, 0, 0])))
        return math.pi ** (-0.5) * _w1_integrals(lo, hi, w0, P, P1, cc2)
    order = order or (48 if n == 2 else 32)
    out = np.empty(K)
    for a in range(0, K, _CELL):  # one block's lines alive at a time
        r = slice(a, a + _CELL)
        out[r] = _line_sweep(_lines(center[r], shape[r], level[r], mean[r], chol_cov_half[r],
                                    M[r], q_center[r], const[r], None if lin is None else lin[r],
                                    order), order, out[r].size)
    return math.pi ** (-0.5 * n) * out


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
    args = dict(center=ell.center, shape=ell.shape, level=ell.level, mean=mean,
                chol_cov_half=chol_cov_half, M=M, q_center=q_center, lin=lin)
    return {k: None if a is None else np.asarray(a, dtype=float)[None] for k, a in args.items()}


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
    accept a 1-d array of times and return values of the same shape; it is
    called once per refinement step, for the nodes of every cell the step
    needs (the 8 initial cells, then the two halves of a split cell), cell
    after cell, each cell's ``order`` nodes before its embedded rule's.
    """
    if hi <= lo:
        return IntegralResult(0.0, 0.0, "exact", cells=0)
    H = 0.5 * (hi - lo)
    xs1, ws1, xs2, ws2 = _gl_pair(order)
    xs = np.concatenate([xs1, xs2])

    def eval_cells(cells):
        """(value, error) per (side, a, b) cell, from one profile call."""
        side, a, b = (np.array(c)[:, None] for c in zip(*cells))
        w = a + (b - a) * xs
        s = np.where(side == 0, lo + H * w ** 2, hi - H * w ** 2)
        vals = np.asarray(profile(s.ravel())).reshape(s.shape) * (2.0 * H * w * (b - a))
        i_hi = [float(ws1 @ v[: xs1.size]) for v in vals]
        return [(i, abs(i - float(ws2 @ v[xs1.size:]))) for i, v in zip(i_hi, vals)]

    heap = []
    counter = 0
    total = 0.0
    total_err = 0.0
    ncells = 0
    init = 4
    cells = [(side, k / init, (k + 1) / init) for side in (0, 1) for k in range(init)]
    for (side, a, b), (val, err) in zip(cells, eval_cells(cells)):
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
        halves = [(side, a, mid), (side, mid, b)]
        for (_, aa, bb), (v, e) in zip(halves, eval_cells(halves)):
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
    """Profile of exact slice integrals of f (x W), any number of time cells per call.

    The slices come from one ``LBall.slices`` call; a degree-exact unit-ball
    rule is mapped onto each of them, f is evaluated with per-row times, and
    the kernel is (rho/s) u^T G1 u (``_unit_kernel``).  f runs over blocks of
    whole ``_CELL``-node cells holding at most ``_BLOCK`` rule points, so each
    row keeps its place in the BLAS row layout of ``vals @ mean_weights`` and
    its bits do not depend on how many cells a call carries.
    """
    n = ball.spec.n
    deg = int(getattr(f, "space_degree", 0)) + (2 if kernel else 0)
    nodes, weights = ball_rule(n, deg)
    P = nodes @ ball.ev.cov.T1.T
    mean_weights = weights / unit_ball_volume(n)
    if kernel:
        kern = np.einsum("ij,jk,ik->i", nodes, _unit_kernel(ball), nodes)
    t0 = ball.z0.t
    step = max(_BLOCK // (_CELL * weights.size), 1) * _CELL  # whole cells per block

    def profile(s_arr):
        sl = ball.slices(s_arr)
        out = np.zeros(np.size(s_arr))
        for a in range(0, out.size, step):
            k = slice(*np.searchsorted(sl.idx, [a, a + step]))
            vals = f.evaluate((sl.center[k, None, :] + sl.scale[k, None, :] * P).reshape(-1, n),
                              np.repeat(t0 - sl.s[k], weights.size)).reshape(-1, weights.size)
            if kernel:
                vals = vals * ((sl.rho[k] / sl.s[k])[:, None] * kern)
            out[sl.idx[k]] = sl.volume[k] * (vals @ mean_weights)
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
        # W(x, -s) = y^T W_quadratic(-s) y with y = x - c(s)
        Y = X - ball.slices(s).center
        fx = fx * np.einsum("ij,ijk,ik->i", Y, ball.ev.W_quadratic(-s), Y)
    contrib = fx / p
    value = float(np.mean(contrib))
    err = float(np.std(contrib, ddof=1) / math.sqrt(cfg.mc_samples))
    return IntegralResult(value, err, "mc", samples=cfg.mc_samples)

