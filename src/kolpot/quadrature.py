"""Integration machinery over level-set balls and their ellipsoidal slices.

Two layers:

* exact slice integrals: polynomials by a degree-exact cubature on the unit
  ball mapped onto each slice (``ball_rule``, Gauss-Jacobi in one coordinate
  times the rule of the ball one dimension down, for any n), and
  Gaussian-times-quadratic integrands by one stacked engine,
  ``gaussian_quadratic_stack``, which integrates a whole stack of slices (a
  leading slice axis; all nodes of a refinement step) per call: a
  closed-form full-space or zero classification, then a normal-aligned
  tensor rule whose sections lie on lines carrying their Schur-vertex data
  once, sections, lines and n = 3 outer ranges at a priori orders from their
  boxes (``_rung``), short ones (``_short``) by one rule over the whole
  chord, whose square-root ends it takes exactly, and every offset formed
  from the half-widths, so slices near the kernel's pole keep their digits;
* a 1-d adaptive time integrator: a Gauss-Kronrod pair per cell with
  QUADPACK's error model, and square-root compression at both endpoints,
  which tames the degenerating slices at the ends.  An integral that reaches
  a pole declares it and runs in sigma = log(S/s) (``_pole_map``), where the
  pole's power law and log factor become a smooth exponential tail.  The
  integrator runs any number of integrals (pieces) in lockstep and asks its
  profile for all cells of a refinement step of all of them in one call
  (``_integrate_pieces``); the stacked kernels behind the profiles work
  through a call in blocks of one or a few cells (``_CELL``), so their
  working set does not grow with the cells a call carries, and a slice's
  value does not depend on the other slices of its call.
"""

from __future__ import annotations

import heapq
import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.special import erfc, roots_jacobi

from .balls import LBall, unit_ball_volume
from .errors import ToleranceWarning

__all__ = [
    "QuadratureConfig",
    "IntegralResult",
    "ball_rule",
    "gaussian_quadratic_stack",
    "gaussian_quadratic_fullspace",
    "integrate_time_profile",
    "integrate_over_ball",
]


@dataclass(frozen=True)
class QuadratureConfig:
    """Knobs shared by all integration routines.

    ``time_order`` = m selects the time rule's Gauss-Kronrod pair G_m/K_{2m+1}
    (2m + 1 profile nodes per cell), ``time_tol`` its tolerance, and
    ``endpoint_depth`` caps its dyadic refinement depth, counted in sigma =
    log(S/s) on the integrals that reach the kernel's pole.  ``max_cells``
    caps the cells of one time integral; the rule always spends its 4
    initial cells, so it is at least 4.  ``seed`` keys the Monte Carlo
    samples of the L^p gluing check.  ``mc_samples`` changes no number: the
    reports echo it under ``tolerances``.
    """

    time_order: int = 10
    time_tol: float = 1e-9
    endpoint_depth: int = 48
    max_cells: int = 4096
    mc_samples: int = 20000
    seed: int = 0

    def __post_init__(self):
        if self.time_order < 1:
            raise ValueError("time order must be at least 1")
        if self.time_tol <= 0.0:
            raise ValueError("time tolerance must be positive")
        if self.endpoint_depth < 1:
            raise ValueError("endpoint_depth must be at least 1")
        if self.max_cells < 4:
            raise ValueError("max_cells must be at least 4, the time rule's initial cells")
        if self.mc_samples <= 0:
            raise ValueError("mc_samples must be positive")
        if not 0 <= int(self.seed) < 2 ** 63:
            raise ValueError("seed must fit in a 63-bit nonnegative integer")


@dataclass
class IntegralResult:
    value: float
    error: float
    cells: int = 0
    converged: bool = True
    flags: tuple[str, ...] = field(default_factory=tuple)

    def __float__(self):
        return self.value


# ---------------------------------------------------------------------------
# degree-exact unit-ball rules
# ---------------------------------------------------------------------------


def _frozen(*arrays):
    """The arrays, made read-only: a cached rule hands them to every caller."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


@lru_cache(maxsize=None)
def _leggauss01(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return _frozen(0.5 * (x + 1.0), 0.5 * w)


@lru_cache(maxsize=None)
def ball_rule(n: int, degree: int):
    """Cubature rule on the unit ball of R^n exact for polynomials <= degree.

    With m = degree // 2 + 1: Gauss-Legendre with m nodes for n = 1, and for
    n > 1 the product over B^n = {(sqrt(1 - t^2) y, t) : y in B^(n-1)} of m
    Gauss-Jacobi nodes in t, weight (1 - t^2)^((n-1)/2), with
    ``ball_rule(n - 1, degree)`` scaled by sqrt(1 - t^2).  A monomial y^b t^k
    becomes (1 - t^2)^(|b|/2) y^b t^k; the inner rule integrates it to zero
    unless every exponent in b is even, and otherwise leaves a polynomial
    in t of degree <= degree, within the 2m - 1 of the Jacobi rule (Stroud,
    *Approximate Calculation of Multiple Integrals*, 1971).  m^n nodes,
    returned with their weights as read-only arrays.
    """
    m = max(int(degree), 0) // 2 + 1
    if n == 1:
        x, weights = np.polynomial.legendre.leggauss(m)
        nodes = x[:, None]
    else:
        t, wt = roots_jacobi(m, 0.5 * (n - 1), 0.5 * (n - 1))
        y, wy = ball_rule(n - 1, degree)
        rad = np.sqrt(1.0 - t * t)
        nodes = np.concatenate([(rad[:, None, None] * y).reshape(-1, n - 1),
                                np.repeat(t, wy.size)[:, None]], axis=1)
        weights = np.outer(wt, wy).ravel()
    return _frozen(nodes, weights)


# ---------------------------------------------------------------------------
# Gaussian x quadratic over ellipsoids: one engine with a leading slice axis
# ---------------------------------------------------------------------------


def gaussian_quadratic_fullspace(mean: np.ndarray, cov: np.ndarray,
                                 M: np.ndarray, q_center: np.ndarray):
    """E[q(X)] for X ~ N(mean, cov) and q(x) = <M (x - q_center), x - q_center>.

    Leading axes of the arguments are a stack and give an array; one set of
    arguments gives a float.
    """
    one = np.ndim(mean) == 1
    if one:
        mean, cov, M, q_center = mean[None], cov[None], M[None], np.asarray(q_center)[None]
    d = mean - q_center
    val = _by_rows(_quad_form, d, M, d) + np.einsum("kij,kji->k", M, cov)
    return float(val[0]) if one else val


def _by_rows(f, *stacks):
    """f over stacks with a leading row axis, each row's bits independent of
    the other rows: numpy takes a lone row through other loops (einsum folds
    its axes, matmul calls gemv) whose bits differ, so it goes in twice."""
    if len(stacks[0]) != 1:
        return f(*stacks)
    return f(*(np.concatenate([s, s]) for s in stacks))[:1]


def _quad_form(a, M, b):
    """<a, M b> per row."""
    return np.einsum("ki,kij,kj->k", a, M, b)


def _column_sums(w, g):
    """w @ g, each column's bits independent of the other columns.  BLAS runs
    the leftover columns of a block through other kernels, whose bits differ,
    but takes the rows of g^T @ w^T alike (``_by_rows``)."""
    return _by_rows(lambda rows: rows @ w.T, g.T).T


_WINDOW = 8.5  # Gaussian reach in e^{-|v|^2} units; exp(-72) beyond
_BLOCK = 4096  # sections per sweep block; keeps the (sections x nodes) temporaries small
_CELL = 21  # slices per stacked-kernel block: one time cell's nodes at the default order 10
_KAPPA0 = 4.0  # the bound on kappa of a short chord (``_short``)
# (kappa bound, nodes) rungs of the sweep's rules (``_rung``): a short box's whole-chord rule, and
# compressed nodes per half line of a long n = 3 slice's outer range and of a long line (n = 2, 3)
_RUNGS = {"chord": ((1.0, 8), (math.inf, 16)), "outer": ((12.0, 16), (64.0, 24), (math.inf, 32)),
          2: ((math.inf, 48),), 3: ((math.inf, 32),)}


def _line_nodes(c, half, order: int):
    """(dv, weights times e^{-v^2}) of a rule over c -/+ half inside the
    Gaussian window, which it meets: two Gauss-Legendre pieces, each
    compressed as end + span y^2 toward its outer end, which renders
    sqrt(w - edge) factors analytic.  The nodes are offsets dv from c
    (``_reach``), which carry a thin slice's geometry; e^{-v^2} is taken at
    points v formed from the ends, exactly -/+ ``_WINDOW`` where the window
    binds.  Nodes go on a new last axis."""
    y, wy = _leggauss01(order)
    lo, hi = _reach(c, half)
    span = 0.5 * (hi - lo)[..., None]
    sy = span * (y * y)
    a, b = np.maximum(c - half, -_WINDOW)[..., None], np.minimum(c + half, _WINDOW)[..., None]
    dv = np.concatenate([lo[..., None] + sy, hi[..., None] - sy], axis=-1)
    w = span * (2.0 * y * wy)
    return dv, np.concatenate([w, w], axis=-1) * _gauss_inplace(
        np.concatenate([a + sy, b - sy], axis=-1))


def _rung(kind, kappa) -> np.ndarray:
    """The nodes of each range's rule: the first rung of ``_RUNGS[kind]`` whose
    bound its kappa meets.  The 8-node chord's remainder, (2 kappa)^16 (8!)^4 /
    (17 (16!)^3), is 1e-17 at kappa 1.15; against 30-digit quadrature a
    compressed half line first misses 1e-14 at kappa 16 (16 nodes), 76 (24)."""
    bounds, nodes = zip(*_RUNGS[kind])
    return np.asarray(nodes)[np.searchsorted(bounds, kappa)]


@lru_cache(maxsize=None)
def _chord_rule(m: int, weighted: bool):
    """(t, w, 1 - t^2) of an m-node rule on (-1, 1).  ``weighted``: Gauss-
    Chebyshev of the second kind, t_i = cos(theta_i), theta_i = i pi / (m + 1),
    exact on sqrt(1 - t^2) p(t) for deg p < 2m; its weights pi / (m + 1)
    sin^2(theta_i) come divided by sqrt(1 - t_i^2) = sin(theta_i), so the rule
    takes the whole integrand.  Else Gauss-Legendre."""
    if weighted:
        theta = np.arange(1, m + 1) * (math.pi / (m + 1))
        st = np.sin(theta)
        return _frozen(np.cos(theta), (math.pi / (m + 1)) * st, st * st)
    t, w = np.polynomial.legendre.leggauss(m)
    return _frozen(t, w, (1.0 - t) * (1.0 + t))


def _chord_nodes(c, half, m: int, weighted: bool):
    """(dv, weights times e^{-v^2}, 1 - (dv / half)^2) of the m-node
    ``_chord_rule`` over the whole chord c -/+ half, which the Gaussian window
    does not clip (``_short``).  The nodes are offsets dv from c, and the
    third array, the share of the level left at each node, is exact: it does
    not round through dv.  Nodes go on a new last axis."""
    t, w, rest = _chord_rule(m, weighted)
    half = half[..., None]
    dv = half * t
    return dv, half * w * _gauss_inplace(c[..., None] + dv), rest


def _normal_frame(Aq: np.ndarray, cv: np.ndarray) -> np.ndarray:
    """Orthonormal frames (columns) whose first axis points along the domain
    boundary normal nearest the origin (the Gaussian center), one per slice.

    The domain is <Aq (w - cv), w - cv> < level.  The first axis e1 is
    completed by the Householder reflection I - 2 v v^T / |v|^2,
    v = e1 + sign(e1_0) E0 (E0 the first coordinate axis), which swaps E0
    with -sign(e1_0) e1; v_0 is at least 1 in size, so the reflection never
    degenerates, whatever e1.  Its first column is then set to e1.
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
    v = e1.copy()
    v[:, 0] += np.where(e1[:, 0] < 0.0, -1.0, 1.0)
    frame = np.eye(n) - (2.0 / np.einsum("ki,ki->k", v, v))[:, None, None] * (
        v[:, :, None] * v[:, None, :])
    frame[:, :, 0] = e1
    return frame


def _vertex_scalars(D, sv, s1, M) -> np.ndarray:
    """(P, Pv, P1, Qvv, Qv1, cc2) per row, stacked, with the offsets D from
    the quadratic's centre: q(D + dv sv + d1 s1) = P + Pv dv + P1 d1
    + Qvv dv^2 + 2 Qv1 dv d1 + cc2 d1^2, q(x) = <M x, x>."""
    MD, Ms1 = np.einsum("kij,kj->ki", M, D), np.einsum("kij,kj->ki", M, s1)
    return np.stack([np.einsum("ki,ki->k", D, MD), 2.0 * np.einsum("ki,ki->k", sv, MD),
                     2.0 * np.einsum("ki,ki->k", s1, MD), _by_rows(_quad_form, sv, M, sv),
                     np.einsum("ki,ki->k", sv, Ms1), np.einsum("ki,ki->k", s1, Ms1)])


def _reach(c, half):
    """Offsets (lo, hi) from c of the interval c -/+ half inside the Gaussian
    window (hi == lo: empty).  The window clips only where it binds, so an
    interval inside it keeps every digit of ``half`` however far c lies out."""
    lo = np.maximum(-half, -_WINDOW - c)
    return lo, np.maximum(np.minimum(half, _WINDOW - c), lo)


@lru_cache(maxsize=None)
def _w1_rule(order: int):
    """Gauss-Legendre nodes tau = t - 1/2 on the unit interval, as a column,
    and the rows w tau^k (k = 0, 1, 2) that give the moments."""
    t, wt = _leggauss01(order)
    tau = t - 0.5
    return _frozen(tau[:, None], np.stack([wt, wt * tau, wt * tau * tau]))


def _gauss_inplace(x: np.ndarray) -> np.ndarray:
    """e^{-x^2}, written over x."""
    np.square(x, out=x)
    np.negative(x, out=x)
    return np.exp(x, out=x)


def _w1_integrals(c, half, d, b0, b1, c2) -> np.ndarray:
    """int e^{-w^2} (b0 + b1 y + c2 y^2) dw over the sections c -/+ half
    inside the Gaussian window, y = w - c + d, elementwise (``c``, ``half``
    in the sections' shape; d, c's offset from the quadratic's expansion
    point, and the coefficients broadcast to it).

    The ends are offsets from c (``_reach``), so a thin section keeps its
    width's digits however far out it lies.  The moments F_k = int (w -
    mid)^k e^{-w^2} are taken about each section's midpoint, which its float,
    mid, misses by r, so a narrow Gaussian far from the quadratic's centre
    never meets the cancellation of a far expansion point.  A short section
    uses one Gauss-Legendre rule: e^{-w^2} = e^{-mid^2} e^{-2 mid y - y^2}
    (y = w - mid) varies by at most kappa = width (|mid| + width) in the
    exponent, and for kappa <= 0.5 the 8-node remainder, of order (2 kappa)^16
    (8!)^4 / (17 (16!)^3), is far below roundoff, so 8 nodes serve there and
    16 elsewhere.  A section wider than 1.2 is taken in closed form, mirrored
    so that m = |mid| >= 0, from its ends a < b and half-width h:
    G0 = (sqrt(pi)/2)(erfc a - erfc b), G1 = (e^{-a^2} - e^{-b^2})/2 - m G0,
    G2 = G0/2 - h (e^{-a^2} + e^{-b^2})/2 - m G1, where erfc keeps its
    digits in the far tail; the mirror flips the sign of G1, and its r is
    below the roundoff of a and b.  The erfc differences leave about (a m)^2
    ulps of int |f| where the quadratic's weight sits at a far tail's near
    end.
    """
    lo, hi = _reach(c, half)
    width = hi - lo
    e = 0.5 * (lo + hi)  # the midpoint's offset from c
    mid = c + e
    F = np.empty((3, width.size))
    c_f, lo_f, hi_f, e_f, mid_f, width_f = (a.ravel() for a in (c, lo, hi, e, mid, width))

    wide = width_f > 1.2
    coarse = width_f * (np.abs(mid_f) + width_f) <= 0.5  # never wide
    for sel, order in ((coarse, 8), (~(coarse | wide), 16)):
        rows = slice(None) if sel.all() else np.flatnonzero(sel)
        wd, m = width_f[rows], mid_f[rows]
        if not wd.size:
            continue
        tau, wk = _w1_rule(order)
        x = tau * wd
        x += (c_f[rows] - m) + e_f[rows]  # mid + r is the midpoint (Fast2Sum: |e| <= |c|)
        x += m
        S0, T1, T2 = _column_sums(wk, _gauss_inplace(x))  # sum_j w_j tau_j^k e^{-x_j^2}
        del x  # the (nodes x sections) block is the largest array here: free it first
        F[:, rows] = (wd * S0, wd * wd * T1, wd * wd * wd * T2)

    wf = np.flatnonzero(wide)
    if wf.size:
        neg, m, h = mid_f[wf] < 0.0, np.abs(mid_f[wf]), 0.5 * width_f[wf]
        ends = c_f[wf] + lo_f[wf], c_f[wf] + hi_f[wf]  # not m -/+ h: e rounds at lo's scale
        a, b = np.where(neg, -ends[1], ends[0]), np.where(neg, -ends[0], ends[1])
        e_a, e_b = np.exp(-a * a), np.exp(-b * b)
        G0 = (0.5 * math.sqrt(math.pi)) * (erfc(a) - erfc(b))
        G1 = 0.5 * (e_a - e_b) - m * G0
        F[:, wf] = (G0, np.where(neg, -G1, G1), 0.5 * (G0 - h * (e_a + e_b)) - m * G1)

    F = F.reshape((3,) + width.shape)
    d = d + e  # the midpoint's offset from the expansion point
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
    half: np.ndarray    # the half-length of the line: v* -/+ half, before the Gaussian window
    rule: np.ndarray    # m compressed nodes per half line, or -m: m over a short chord (``_short``)
    weight: np.ndarray  # the outer weight: 1 for n = 2, wt e^{-o^2} for n = 3
    lev0: np.ndarray
    a_v: np.ndarray
    g1: np.ndarray
    alpha: np.ndarray   # the curvature along w1
    quad: np.ndarray    # (6, L) P, Pv, P1, Qvv, Qv1, cc2


def _kappa(c, lo, hi) -> np.ndarray:
    """len (|mid| + len) of the intervals c + (lo, hi) (``_reach``): a box's kappa,
    their sum over its coordinates, bounds the move of e^{-|w|^2}'s exponent on it."""
    length = hi - lo
    return length * (np.abs(c + 0.5 * (lo + hi)) + length)


def _short(c, half) -> np.ndarray:
    """Whether the boxes c -/+ half (coordinates on the last axis) are short and
    take a rule over the whole chord (``_chord_nodes``): the Gaussian window
    clips none of their coordinates, and their kappa is at most ``_KAPPA0``,
    where 16 nodes' remainder (2 kappa)^32 (16!)^4 / (33 (32!)^3) is 2.5e-26.
    A line's box covers its sections' reach in w1: at the Gaussian's core they
    vary like erf(half-width).  A clipped box ends inside the domain, where no
    square-root factor vanishes for the chord rule to take up: never short."""
    lo, hi = _reach(c, half)
    unclipped = np.all((lo == -half) & (hi == half), axis=-1)
    return unclipped & (np.sum(_kappa(c, lo, hi), axis=-1) <= _KAPPA0)


def _lines(center, shape, level, mean, chol_cov_half, M, q_center) -> _Lines:
    """The lines of a stack of slices (n = 2, 3) in the frame x = mean + S w.

    S whitens each Gaussian and turns its first axis to the domain boundary
    normal nearest the Gaussian centre.  Each slice starts as one line along
    its swept coordinate v, from its centre c_w at its whole level.  n = 3
    first sweeps its rest coordinate of larger reach, o, whose reach about
    c_w is sqrt(level (A^-1)_oo) (A = S^T shape S), and puts one line on
    each outer node; the line's vertex moves from c_w along the conjugate
    direction u = (k1, km, 1) of (w1, v, o), and its level falls as
    (o - c_o)^2 / (A^-1)_oo.  On a short slice (``_short``) a cross-section
    shrinks as 1 - tau^2 at o = c_o + h_o tau, so a line's integral is
    (1 - tau^2) times an entire function of tau, which 16 plain
    Gauss-Legendre nodes over the outer chord take; a long slice's outer
    range is graded by its kappa (``_rung``).  Every line then falls along v
    with the Schur complement of w1, a_v = A_vv - A_1v^2 / A_11.  A line is
    short, and in a long n = 3 slice graded, by its (v, w1) box.
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
    D = center - q_center  # ellipsoid centres against the quadratic's centres
    rows = np.arange(K)
    axis = np.ones(K, dtype=int)  # the swept coordinate v
    if n == 3:
        var = np.einsum("kri,kij,krj->kr", Sinv, np.linalg.inv(shape), Sinv)  # (A^-1)_rr
        reach = np.sqrt(np.maximum(level[:, None] * var, 0.0))  # the slices' reach about c_w
        co = 1 + np.argmax(reach[:, 1:], axis=1)  # the outer coordinate
        axis = 3 - co
    a1v = A[rows, 0, axis]
    a_v = A[rows, axis, axis] - a1v * a1v / A[:, 0, 0]  # Schur curvature of v
    # the line state: one line per slice, its vertex c_w + do u at offset do = 0
    k, do, u = rows, np.zeros(K), np.zeros((K, n))
    lev0, weight, graded = level, np.ones(K), np.zeros(K, dtype=bool)
    if n == 3:  # one line per outer node instead
        lo, hi = _reach(c_w[rows, co], reach[rows, co])
        kv = np.flatnonzero(hi > lo)
        co, cm, c_o, h_o = co[kv], axis[kv], c_w[kv, co[kv]], reach[kv, co[kv]]
        key = np.where(_short(c_w[kv], reach[kv]), 0, _rung("outer", _kappa(c_o, lo[kv], hi[kv])))
        do = np.zeros((kv.size, 2 * _rung("outer", math.inf)))  # offsets from c_o, a row per slice
        wo, lev0 = np.zeros_like(do), np.full_like(do, -1.0)  # padding: no lines
        for m in np.unique(key):  # 0: the whole-chord rule
            g = np.flatnonzero(key == m)
            if m:
                d, w = _line_nodes(c_o[g], h_o[g], m)
                lv = level[kv[g], None] - d * d / var[kv[g], co[g]][:, None]
            else:
                d, w, rest = _chord_nodes(c_o[g], h_o[g], _rung("chord", math.inf), False)
                lv = level[kv[g], None] * rest
            do[g, :d.shape[1]], wo[g, :d.shape[1]], lev0[g, :d.shape[1]] = d, w, lv
        a11, a1m, a1o = A[kv, 0, 0], a1v[kv], A[kv, 0, co]
        km = -(A[kv, cm, co] - a1m * a1o / a11) / a_v[kv]
        k1 = -(a1o + a1m * km) / a11
        u[kv, 0], u[kv, cm], u[kv, co] = k1, km, 1.0
        k, do = np.repeat(kv, do.shape[1]), do.ravel()
        lev0, weight, graded = lev0.ravel(), wo.ravel(), np.repeat(key > 0, wo.shape[1])

    v0 = c_w[k, axis[k]] + do * u[k, axis[k]]  # the vertex's v
    half = np.sqrt(np.maximum(lev0, 0.0) / a_v[k])
    lo, hi = _reach(v0, half)
    p = np.flatnonzero(hi > lo)  # only where lev0 > 0
    k, do, v0, half, lev0, weight, graded = (k[p], do[p], v0[p], half[p], lev0[p], weight[p],
                                             graded[p])
    axis, a_v, u = axis[k], a_v[k], u[k]
    vertex = c_w[k] + do[:, None] * u
    D_v = D[k] + do[:, None] * np.einsum("kij,kj->ki", S[k], u)
    sv, s1, a11 = S[k, :, axis], S[k, :, 0], A[k, 0, 0]
    g1 = -A[k, 0, axis] / a11
    reach_1 = np.abs(g1) * half + np.sqrt(lev0 / a11)  # the line's box: v, and its sections' w1
    box = np.stack([v0, vertex[:, 0]], axis=-1), np.stack([half, reach_1], axis=-1)
    kappa = math.inf  # the last rung: every line of n = 2 and of a short n = 3 slice
    if graded.any():
        kappa = np.where(graded, np.sum(_kappa(box[0], *_reach(*box)), axis=-1), math.inf)
    rule = np.where(_short(*box), -_rung("chord", kappa), _rung(n, math.inf))
    return _Lines(k, axis, vertex, half, rule, weight, lev0, a_v, g1, a11,
                  _vertex_scalars(D_v, sv, s1, M[k]))


def _line_sweep(ln: _Lines, K: int) -> np.ndarray:
    """The sum over the lines of each of K slices of their weight times
    sum_j wt_j e^{-v_j^2} I(v_j), over nodes v = v* + dv on the line, with
    I(v) the w1 integral of the section at v; nodes and sections are offsets
    from the line's vertex.  At dv = half t the section's half-width is
    H sqrt(1 - t^2), and I(v) is that times an entire function of t.  A short
    line (``_short``) takes an m-node Gauss-Chebyshev rule of the second kind
    over its whole chord, whose weight is that square root; any other m
    compressed nodes per half line.  Each rule's lines go in blocks of at most
    ``_BLOCK`` sections: ``_BLOCK // m`` short lines, or ``_BLOCK // (2 m)``."""
    out = np.empty(ln.slice.size)
    v0, w1_0 = ln.vertex[np.arange(out.size), ln.axis], ln.vertex[:, 0]
    for rule in np.unique(ln.rule):
        lines, chord, order = np.flatnonzero(ln.rule == rule), rule < 0, abs(int(rule))
        step = max(_BLOCK // (order if chord else 2 * order), 1)
        for a in range(0, lines.size, step):
            r = lines[a:a + step]
            P, Pv, P1, Qvv, Qv1, cc2 = ln.quad[:, r, None]
            if chord:
                dv, wv, rest = _chord_nodes(v0[r], ln.half[r], order, True)
                lev = ln.lev0[r, None] * rest
            else:
                dv, wv = _line_nodes(v0[r], ln.half[r], order)
                lev = ln.lev0[r, None] - ln.a_v[r, None] * dv * dv
            d = ln.g1[r, None] * dv  # the section centre's offset from w1_0
            c = w1_0[r, None] + d
            vals = _w1_integrals(c, np.sqrt(np.maximum(lev, 0.0) / ln.alpha[r, None]), d,
                                 P + dv * (Pv + dv * Qvv), P1 + 2.0 * Qv1 * dv, cc2)
            out[r] = np.einsum("kj,kj->k", wv, vals)
    return np.bincount(ln.slice, weights=ln.weight * out, minlength=K)


def _gauss_tensor_stack(center, shape, level, mean, chol_cov_half, M, q_center) -> np.ndarray:
    """The normal-aligned tensor rule for a stack of slices (leading axis).

    In the whitened frame x = mean + S w, whose first axis is the domain
    boundary normal nearest the Gaussian centre, the w1 axis is integrated
    against its exact section limits (``_w1_integrals``), which for n = 1 is
    the whole integral.  For n = 2 and 3 the sections lie on lines carrying
    their Schur-vertex data, built on one path (``_lines``), and are swept
    line by line (``_line_sweep``).  A line or n = 3 outer range whose box
    is short (``_short``) takes one rule over its whole chord, any other
    compressed Gauss-Legendre nodes per half line, at orders from
    ``_RUNGS``.  n = 2 has one line per slice and builds the lines of a whole
    call at once; n = 3 builds and sweeps ``2 * _CELL`` slices, a refinement
    step's, at a time, so its working set does not grow with the cells a
    call carries.
    """
    K, n = center.shape
    if n > 3:
        raise NotImplementedError(f"tensor engine not implemented for n={n}")
    if n == 1:
        s = 2.0 * chol_cov_half[:, :, 0]  # x = mean + s w
        w0 = (center - mean)[:, 0] / s[:, 0]
        P, _, P1, _, _, cc2 = _vertex_scalars(center - q_center, s, s, M)
        half = np.sqrt(np.maximum(level, 0.0) / (s[:, 0] ** 2 * shape[:, 0, 0]))
        return math.pi ** (-0.5) * _w1_integrals(w0, half, 0.0, P, P1, cc2)
    step = 2 * _CELL if n == 3 else max(K, 1)
    out = np.empty(K)
    for a in range(0, K, step):  # one block's lines alive at a time
        r = slice(a, a + step)
        out[r] = _line_sweep(_lines(center[r], shape[r], level[r], mean[r], chol_cov_half[r],
                                    M[r], q_center[r]), out[r].size)
    return math.pi ** (-0.5 * n) * out


def gaussian_quadratic_stack(center, shape, level, mean, chol_cov_half, M,
                             q_center) -> np.ndarray:
    """Gaussian x quadratic integrals over a stack of ellipsoids (leading axis).

    Slice k integrates

        (4 pi)^{-n/2} det(C)^{-1/2} exp(-<C^{-1}(x-mean), x-mean>/4) * q(x)

    over {x : <shape (x - center), x - center> < level}, where
    ``chol_cov_half`` is the lower Cholesky factor L of C and q is the
    centered quadratic q(x) = <M (x - q_center), x - q_center>, M symmetric:
    the mean-value kernel W is one.  Each whitened domain is classified
    first: a boundary everywhere beyond the Gaussian window collapses to the
    closed-form full-space moment (or to zero when the center is outside),
    and everything else goes to the normal-aligned tensor rule
    (``_gauss_tensor_stack``).  A slice's value keeps its bits whatever
    other slices share the call (``_by_rows``, ``_column_sums``), so the
    time integrals that share engine calls do not move one another.
    """
    E00 = mean - center
    h0 = np.sqrt(np.maximum(_by_rows(_quad_form, E00, shape, E00) / level, 0.0))
    # conservative whitened distance from the Gaussian center to the domain
    # boundary: |Mahalanobis - 1| times the smallest whitened semiaxis, which
    # is at least sqrt(rho / tr(L2^T Q L2))
    L2 = 2.0 * chol_cov_half
    tr = np.einsum("kij,kij->k", shape @ L2, L2)
    amin = np.sqrt(np.where(tr > 0.0, level / np.where(tr > 0.0, tr, 1.0), 0.0))
    far = np.abs(h0 - 1.0) * amin >= _WINDOW
    out = np.zeros(center.shape[0])
    full = far & (h0 < 1.0)
    if np.any(full):
        L = chol_cov_half[full]
        out[full] = gaussian_quadratic_fullspace(
            mean[full], 2.0 * (L @ np.swapaxes(L, 1, 2)), M[full], q_center[full])
    near = ~far
    if np.any(near):
        out[near] = _gauss_tensor_stack(center[near], shape[near], level[near], mean[near],
                                        chol_cov_half[near], M[near], q_center[near])
    return out


# ---------------------------------------------------------------------------
# adaptive 1-d time integration with endpoint compression
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _gauss_kronrod(m: int):
    """The pair G_m/K_{2m+1} on (0, 1): the 2m + 1 Kronrod nodes in increasing
    order, their weights, and the Gauss weights of the m nodes at the odd
    positions.

    Laurie's algorithm (*Calculation of Gauss-Kronrod quadrature rules*,
    Math. Comp. 66, 1997) extends the Legendre recurrence coefficients b_k to
    those of the Jacobi-Kronrod matrix; the Legendre weight is symmetric, so
    every diagonal coefficient is zero.  The Kronrod nodes are that matrix's
    eigenvalues, with the Gauss nodes taken from ``leggauss``; the weights
    solve the Legendre moment equations at the nodes, which holds their sum
    to 1 within rounding (the eigenvectors' weights miss it by 7e-16 at
    m = 10), and the whole rule is made exactly symmetric.
    """
    b = np.zeros(2 * m + 1)
    n = np.arange(1, (3 * m + 1) // 2 + 1)
    b[0], b[n] = 2.0, n * n / (4.0 * n * n - 1.0)
    s, t = np.zeros(m // 2 + 2), np.zeros(m // 2 + 2)
    t[1] = b[m + 1]
    for i in range(m - 1):
        u = 0.0
        for k in range((i + 1) // 2, -1, -1):
            u += b[k + m + 1] * s[k] - b[i - k] * s[k + 1]
            s[k + 1] = u
        s, t = t, s
    s[1:] = s[:-1].copy()
    for i in range(m - 1, 2 * m - 2):
        u = 0.0
        for k in range(i + 1 - m, (i - 1) // 2 + 1):
            j = m - 1 - i + k
            u += b[i - k] * s[j + 2] - b[k + m + 1] * s[j + 1]
            s[j + 1] = u
        if i % 2:
            b[(i + 1) // 2 + m + 1] = s[j + 1] / s[j + 2]
        s, t = t, s
    off = np.sqrt(b[1:])
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    x[1::2], wg = np.polynomial.legendre.leggauss(m)
    w = np.linalg.solve(np.polynomial.legendre.legvander(x, 2 * m).T,
                        np.eye(2 * m + 1)[0] * 2.0)
    x, w = 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])
    return _frozen(0.5 * (x + 1.0), 0.5 * w, 0.5 * wg)


def integrate_time_profile(
    profile,
    lo: float,
    hi: float,
    *,
    order: int = 10,
    rel_tol: float = 1e-9,
    abs_tol: float = 0.0,
    max_depth: int = 48,
    max_cells: int = 4096,
    pole=None,
) -> IntegralResult:
    """Adaptive integral of ``profile`` over (lo, hi): ``_integrate_pieces``
    on the one piece (lo, hi), in sigma toward ``pole`` = (t_pole, side, S) if given.

    ``profile`` must accept a 1-d array of times and return values of the
    same shape.
    """
    piece = (lo, hi, abs_tol) if pole is None else (lo, hi, abs_tol, pole)
    (res,) = _integrate_pieces(lambda t, piece: profile(t), [piece], order=order,
                               rel_tol=rel_tol, max_depth=max_depth, max_cells=max_cells)
    return res


def _pole_map(profile, pieces):
    """``profile`` in sigma = log(S/s) on the pieces (lo, hi, abs_tol, (t_pole, side, S)).

    At sigma it gets t = t_pole + side s, s = S e^-sigma, and its value is
    multiplied by ds/dsigma = s; pieces (lo, hi, abs_tol) pass t through.
    """
    t_pole, side, S = np.array([p[3] if len(p) > 3 else (0.0, 0.0, 0.0) for p in pieces]).T

    def lockstep(t, piece):
        sg = np.flatnonzero(side[piece])  # the nodes of pole pieces
        p, t = piece[sg], t.copy()
        s = S[p] * np.exp(-t[sg])
        t[sg] = t_pole[p] + side[p] * s
        vals = profile(t, piece)
        vals[sg] *= s
        return vals

    return lockstep


def _integrate_pieces(profile, pieces, *, order: int, rel_tol: float, max_depth: int,
                      max_cells: int) -> list[IntegralResult]:
    """Adaptive integrals of ``profile`` over the pieces (lo, hi, abs_tol), in lockstep;
    a piece (lo, hi, abs_tol, (t_pole, side, S)) runs in sigma (``_pole_map``).

    Each piece is split at its midpoint and each half is reparametrized with
    a square-root compression toward its outer endpoint (s = lo + H w^2 and
    s = hi - H w^2), which makes the integrable endpoint behaviour of the
    slice profiles mild in w.  Each half starts as 2 cells, which are then
    refined worst-first.  A cell's value is the Kronrod rule K_{2 order + 1};
    its error is QUADPACK's model resasc min(1, (200 |K - G| / resasc)^1.5)
    (Piessens et al., *QUADPACK*, 1983), with G the embedded Gauss rule
    G_order and resasc the K-rule integral of |f - K / (b - a)|.

    Every piece keeps its own heap, totals, tolerance max(abs_tol, rel_tol
    |total|) and budgets, and warns on its own when it stops short of its
    tolerance, exactly as if it ran alone; the pieces share only the profile
    calls.  ``profile(t, piece)`` takes a 1-d array of times and the index of
    each time's piece, and returns values of the same shape.  It is called
    once per refinement step, for the nodes of every cell the step needs (the
    4 initial cells of each piece, then the two halves of the worst cell of
    each piece still short of its tolerance), piece after piece, cell after
    cell, each cell's 2 order + 1 nodes in increasing w.
    """
    xk, wk, wg = _gauss_kronrod(order)
    H = [0.5 * (hi - lo) for lo, hi, *_ in pieces]
    if any(len(p) > 3 for p in pieces):
        profile = _pole_map(profile, pieces)

    def eval_cells(cells):
        """(value, error) per (piece, side, a, b, depth) cell, from one profile call."""
        # s = lo + H w^2 on side 0, and hi - H w^2 = hi + (-H) w^2 on side 1
        end, step, h2, a, b = np.array([
            (pieces[i][side], -H[i] if side else H[i], 2.0 * H[i], a, b)
            for i, side, a, b, _ in cells]).T[:, :, None]
        w = a + (b - a) * xk
        s = end + step * w ** 2
        piece = np.array([c[0] for c in cells]).repeat(xk.size)
        vals = np.asarray(profile(s.ravel(), piece)).reshape(s.shape) * (h2 * w * (b - a))
        out = []
        for v in vals:
            k = float(wk @ v)
            err = abs(k - float(wg @ v[1::2]))
            resasc = float(wk @ np.abs(v - k))
            if resasc > 0.0:
                err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
            out.append((k, err))
        return out

    heaps = [[] for _ in pieces]
    total, total_err, ncells = [0.0] * len(pieces), [0.0] * len(pieces), [0] * len(pieces)
    converged = [True] * len(pieces)
    # (piece, side, a, b, depth) of the cells a step evaluates: first the 4 initial cells
    init = 2
    cells = [(i, side, k / init, (k + 1) / init, 1) for i, (lo, hi, *_) in enumerate(pieces)
             if hi > lo for side in (0, 1) for k in range(init)]
    while cells:
        for (i, side, a, b, depth), (val, err) in zip(cells, eval_cells(cells)):
            heapq.heappush(heaps[i], (-err, ncells[i], side, a, b, depth, val, err))
            total[i] += val
            total_err[i] += err
            ncells[i] += 1
        cells = []
        for i, heap in enumerate(heaps):
            if not (heap and converged[i]
                    and total_err[i] > max(pieces[i][2], rel_tol * abs(total[i]))):
                continue
            # depth-capped cells are never refined again: drop them from the heap,
            # their value and error stay in the running totals
            while heap and heap[0][5] >= max_depth:
                heapq.heappop(heap)
            if not heap or ncells[i] >= max_cells:
                converged[i] = False
                continue
            _, _, side, a, b, depth, val, err = heapq.heappop(heap)
            total[i] -= val
            total_err[i] -= err
            mid = 0.5 * (a + b)
            cells += [(i, side, a, mid, depth + 1), (i, side, mid, b, depth + 1)]

    results = []
    for i in range(len(pieces)):
        if not converged[i]:
            warnings.warn(
                f"time integral reached budget (cells={ncells[i]}) before tolerance",
                ToleranceWarning,
            )
        results.append(IntegralResult(total[i], total_err[i], cells=ncells[i],
                                      converged=converged[i],
                                      flags=() if converged[i] else ("tolerance_not_met",)))
    return results


def _sigma_end(Q: float) -> float:
    """sigma_max = 100 / (Q - 2), where a time rule toward the kernel's pole stops."""
    return 100.0 / (Q - 2)


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
    whole ``_CELL``-node cells holding at most ``_BLOCK`` rule points and
    reduces each cell's rows by its own ``@ mean_weights``, so every row keeps
    its place in the BLAS row layout and its bits do not depend on how many
    cells a call carries.
    """
    n = ball.spec.n
    deg = int(f.space_degree) + (2 if kernel else 0)
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
            hi = min(a + step, out.size)
            cut = np.searchsorted(sl.idx, [*range(a, hi, _CELL), hi])  # the cells' rows
            k = slice(cut[0], cut[-1])
            vals = f.evaluate((sl.center[k, None, :] + sl.scale[k, None, :] * P).reshape(-1, n),
                              np.repeat(t0 - sl.s[k], weights.size)).reshape(-1, weights.size)
            if kernel:
                vals = vals * ((sl.rho[k] / sl.s[k])[:, None] * kern)
            cut = cut - cut[0]
            out[sl.idx[k]] = sl.volume[k] * np.concatenate(
                [vals[i:j] @ mean_weights for i, j in zip(cut[:-1], cut[1:])])
        return out

    return profile


def integrate_over_ball(f, ball: LBall, cfg: QuadratureConfig,
                        kernel: bool = True) -> IntegralResult:
    """Integral of a polynomial f (optionally times the mean-value kernel) over the ball.

    f must expose ``evaluate`` and ``space_degree``, as ``AnisoPolynomial``
    does; anything else raises TypeError.  Each slice integral is exact,
    by a degree-exact unit-ball cubature, and the adaptive time rule runs in
    sigma = log(s_max/s) toward the pole s = 0, where the kernel mass
    decays like e^(-(Q-2) sigma/2) sigma^(n/2+1).  Past sigma_max = 100/(Q-2)
    lies a Gamma(n/2+2) tail of that mass, at most 4.3e-18 of it for n <= 4.
    """
    if not (hasattr(f, "evaluate") and hasattr(f, "space_degree")):
        raise TypeError("integrate_over_ball takes a polynomial exposing evaluate and "
                        f"space_degree (such as AnisoPolynomial), not {type(f).__name__}")
    scale = ball.r if kernel else max(abs(ball.s_max), 1.0)
    return integrate_time_profile(
        _exact_ball_profile(f, ball, kernel), 0.0, _sigma_end(ball.spec.Q), order=cfg.time_order,
        rel_tol=cfg.time_tol, abs_tol=cfg.time_tol * scale, max_depth=cfg.endpoint_depth,
        max_cells=cfg.max_cells, pole=(0.0, 1.0, ball.s_max))

