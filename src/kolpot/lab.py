"""Experiment layer: mean values, potentials, the exterior identity, rigidity.

Everything here is phrased around a measure ball Omega_r(z0) (an LBall, which
carries the operator and evaluator) and optionally a test domain D.  The
central quantity is the kernel-weighted potential

    P(D, z) = int_D Gamma(zeta, z) W(z0^{-1} o zeta) d zeta,

computed one refinement step of the time rule at a time: at each time the
integrand is a Gaussian in the spatial variable times a quadratic (the
kernel), integrated over the signed slice ellipsoids, and each profile call
stacks the slices of all its nodes into one Gaussian x quadratic engine call.
The time integrals of all the points of one call (the exterior identity's
test points, the interior margins' points) refine in lockstep, so a step's
profile call carries the nodes of every point still refining, and each
point's result keeps the bits it has alone.
For the exact ball and z outside, P equals r Gamma(z0, z); the rigidity
experiments measure how strongly perturbed domains break that identity.  The
L^p gluing check integrates W^p over the symmetric difference of a domain and
the ball the same way: one stacked pass over the signed slices of both at all
nodes of a refinement step, exact at integer p wherever a time's slices nest
or lie apart, and Monte Carlo only where they overlap or p is not an integer.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from . import __version__ as _version
from .balls import LBall, unit_ball_volume
from .domains import ExactBall, SignedSliceStack, SlicedDomain, quadratic_form
from .errors import PointNotInterior, TestPointInsideDomain
from .operators import GroupPoint, operator_hash, transport_matrix
from .quadrature import (
    _CELL,
    IntegralResult,
    QuadratureConfig,
    _integrate_pieces,
    _sigma_end,
    ball_rule,
    gaussian_quadratic_stack,
    integrate_over_ball,
    integrate_time_profile,
)

__all__ = [
    "mean_value",
    "gamma_potential",
    "potential_identity_residual",
    "interior_inequality_margin",
    "lp_condition_norm",
    "exterior_test_points",
    "interior_test_points",
    "future_mass_detector",
    "RigidityReport",
    "LpCheck",
]


# ---------------------------------------------------------------------------
# kernel-weighted Gamma potential over a sliced domain
# ---------------------------------------------------------------------------


def _kernel_gamma_profile(domain: SlicedDomain, ball: LBall, *points: GroupPoint):
    """Profile (tau, point) -> int over the slices of Gamma(., z) W(z0^{-1} o .),
    z = points[point], one call per step for all the points.

    At a node tau with delta = tau - z.t > 0 the integrand is the Gaussian of
    covariance 2 C(delta) centred at E(delta) z.x, whose Cholesky factor is
    D(sqrt delta) L1, times the quadratic W(u), u = tau - t0, centred at
    E(u) x0 (``GammaEvaluator.W_quadratic`` over the stacked u).  All nodes of
    a call, whatever their point, take their slices from one
    ``signed_slice_stack`` call and go through one ``gaussian_quadratic_stack``
    call.  ``point`` is each node's index into ``points`` (default: the first).
    """
    ev = ball.ev
    cov = ev.cov
    x0, t0 = ball.z0.x, ball.z0.t
    zx = np.array([z.x for z in points])
    zt = np.array([z.t for z in points])

    def profile(tau_arr, point=0):
        tau = np.atleast_1d(np.asarray(tau_arr, dtype=float))
        live = np.flatnonzero(tau - zt[point] > 0.0)
        st = domain.signed_slice_stack(tau[live])
        node = live[st.node]
        if node.size == 0:
            return np.zeros(tau.size)
        p = point if np.ndim(point) == 0 else point[node]
        delta = tau[node] - zt[p]
        u = tau[node] - t0
        vals = gaussian_quadratic_stack(
            st.center, st.shape, st.level,
            mean=(cov.E(delta) @ zx[p, :, None])[:, :, 0],
            chol_cov_half=(delta[:, None] ** cov.half_weights)[:, :, None] * cov.L1,
            M=ev.W_quadratic(u),
            q_center=cov.E(u) @ x0,
        )
        return np.bincount(node, weights=st.sign * vals, minlength=tau.size)

    return profile


def kernel_gamma_integrals(domain: SlicedDomain, ball: LBall, points, cfg: QuadratureConfig,
                           abs_scales) -> list[IntegralResult]:
    """int_D Gamma(zeta, z) W(z0^{-1} o zeta) d zeta (no 1/r factor) at every z of ``points``.

    Each point's time range is the domain's interval clipped to zeta.t > z.t
    (where Gamma vanishes); an empty range gives 0 in 0 cells.  If the
    interval straddles the kernel's singular time t0 it is split there.  A
    piece that ends or starts at t0 runs in sigma toward the pole (t0, +1 or
    -1, its length), as mean values do; any other piece runs in tau.  The
    pieces of all the points refine in lockstep (``quadrature._integrate_pieces``),
    so each step makes one profile call for all of them, and each piece
    keeps its own tolerance cfg.time_tol times its point's ``abs_scales``
    entry and its own budget.
    """
    t_lo, t_hi = domain.time_interval
    t0 = ball.z0.t
    sigma_end = _sigma_end(ball.spec.Q)
    pieces, owner = [], []
    for i, z in enumerate(points):
        lo = max(t_lo, z.t)
        if t_hi <= lo:
            continue
        abs_tol = cfg.time_tol * abs_scales[i]
        cuts = [lo, t0, t_hi] if lo < t0 < t_hi else [lo, t_hi]
        for a, b in zip(cuts[:-1], cuts[1:]):
            side = 1.0 if a == t0 else -1.0 if b == t0 else 0.0
            pieces.append((0.0, sigma_end, abs_tol, (t0, side, b - a)) if side else (a, b, abs_tol))
            owner.append(i)
    # one profile point per piece, so a piece's index is its point's
    kernel = _kernel_gamma_profile(domain, ball, *(points[i] for i in owner))
    results = _integrate_pieces(kernel, pieces, order=cfg.time_order, rel_tol=cfg.time_tol,
                                max_depth=cfg.endpoint_depth, max_cells=cfg.max_cells)
    out = [IntegralResult(0.0, 0.0, cells=0) for _ in points]
    for i, res in zip(owner, results):
        prev = out[i]
        converged = prev.converged and res.converged
        out[i] = IntegralResult(prev.value + res.value, prev.error + res.error,
                                cells=prev.cells + res.cells, converged=converged,
                                flags=() if converged else ("tolerance_not_met",))
    return out


def kernel_gamma_integral(domain: SlicedDomain, ball: LBall, z: GroupPoint,
                          cfg: QuadratureConfig, abs_scale: float = 1.0) -> IntegralResult:
    """``kernel_gamma_integrals`` at the one point z."""
    (res,) = kernel_gamma_integrals(domain, ball, [z], cfg, [abs_scale])
    return res


def _gamma_potentials(domain: SlicedDomain, ball: LBall, points,
                      cfg: QuadratureConfig) -> list[IntegralResult]:
    """``gamma_potential`` at every z of ``points``, in one lockstep time rule."""
    scales = [max(ball.r * ball.gamma_from_center(z), 1e-300) for z in points]
    return [IntegralResult(res.value / ball.r, res.error / ball.r, cells=res.cells,
                           converged=res.converged, flags=res.flags)
            for res in kernel_gamma_integrals(domain, ball, points, cfg, scales)]


def gamma_potential(domain: SlicedDomain, ball: LBall, z: GroupPoint,
                    cfg: QuadratureConfig) -> IntegralResult:
    """Gamma-potential of the measure (1/r) 1_D W(z0^{-1} o .) at z.

    For the exact ball this equals Gamma(z0, z) at every exterior z and is
    strictly smaller at interior z.
    """
    (res,) = _gamma_potentials(domain, ball, [z], cfg)
    return res


# ---------------------------------------------------------------------------
# mean value
# ---------------------------------------------------------------------------


def mean_value(u, ball: LBall, cfg: QuadratureConfig) -> IntegralResult:
    """M_r(u)(z0) = (1/r) int over the ball of u(zeta) W(z0^{-1} o zeta).

    u is a polynomial exposing ``evaluate`` and ``space_degree`` (an
    ``AnisoPolynomial``); anything else raises TypeError.  The slice
    integrals are exact (``integrate_over_ball``).  For u with L u = 0 on a
    neighborhood of the closed ball the result reproduces u(z0) up to
    quadrature tolerance.
    """
    res = integrate_over_ball(u, ball, cfg, kernel=True)
    return IntegralResult(res.value / ball.r, res.error / ball.r, cells=res.cells,
                          converged=res.converged, flags=res.flags)


# ---------------------------------------------------------------------------
# test point generation
# ---------------------------------------------------------------------------


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=int(seed)))


def exterior_test_points(domain: SlicedDomain, ball: LBall, count: int, seed: int):
    """Deterministic exterior test points in three regimes.

    (a) strictly below the ball in time, spatially spread like the transport
    Gaussian so that Gamma(z0, .) stays well away from underflow (the
    nontrivial regime of the identity); (b) at slice times but spatially
    outside the ball; (c) at or above the center time, where both sides of
    the identity vanish.  Every point is verified to lie outside the domain.
    """
    spec = ball.spec
    ev = ball.ev
    t0, s_max = ball.z0.t, ball.s_max
    x0 = ball.z0.x
    rng = _rng(seed)
    na = (count + 1) // 2
    nb = (count - na + 1) // 2
    nc = count - na - nb
    pts: list[tuple[GroupPoint, str]] = []

    def below_point():
        g = 0.3 + 1.2 * rng.random()
        t_z = t0 - s_max * (1.0 + g)
        dt = t0 - t_z
        center = transport_matrix(-dt, spec) @ x0  # Gamma(z0,.) peak at this x
        L = np.linalg.cholesky(2.0 * ev.cov.C(dt))
        u = ndtri(np.clip(rng.random(spec.n), 1e-12, 1 - 1e-12))
        return GroupPoint(center + 0.8 * (L @ u), t_z)

    guard = 0
    while len(pts) < na and guard < 100 * count:
        guard += 1
        z = below_point()
        ref = ev.norm / math.sqrt(ev.cov.detC(t0 - z.t))
        if ball.gamma_from_center(z) < 1e-4 * ref:
            continue
        if domain.contains(z):
            continue
        pts.append((z, "below"))

    guard = 0
    while len(pts) < na + nb and guard < 100 * count:
        guard += 1
        s = s_max * (0.3 + 0.4 * rng.random())
        ell = ball.slice_at(s)
        v = ndtri(np.clip(rng.random(spec.n), 1e-12, 1 - 1e-12))
        nv = np.linalg.norm(v)
        if nv == 0.0:
            continue
        f = 1.15 + 0.4 * rng.random()
        x = ball.slice_center(s) + f * (ell.ball_map() @ (v / nv))
        z = GroupPoint(x, t0 - s)
        if domain.contains(z) or ball.contains(z):
            continue
        pts.append((z, "lateral"))

    lo, hi = ball.bounding_box
    for _ in range(nc):
        t_z = t0 + 0.5 * s_max * rng.random()
        x = lo[:-1] + (hi[:-1] - lo[:-1]) * rng.random(spec.n)
        z = GroupPoint(1.2 * x, t_z)
        if not domain.contains(z):
            pts.append((z, "future"))

    return pts


def interior_test_points(ball: LBall, count: int, seed: int) -> list[GroupPoint]:
    """Points strictly inside the ball, at slice fractions in [0.2, 0.8].

    The interior margin is enforced in level-set value: r Gamma(z0, z) must
    exceed 1 + 1e-6.
    """
    rng = _rng(seed)
    pts = []
    guard = 0
    while len(pts) < count and guard < 200 * count:
        guard += 1
        s = ball.s_max * (0.2 + 0.6 * rng.random())
        ell = ball.slice_at(s)
        v = ndtri(np.clip(rng.random(ball.spec.n), 1e-12, 1 - 1e-12))
        nv = np.linalg.norm(v)
        f = 0.7 * rng.random() ** (1.0 / ball.spec.n)
        x = ball.slice_center(s) + (f / nv if nv > 0 else 0.0) * (ell.ball_map() @ v)
        z = GroupPoint(x, ball.z0.t - s)
        if ball.r * ball.gamma_from_center(z) > 1.0 + 1e-6:
            pts.append(z)
    return pts


# ---------------------------------------------------------------------------
# identity residuals and reports
# ---------------------------------------------------------------------------


@dataclass
class RigidityReport:
    """Residuals of the exterior identity over a set of test points."""

    operator: str
    r: float
    z0: list
    domain: dict
    seed: int
    tolerances: dict
    points: list = field(default_factory=list)
    sup_abs_residual: float = 0.0
    sup_rel_residual: float = 0.0
    lp_check: dict | None = None
    verdict: dict = field(default_factory=dict)
    version: str = _version

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "operator_hash": self.operator,
            "r": self.r,
            "z0": self.z0,
            "domain": self.domain,
            "seed": self.seed,
            "tolerances": self.tolerances,
            "sup_abs_residual": self.sup_abs_residual,
            "sup_rel_residual": self.sup_rel_residual,
            "lp_check": self.lp_check,
            "verdict": self.verdict,
            "points": self.points,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def write_csv(self, path) -> None:
        cols = ["index", "category", "t", "x", "lhs", "rhs", "abs_residual",
                "rel_residual", "quad_error", "cells", "converged", "flags"]
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(cols)
            for rec in self.points:
                row = dict(rec, x=" ".join(map(repr, rec["x"])), flags=" ".join(rec["flags"]))
                w.writerow([row[c] for c in cols])


def potential_identity_residual(domain: SlicedDomain, ball: LBall,
                                test_points, cfg: QuadratureConfig,
                                seed: int | None = None) -> RigidityReport:
    """Residuals of int_D Gamma(., z) W = r Gamma(z0, z) over exterior points.

    ``test_points`` holds GroupPoints or (GroupPoint, category) pairs; every
    point must lie outside the domain.  Relative residuals are taken against
    the right-hand side when it exceeds 1e-12, absolutely otherwise.  Each
    point's row carries the integral's quad_error, cells, converged and flags.
    """
    report = RigidityReport(
        operator=operator_hash(ball.spec),
        r=ball.r,
        z0=[*ball.z0.x.tolist(), ball.z0.t],
        domain=domain.describe(),
        seed=int(seed) if seed is not None else int(cfg.seed),
        tolerances={"time_tol": cfg.time_tol, "time_order": cfg.time_order},
    )
    points = [item if isinstance(item, tuple) else (item, "unlabeled") for item in test_points]
    for idx, (z, _) in enumerate(points):
        if domain.contains(z):
            raise TestPointInsideDomain(f"test point {idx} lies inside the domain")
    rhss = [ball.r * ball.gamma_from_center(z) for z, _ in points]
    results = kernel_gamma_integrals(domain, ball, [z for z, _ in points], cfg,
                                     [max(rhs, 1e-300) for rhs in rhss])
    sup_abs = sup_rel = 0.0
    for idx, ((z, cat), rhs, res) in enumerate(zip(points, rhss, results)):
        abs_res = abs(res.value - rhs)
        rel_res = abs_res / rhs if rhs > 1e-12 else abs_res
        sup_abs = float(np.maximum(sup_abs, abs_res))  # a NaN residual stays NaN
        sup_rel = float(np.maximum(sup_rel, rel_res))
        report.points.append({
            "index": idx,
            "category": cat,
            "t": z.t,
            "x": z.x.tolist(),
            "lhs": res.value,
            "rhs": rhs,
            "abs_residual": abs_res,
            "rel_residual": rel_res,
            "quad_error": res.error,
            "cells": res.cells,
            "converged": res.converged,
            "flags": list(res.flags),
        })
    report.sup_abs_residual = sup_abs
    report.sup_rel_residual = sup_rel
    return report


def interior_inequality_margin(ball: LBall, interior_points,
                               cfg: QuadratureConfig) -> list[dict]:
    """Margins Gamma(z0, z) - Gamma_mu(z) > 0 at strictly interior points.

    Raises PointNotInterior unless r Gamma(z0, z) > 1 + 1e-6.  Margins are
    reported with the quadrature error estimate, cells, convergence and flags
    of the potential.
    """
    for idx, z in enumerate(interior_points):
        level = ball.r * ball.gamma_from_center(z)
        if not level > 1.0 + 1e-6:
            raise PointNotInterior(f"point {idx} is not strictly interior (level {level:g})")
    records = []
    pots = _gamma_potentials(ExactBall(ball), ball, interior_points, cfg)
    for idx, (z, pot) in enumerate(zip(interior_points, pots)):
        gamma_center = ball.gamma_from_center(z)
        records.append({
            "index": idx,
            "t": z.t,
            "x": z.x.tolist(),
            "gamma": gamma_center,
            "potential": pot.value,
            "margin": gamma_center - pot.value,
            "quad_error": pot.error,
            "cells": pot.cells,
            "converged": pot.converged,
            "flags": list(pot.flags),
        })
    return records


# ---------------------------------------------------------------------------
# the L^p gluing condition
# ---------------------------------------------------------------------------


# cells per piece of the L^p gluing integral
_LP_MAX_CELLS = 600


@dataclass
class LpCheck:
    p: float
    norm: float
    integral: float
    certified: bool
    flags: tuple[str, ...]

    def to_dict(self):
        return {
            "p": self.p,
            "norm": self.norm,
            "integral": self.integral,
            "certified": self.certified,
            "flags": list(self.flags),
        }


def _ball_maps(st, u):
    """The points c + T u on every slice of a stack, for unit-ball points u of shape (n, q)
    or (m, n, q), and the Jacobians |det T| of these maps."""
    T = np.sqrt(st.level)[:, None, None] * np.linalg.inv(
        np.linalg.cholesky(st.shape)).transpose(0, 2, 1)
    jac = st.level ** (st.center.shape[1] / 2.0) / np.sqrt(np.linalg.det(st.shape))
    return st.center[:, :, None] + T @ u, jac


def _node_uniforms(gen: np.random.Generator, seed: int, taus, salt: int, n: int):
    """Generator(Philox(key=k)).random((512, n + 1)).T per distinct key k of the times, and
    each time's row into them; ``gen`` is re-keyed per key, its counter and buffer emptied."""
    state = dict(gen.bit_generator.state, buffer_pos=4, has_uint32=0)
    state["state"]["counter"][:] = 0
    bins, row = np.unique([int(abs(t) * 1e7) & 0xFFFFFFF for t in taus], return_inverse=True)
    U = np.empty((bins.size, n + 1, 512))
    for b, t_bin in enumerate(bins):
        state["state"]["key"][:] = ((int(seed) & 0xFFFFFFFF) << 28) ^ int(t_bin) ^ salt, 0
        gen.bit_generator.state = state
        U[b] = gen.random((512, n + 1)).T
    return U, row


def _apart(ca, Sa, la, cb, Sb, lb) -> np.ndarray:
    """Whether the open ellipsoids {x : <S (x - c), x - c> < l} of each stacked pair lie
    apart: their support functions along d = (Sa + Sb)(cb - ca) leave a gap,
    sqrt(la <Sa^-1 d, d>) + sqrt(lb <Sb^-1 d, d>) < <d, cb - ca>.  Sound for any pair, and
    exact for equal shapes, where it reads |cb - ca|_S > sqrt(la) + sqrt(lb)."""
    delta = cb - ca
    d = ((Sa + Sb) @ delta[:, :, None])[:, :, 0]

    def reach(S, level):
        return np.sqrt(level * np.sum(d * np.linalg.solve(S, d[:, :, None])[:, :, 0], axis=1))

    return reach(Sa, la) + reach(Sb, lb) < np.sum(d * delta, axis=1)


def _lp_classes(sd: SignedSliceStack, sb: SignedSliceStack, size: int):
    """(nested, apart) per input time, for the signed slices of a domain and of the ball.

    The ball's stack holds one +1 slice per time at most, so each +1 slice of
    the domain pairs with the ball's slice at its time, if any.  A time is
    nested when it has one such pair, whose slices share centre and shape bit
    for bit, and the domain has no -1 region there unless its +1 slice is no
    larger than the ball's: one side's region then holds the other's.  A
    time is apart when every pair passes ``_apart``, and so when one side
    has no slice.
    """
    at = np.full(size, -1)
    at[sb.node] = np.arange(sb.node.size)
    i = np.flatnonzero((sd.sign > 0) & (at[sd.node] >= 0))
    j, k = at[sd.node[i]], sd.node[i]
    bitten = np.bincount(sd.node[sd.sign < 0], minlength=size) > 0
    same = (np.all(sd.center[i] == sb.center[j], axis=1)
            & np.all(sd.shape[i] == sb.shape[j], axis=(1, 2))
            & ((sd.level[i] <= sb.level[j]) | ~bitten[k]))
    near = ~_apart(sd.center[i], sd.shape[i], sd.level[i], sb.center[j], sb.shape[j], sb.level[j])
    nested = (np.bincount(k, minlength=size) == 1) & (np.bincount(k, same, size) == 1)
    return nested, np.bincount(k, near, size) == 0


def _lp_profile(domain: SlicedDomain, ball: LBall, p: float, seed: int):
    """Profile tau -> int of W(z0^{-1} o .)^p over the slices of the symmetric
    difference of the domain and the ball, one call per refinement step.

    Each call takes both stacks from one ``signed_slice_stack`` call each and
    the kernel W(u), u = tau - t0, centred at E(u) x0, from one ``W_quadratic``
    call over the nodes that have a slice.  At integer p, W^p is a polynomial
    of degree 2p, and each time is sorted by its slices (``_lp_classes``):
    where they nest, the value is |int_D W^p - int_ball W^p|, and where they
    lie apart, int_D W^p + int_ball W^p, each a signed sum of exact degree-2p
    ``ball_rule`` integrals.  Monte Carlo runs only at the times whose slices
    overlap, and at every time for non-integer p: every +1 slice of either
    domain carries 512 samples from its node's Philox stream, and a sample
    counts where it lies in its own domain and not in the other.  The stream
    key reads |tau| in bins of 1e-7, so the times of one bin share one key
    block (``_node_uniforms``), drawn and mapped to the unit ball once per
    block of ``_CELL`` +1 slices.  Both rules work per block of ``_CELL``
    slices, which bounds the rule points and samples a call holds at once,
    however many time cells it carries.
    """
    n = ball.spec.n
    ev = ball.ev
    x0, t0 = ball.z0.x, ball.z0.t
    base = ExactBall(ball)
    p_int = int(round(p))
    exact = abs(p - p_int) < 1e-12 and p_int >= 1
    gen = np.random.Generator(np.random.Philox(key=0))

    def profile(tau_arr):
        tau = np.atleast_1d(np.asarray(tau_arr, dtype=float))
        sb = base.signed_slice_stack(tau)
        sd = domain.signed_slice_stack(tau)
        live = np.union1d(sb.node, sd.node)
        if live.size == 0:
            return np.zeros(tau.size)
        u = tau[live] - t0
        MW = ev.W_quadratic(u)
        cW = ev.cov.E(u) @ x0

        def w_power(X, node):
            k = np.searchsorted(live, node)
            Y = X - cW[k][:, :, None]
            return np.clip(quadratic_form(MW[k], Y), 0.0, None) ** p

        def by_blocks(st, keep, block_value):
            rows = np.flatnonzero(keep)
            vals = np.empty(rows.size)
            for a in range(0, rows.size, _CELL):
                blk = rows[a:a + _CELL]
                vals[a:a + _CELL] = block_value(SignedSliceStack(*(x[blk] for x in st)))
            return np.bincount(st.node[rows], weights=vals, minlength=tau.size)

        def exact_block(blk):
            nodes, weights = ball_rule(n, 2 * p_int)
            X, jac = _ball_maps(blk, nodes.T)
            # a per-row sum, so a slice shared by both stacks integrates to the
            # same bits in each and cancels exactly
            return blk.sign * jac * np.sum(w_power(X, blk.node) * weights, axis=1)

        def mc_block(blk, src, other, salt):
            U, row = _node_uniforms(gen, seed, tau[blk.node], salt, n)
            v = ndtri(np.clip(U[:, :n], 1e-12, 1 - 1e-12))
            v = v / np.linalg.norm(v, axis=1, keepdims=True) * U[:, n:] ** (1.0 / n)
            X, jac = _ball_maps(blk, v[row])
            del U, v  # the key blocks are not needed by the membership tests
            keep = src.holds(X, blk.node) & ~other.holds(X, blk.node)
            return unit_ball_volume(n) * jac * np.mean(w_power(X, blk.node) * keep, axis=1)

        def mc_value(src, other, salt, mc):
            return by_blocks(src, (src.sign > 0) & mc[src.node],
                             lambda blk: mc_block(blk, src, other, salt))

        out = np.zeros(tau.size)
        mc = np.ones(tau.size, dtype=bool)
        if exact:
            nested, apart = _lp_classes(sd, sb, tau.size)
            mc = ~(nested | apart)
            vd = by_blocks(sd, ~mc[sd.node], exact_block)
            vb = by_blocks(sb, ~mc[sb.node], exact_block)
            out = np.where(nested, np.abs(vd - vb), vd + vb)
        return out + mc_value(sb, sd, 1, mc) + mc_value(sd, sb, 2, mc)

    return profile


def lp_condition_norm(domain: SlicedDomain, ball: LBall, p: float,
                      cfg: QuadratureConfig) -> LpCheck:
    """L^p norm of (1_D - 1_ball) W(z0^{-1} o .) over R^{n+1}, for p > 0.

    Zero for the exact ball.  The time integral runs over a profile that
    handles all nodes of a refinement step in one stacked pass (``_lp_profile``):
    at integer p, exact degree-2p cubature at every time whose slices nest or
    lie apart, and Monte Carlo at the times whose slices overlap and at every
    time for non-integer p, from 512-sample streams keyed by ``cfg.seed``.
    The integral stops at the floor s = 1e-7 span below the latest time,
    s = hi - tau, and is taken tail first in two disjoint pieces: the last
    two decades, 1e-7 span < s < 1e-5 span, in sigma toward the pole
    (hi, -1, span), then the head in tau, to an absolute tolerance of 1e-6
    of the tail.  When the tail carries more than 2% of the integral the
    estimate is flagged uncertified (``tail_divergence_suspected``): the
    integrand keeps growing toward the pole, the gluing condition fails and
    the true norm is infinite.  A piece that stops at its cell budget (``_LP_MAX_CELLS``) adds
    the flag ``tolerance_not_met``.
    """
    if not p > 0.0:
        raise ValueError(f"p must be positive, got {p}")
    flags = []
    if p <= ball.spec.Q / 2.0:
        flags.append("p_not_above_Q_half")
    if isinstance(domain, ExactBall) and domain.ball is ball:
        return LpCheck(p, 0.0, 0.0, True, tuple(flags))
    profile = _lp_profile(domain, ball, p, cfg.seed)
    lo = min(domain.time_interval[0], ball.time_interval[0])
    hi = max(domain.time_interval[1], ball.time_interval[1])
    span = hi - lo
    rule = dict(order=cfg.time_order, rel_tol=1e-6, max_depth=30, max_cells=_LP_MAX_CELLS)
    tail = integrate_time_profile(profile, math.log(1e5), math.log(1e7), pole=(hi, -1.0, span),
                                  **rule)
    head = integrate_time_profile(profile, lo, hi - 1e-5 * span,
                                  abs_tol=1e-6 * abs(tail.value), **rule)
    if not (head.converged and tail.converged):
        flags.append("tolerance_not_met")
    integral = head.value + tail.value
    certified = abs(tail.value) <= 2e-2 * max(abs(integral), 1e-300)
    if not certified:
        flags.append("tail_divergence_suspected")
    norm = integral ** (1.0 / p) if integral > 0 else 0.0
    return LpCheck(p, norm, integral, certified, tuple(flags))


# ---------------------------------------------------------------------------
# the corollary mechanism: future mass forbids the mean-value identity
# ---------------------------------------------------------------------------


def future_mass_detector(domain: SlicedDomain, ball: LBall, z_star: GroupPoint,
                         cfg: QuadratureConfig) -> dict:
    """Detect domain mass above the center time via u*(.) = Gamma(., z*).

    For z* above t0 and outside D, u* is a nonnegative solution on a
    neighborhood of D and u*(z0) = 0, while the mean-value functional applied
    to u* is bounded below by the integral over D cut above z*.t, which is
    strictly positive whenever D has mass there.  The cut also keeps the
    integration away from the kernel's singular hyperplane at t0.
    """
    if z_star.t <= ball.z0.t:
        raise ValueError("detector point must lie strictly above the center time")
    if domain.contains(z_star):
        raise TestPointInsideDomain("detector point lies inside the domain")
    res = kernel_gamma_integral(domain, ball, z_star, cfg)
    value = res.value / ball.r
    err = res.error / ball.r
    u_star_at_center = ball.ev.Gamma(ball.z0, z_star)
    triggered = value > max(5.0 * err, 1e-12)
    return {
        "future_mass_value": value,
        "quad_error": err,
        "u_star_at_center": u_star_at_center,
        "triggered": bool(triggered),
    }
