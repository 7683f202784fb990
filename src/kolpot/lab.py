"""Experiment layer: mean values, potentials, the exterior identity, rigidity.

Everything here is phrased around a measure ball Omega_r(z0) (an LBall, which
carries the operator and evaluator) and optionally a test domain D.  The
central quantity is the kernel-weighted potential

    P(D, z) = int_D Gamma(zeta, z) W(z0^{-1} o zeta) d zeta,

computed one refinement step of the time rule at a time: at each time the
integrand is a Gaussian in the spatial variable times a quadratic (the
kernel), integrated over the signed slice ellipsoids, and each profile call
stacks the slices of all its nodes into one Gaussian x quadratic engine call.
For the exact ball and z outside, P equals r Gamma(z0, z); the rigidity
experiments measure how strongly perturbed domains break that identity.  The
L^p gluing check integrates W^p over the symmetric difference of a domain and
the ball the same way: one stacked pass over the signed slices of both at all
nodes of a refinement step.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from . import __version__ as _version
from .balls import LBall, ball_bounding_box, unit_ball_volume
from .domains import (
    BittenBall,
    ExactBall,
    IndicatorDomain,
    RadiusMismatchBall,
    ScaledBall,
    SignedSliceStack,
    SlicedDomain,
    quadratic_form,
)
from .errors import PointNotInterior, TestPointInsideDomain
from .operators import GroupPoint, operator_hash, transport_matrix
from .quadrature import (
    _CELL,
    IntegralResult,
    QuadratureConfig,
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


def _kernel_gamma_profile(domain: SlicedDomain, ball: LBall, z: GroupPoint):
    """Profile tau -> int over the slices of Gamma(., z) W(z0^{-1} o .), one call per step.

    At a node tau with delta = tau - z.t > 0 the integrand is the Gaussian of
    covariance 2 C(delta) centred at E(delta) z.x, whose Cholesky factor is
    D(sqrt delta) L1, times the quadratic W(u), u = tau - t0, centred at
    E(u) x0 (``GammaEvaluator.W_quadratic`` over the stacked u).  All nodes of
    a call take their slices from one ``signed_slice_stack`` call and go
    through one ``gaussian_quadratic_stack`` call.
    """
    ev = ball.ev
    cov = ev.cov
    x0, t0 = ball.z0.x, ball.z0.t

    def profile(tau_arr):
        tau = np.atleast_1d(np.asarray(tau_arr, dtype=float))
        live = np.flatnonzero(tau - z.t > 0.0)
        st = domain.signed_slice_stack(tau[live])
        node = live[st.node]
        if node.size == 0:
            return np.zeros(tau.size)
        delta = tau[node] - z.t
        u = tau[node] - t0
        vals = gaussian_quadratic_stack(
            st.center, st.shape, st.level,
            mean=cov.E(delta) @ z.x,
            chol_cov_half=(delta[:, None] ** cov.half_weights)[:, :, None] * cov.L1,
            M=ev.W_quadratic(u),
            q_center=cov.E(u) @ x0,
        )
        return np.bincount(node, weights=st.sign * vals, minlength=tau.size)

    return profile


def _mc_box_kernel_gamma(domain: SlicedDomain, ball: LBall, z: GroupPoint,
                         cfg: QuadratureConfig, t_min: float | None) -> IntegralResult:
    """Coarse box Monte Carlo for indicator-only domains, flagged as such."""
    lo, hi = domain.bounding_box()
    if t_min is not None:
        lo = lo.copy()
        lo[-1] = max(lo[-1], t_min)
    lo = lo.copy()
    lo[-1] = max(lo[-1], z.t)
    if hi[-1] <= lo[-1]:
        return IntegralResult(0.0, 0.0, "mc", samples=0)
    n = ball.spec.n
    rng = np.random.Generator(np.random.Philox(key=int(cfg.seed) ^ 0x9E3779B9))
    N = cfg.mc_samples
    pts = lo + (hi - lo) * rng.random((N, n + 1))
    vals = np.zeros(N)
    ev = ball.ev
    for i in range(N):
        zeta = ball.spec.point(pts[i, :-1], pts[i, -1])
        if not domain.contains(zeta):
            continue
        g = ev.Gamma(zeta, z)
        if g == 0.0 or zeta.t == ball.z0.t:
            continue
        w = ev.W(ball.to_origin_frame(zeta))
        vals[i] = g * w
    box_vol = float(np.prod(hi - lo))
    value = box_vol * float(np.mean(vals))
    err = box_vol * float(np.std(vals) / math.sqrt(N))
    return IntegralResult(value, err, "mc", samples=N, converged=False,
                          flags=("mc_indicator_domain",))


def kernel_gamma_integral(domain: SlicedDomain, ball: LBall, z: GroupPoint,
                          cfg: QuadratureConfig, abs_scale: float | None = None,
                          t_min: float | None = None) -> IntegralResult:
    """int_D Gamma(zeta, z) W(z0^{-1} o zeta) d zeta (no 1/r factor).

    The time range is the domain's interval clipped to zeta.t > z.t (where
    Gamma vanishes) and to ``t_min`` when given.  If the interval straddles
    the kernel's singular time t0 it is split there.  Indicator-defined
    domains fall back to flagged box Monte Carlo.
    """
    if isinstance(domain, IndicatorDomain):
        return _mc_box_kernel_gamma(domain, ball, z, cfg, t_min)
    t_lo, t_hi = domain.time_interval
    lo = max(t_lo, z.t)
    if t_min is not None:
        lo = max(lo, t_min)
    if t_hi <= lo:
        return IntegralResult(0.0, 0.0, "exact", cells=0)
    profile = _kernel_gamma_profile(domain, ball, z)
    scale = abs_scale if abs_scale is not None else 1.0
    pieces = [(lo, t_hi)]
    t0 = ball.z0.t
    if lo < t0 < t_hi:
        pieces = [(lo, t0), (t0, t_hi)]
    total, err, cells = 0.0, 0.0, 0
    converged = True
    for a, b in pieces:
        res = integrate_time_profile(
            profile, a, b,
            order=cfg.time_order, rel_tol=cfg.time_tol,
            abs_tol=cfg.time_tol * scale,
            max_depth=cfg.endpoint_depth,
            max_cells=cfg.max_cells,
        )
        total += res.value
        err += res.error
        cells += res.cells
        converged = converged and res.converged
    flags = () if converged else ("tolerance_not_met",)
    return IntegralResult(total, err, "exact", cells=cells, converged=converged,
                          flags=flags)


def gamma_potential(domain: SlicedDomain, ball: LBall, z: GroupPoint,
                    cfg: QuadratureConfig) -> IntegralResult:
    """Gamma-potential of the measure (1/r) 1_D W(z0^{-1} o .) at z.

    For the exact ball this equals Gamma(z0, z) at every exterior z and is
    strictly smaller at interior z.
    """
    rhs_scale = ball.r * ball.gamma_from_center(z)
    res = kernel_gamma_integral(domain, ball, z, cfg,
                                abs_scale=max(rhs_scale, 1e-300))
    return IntegralResult(res.value / ball.r, res.error / ball.r, res.method,
                          cells=res.cells, converged=res.converged, flags=res.flags)


# ---------------------------------------------------------------------------
# mean value
# ---------------------------------------------------------------------------


def mean_value(u, ball: LBall, cfg: QuadratureConfig) -> IntegralResult:
    """M_r(u)(z0) = (1/r) int over the ball of u(zeta) W(z0^{-1} o zeta).

    For a polynomial u the slice integrals are exact; for a general callable
    the kernel-importance Monte Carlo path is used.  For functions with
    L u = 0 on a neighborhood of the closed ball the result reproduces u(z0)
    up to quadrature tolerance.
    """
    res = integrate_over_ball(u, ball, cfg, kernel=True)
    return IntegralResult(res.value / ball.r, res.error / ball.r, res.method,
                          cells=res.cells, samples=res.samples,
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

    lo, hi = ball_bounding_box(ball)
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
                "rel_residual", "quad_error"]
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(cols)
            for rec in self.points:
                w.writerow([rec[c] if c != "x" else " ".join(repr(v) for v in rec["x"])
                            for c in cols])


def potential_identity_residual(domain: SlicedDomain, ball: LBall,
                                test_points, cfg: QuadratureConfig,
                                seed: int | None = None) -> RigidityReport:
    """Residuals of int_D Gamma(., z) W = r Gamma(z0, z) over exterior points.

    ``test_points`` holds GroupPoints or (GroupPoint, category) pairs; every
    point must lie outside the domain.  Relative residuals are taken against
    the right-hand side when it exceeds 1e-12, absolutely otherwise.
    """
    report = RigidityReport(
        operator=operator_hash(ball.spec),
        r=ball.r,
        z0=[*ball.z0.x.tolist(), ball.z0.t],
        domain=domain.describe(),
        seed=int(seed) if seed is not None else int(cfg.seed),
        tolerances={"time_tol": cfg.time_tol, "time_order": cfg.time_order},
    )
    sup_abs = sup_rel = 0.0
    for idx, item in enumerate(test_points):
        z, cat = item if isinstance(item, tuple) else (item, "unlabeled")
        if domain.contains(z):
            raise TestPointInsideDomain(f"test point {idx} lies inside the domain")
        rhs = ball.r * ball.gamma_from_center(z)
        res = kernel_gamma_integral(domain, ball, z, cfg,
                                    abs_scale=max(rhs, 1e-300))
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
        })
    report.sup_abs_residual = sup_abs
    report.sup_rel_residual = sup_rel
    return report


def interior_inequality_margin(ball: LBall, interior_points,
                               cfg: QuadratureConfig) -> list[dict]:
    """Margins Gamma(z0, z) - Gamma_mu(z) > 0 at strictly interior points.

    Raises PointNotInterior unless r Gamma(z0, z) > 1 + 1e-6.  Margins are
    reported with the quadrature error estimate of the potential.
    """
    domain = ExactBall(ball)
    records = []
    for idx, z in enumerate(interior_points):
        level = ball.r * ball.gamma_from_center(z)
        if not level > 1.0 + 1e-6:
            raise PointNotInterior(f"point {idx} is not strictly interior (level {level:g})")
        gamma_center = ball.gamma_from_center(z)
        pot = gamma_potential(domain, ball, z, cfg)
        records.append({
            "index": idx,
            "t": z.t,
            "x": z.x.tolist(),
            "gamma": gamma_center,
            "potential": pot.value,
            "margin": gamma_center - pot.value,
            "quad_error": pot.error,
        })
    return records


# ---------------------------------------------------------------------------
# the L^p gluing condition
# ---------------------------------------------------------------------------


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


def _lp_profile(domain: SlicedDomain, ball: LBall, p: float, seed: int):
    """Profile tau -> int of W(z0^{-1} o .)^p over the slices of the symmetric
    difference of the domain and the ball, one call per refinement step.

    Each call takes both stacks from one ``signed_slice_stack`` call each and
    the kernel W(u), u = tau - t0, centred at E(u) x0, from one ``W_quadratic``
    call over the nodes that have a slice.  For nested families at integer p
    the value is |int_D W^p - int_ball W^p|, each a signed sum of exact
    degree-2p ``ball_rule`` integrals.  Otherwise every +1 slice of either
    domain carries 512 samples from its node's Philox stream, and a sample
    counts where it lies in its own domain and not in the other.  The stream
    key reads |tau| in bins of 1e-7, so the times of one bin share one key
    block (``_node_uniforms``), drawn and mapped to the unit ball once per
    block of ``_CELL`` +1 slices; the slice blocks bound the samples a call
    holds at once, however many time cells it carries.
    """
    n = ball.spec.n
    ev = ball.ev
    x0, t0 = ball.z0.x, ball.z0.t
    base = ExactBall(ball)
    p_int = int(round(p))
    nested = isinstance(domain, (ScaledBall, RadiusMismatchBall, BittenBall))
    exact = abs(p - p_int) < 1e-12 and p_int >= 1 and nested
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

        def exact_value(st):
            nodes, weights = ball_rule(n, 2 * p_int)
            X, jac = _ball_maps(st, nodes.T)
            # a per-row sum, so a slice shared by both stacks integrates to the
            # same bits in each and cancels exactly
            vals = st.sign * jac * np.sum(w_power(X, st.node) * weights, axis=1)
            return np.bincount(st.node, weights=vals, minlength=tau.size)

        def mc_block(blk, src, other, salt):
            U, row = _node_uniforms(gen, seed, tau[blk.node], salt, n)
            v = ndtri(np.clip(U[:, :n], 1e-12, 1 - 1e-12))
            v = v / np.linalg.norm(v, axis=1, keepdims=True) * U[:, n:] ** (1.0 / n)
            X, jac = _ball_maps(blk, v[row])
            del U, v  # the key blocks are not needed by the membership tests
            keep = src.holds(X, blk.node) & ~other.holds(X, blk.node)
            return unit_ball_volume(n) * jac * np.mean(w_power(X, blk.node) * keep, axis=1)

        def mc_value(src, other, salt):
            pos = SignedSliceStack(*(a[src.sign > 0] for a in src))
            vals = np.empty(pos.node.size)
            for a in range(0, vals.size, _CELL):
                vals[a:a + _CELL] = mc_block(SignedSliceStack(*(x[a:a + _CELL] for x in pos)),
                                             src, other, salt)
            return np.bincount(pos.node, weights=vals, minlength=tau.size)

        if exact:
            return np.abs(exact_value(sd) - exact_value(sb))
        return mc_value(sb, sd, 1) + mc_value(sd, sb, 2)

    return profile


def lp_condition_norm(domain: SlicedDomain, ball: LBall, p: float,
                      cfg: QuadratureConfig) -> LpCheck:
    """L^p norm of (1_D - 1_ball) W(z0^{-1} o .) over R^{n+1}, for p > 0.

    Zero for the exact ball.  The time integral runs over a profile that
    handles all nodes of a refinement step in one stacked pass (``_lp_profile``):
    exact degree-2p cubature for nested-slice perturbations at integer p,
    Monte Carlo on the slices otherwise; indicator domains fall back to box
    Monte Carlo.  When the tail toward the pole keeps growing under floor
    refinement the estimate is flagged uncertified: the gluing condition
    fails and the true norm is infinite.  A floor integral that stops at its
    cell budget adds the flag ``tolerance_not_met``.
    """
    if not p > 0.0:
        raise ValueError(f"p must be positive, got {p}")
    flags = []
    if p <= ball.spec.Q / 2.0:
        flags.append("p_not_above_Q_half")
    if isinstance(domain, ExactBall) and domain.ball is ball:
        return LpCheck(p, 0.0, 0.0, True, tuple(flags))
    if isinstance(domain, IndicatorDomain):
        integral = _mc_box_lp(domain, ball, p, cfg)
        flags.append("mc_indicator_domain")
        return LpCheck(p, integral ** (1.0 / p) if integral > 0 else 0.0,
                       integral, False, tuple(flags))

    profile = _lp_profile(domain, ball, p, cfg.seed)
    lo = min(domain.time_interval[0], ball.time_interval[0])
    hi = max(domain.time_interval[1], ball.time_interval[1])
    span = hi - lo
    res = [integrate_time_profile(profile, lo, hi - floor * span, order=cfg.time_order,
                                  rel_tol=1e-6, abs_tol=0.0, max_depth=30, max_cells=600)
           for floor in (1e-5, 1e-7)]
    if not all(r.converged for r in res):
        flags.append("tolerance_not_met")
    vals = [r.value for r in res]
    certified = abs(vals[1] - vals[0]) <= 2e-2 * max(abs(vals[1]), 1e-300)
    if not certified:
        flags.append("tail_divergence_suspected")
    integral = vals[1]
    norm = integral ** (1.0 / p) if integral > 0 else 0.0
    return LpCheck(p, norm, integral, certified, tuple(flags))


def _mc_box_lp(domain: SlicedDomain, ball: LBall, p: float,
               cfg: QuadratureConfig) -> float:
    """Box Monte Carlo of the gluing integrand for indicator domains."""
    lo_d, hi_d = domain.bounding_box()
    lo_b, hi_b = ball_bounding_box(ball)
    lo = np.minimum(lo_d, lo_b)
    hi = np.maximum(hi_d, hi_b)
    n = ball.spec.n
    rng = np.random.Generator(np.random.Philox(key=int(cfg.seed) ^ 0x5DEECE66D))
    N = cfg.mc_samples
    pts = lo + (hi - lo) * rng.random((N, n + 1))
    vals = np.zeros(N)
    for i in range(N):
        zeta = ball.spec.point(pts[i, :-1], pts[i, -1])
        in_d = domain.contains(zeta)
        in_b = ball.contains(zeta)
        if in_d == in_b or zeta.t == ball.z0.t:
            continue
        w = ball.ev.W(ball.to_origin_frame(zeta))
        vals[i] = w ** p
    return float(np.prod(hi - lo)) * float(np.mean(vals))


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
    res = kernel_gamma_integral(domain, ball, z_star, cfg, abs_scale=1.0,
                                t_min=z_star.t)
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
