"""Experiment layer: mean values, potentials, the exterior identity, rigidity.

Everything here is phrased around a measure ball Omega_r(z0) (an LBall, which
carries the operator and evaluator) and optionally a test domain D.  The
central quantity is the kernel-weighted potential

    P(D, z) = int_D Gamma(zeta, z) W(z0^{-1} o zeta) d zeta,

computed one time cell at a time: at each time the integrand is a Gaussian
in the spatial variable times a quadratic (the kernel), integrated over the
signed slice ellipsoids, and each call of the adaptive compressed time rule's
profile stacks the slices of all its nodes into one Gaussian x quadratic
engine call.  For the exact ball and z outside, P equals r Gamma(z0, z); the
rigidity experiments measure how strongly perturbed domains break that
identity.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from . import __version__ as _version
from .balls import LBall, ball_bounding_box
from .domains import (
    BittenBall,
    ExactBall,
    IndicatorDomain,
    RadiusMismatchBall,
    ScaledBall,
    SlicedDomain,
)
from .errors import PointNotInterior, TestPointInsideDomain, TimeZero
from .operators import GroupPoint, operator_hash, transport_matrix
from .quadrature import (
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
    """Profile tau -> int over the slices of Gamma(., z) W(z0^{-1} o .), one call per time cell.

    At a node tau with delta = tau - z.t > 0 the integrand is the Gaussian of
    covariance 2 C(delta) centred at E(delta) z.x, whose Cholesky factor is
    D(sqrt delta) L1, times the quadratic W(u), u = tau - t0, centred at
    E(u) x0; homogeneity gives W(u) = D(|u|^{-1/2}) W(sign u) D(|u|^{-1/2}) / |u|.
    All nodes of a call take their slices from one ``signed_slice_stack``
    call and go through one ``gaussian_quadratic_stack`` call.
    """
    ev = ball.ev
    cov = ev.cov
    x0, t0 = ball.z0.x, ball.z0.t
    W_unit = {1.0: ev.W_quadratic(1.0), -1.0: ev.W_quadratic(-1.0)}

    def profile(tau_arr):
        tau = np.atleast_1d(np.asarray(tau_arr, dtype=float))
        live = np.flatnonzero(tau - z.t > 0.0)
        st = domain.signed_slice_stack(tau[live])
        node = live[st.node]
        if node.size == 0:
            return np.zeros(tau.size)
        delta = tau[node] - z.t
        u = tau[node] - t0
        if np.any(u == 0.0):
            raise TimeZero("kernel W is undefined on R^n x {0}")
        d = np.abs(u)[:, None] ** -cov.half_weights
        MW = (np.where((u > 0.0)[:, None, None], W_unit[1.0], W_unit[-1.0])
              * (d[:, :, None] * d[:, None, :]) / np.abs(u)[:, None, None])
        vals = gaussian_quadratic_stack(
            st.center, st.shape, st.level,
            mean=cov.E(delta) @ z.x,
            chol_cov_half=(delta[:, None] ** cov.half_weights)[:, :, None] * cov.L1,
            M=MW,
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
        sup_abs = max(sup_abs, abs_res)
        sup_rel = max(sup_rel, rel_res)
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


def _slice_power_integral(ell, MW, cW, p: int, n: int) -> float:
    """Exact integral of W^p over one ellipsoid via a degree-2p ball rule."""
    nodes, weights = ball_rule(n, 2 * p)
    T = ell.ball_map()
    X = ell.center + nodes @ T.T
    Y = X - cW
    w = np.einsum("ij,jk,ik->i", Y, MW, Y)
    jac = ell.level ** (n / 2.0) / math.sqrt(np.linalg.det(ell.shape))
    return jac * float(weights @ np.clip(w, 0.0, None) ** p)


def lp_condition_norm(domain: SlicedDomain, ball: LBall, p: float,
                      cfg: QuadratureConfig) -> LpCheck:
    """L^p norm of (1_D - 1_ball) W(z0^{-1} o .) over R^{n+1}.

    Zero for the exact ball.  For nested-slice perturbations the symmetric
    difference is a signed combination of ellipsoid integrals of W^p (exact
    per slice, p integer); spatially shifted domains fall back to per-slice
    Monte Carlo.  When the tail toward the pole keeps growing under floor
    refinement the estimate is flagged uncertified: the gluing condition
    fails and the true norm is infinite.
    """
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

    spec = ball.spec
    ev = ball.ev
    t0 = ball.z0.t
    x0 = ball.z0.x
    p_int = int(round(p))
    exact_power = abs(p - p_int) < 1e-12 and p_int >= 1 and _nested_family(domain)
    base = ExactBall(ball)

    def mc_slice_symdiff(b_sl, d_sl, MW, cW, tau):
        """Per-slice MC for non-nested slices: W^p over the symmetric difference."""

        def region_value(src_slices, other_slices, salt):
            total = 0.0
            for sign, ell in src_slices:
                if sign <= 0:
                    continue
                m = 512
                key = ((int(cfg.seed) & 0xFFFFFFFF) << 28) ^ (
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

        return region_value(b_sl, d_sl, 1) + region_value(d_sl, b_sl, 2)

    def slice_symdiff(tau: float) -> float:
        MW = ev.W_quadratic(tau - t0)
        cW = transport_matrix(tau - t0, spec) @ x0
        b_sl = base.signed_slices(tau)
        d_sl = domain.signed_slices(tau)
        if not b_sl and not d_sl:
            return 0.0
        if exact_power:
            vb = sum(sign * _slice_power_integral(e, MW, cW, p_int, spec.n)
                     for sign, e in b_sl)
            vd = sum(sign * _slice_power_integral(e, MW, cW, p_int, spec.n)
                     for sign, e in d_sl)
            return abs(vd - vb)
        return mc_slice_symdiff(b_sl, d_sl, MW, cW, tau)

    def profile(tau_arr):
        return np.array([slice_symdiff(float(t)) for t in np.atleast_1d(tau_arr)])

    lo = min(domain.time_interval[0], ball.time_interval[0])
    hi = max(domain.time_interval[1], ball.time_interval[1])
    span = hi - lo
    vals = []
    for floor in (1e-5, 1e-7):
        res = integrate_time_profile(profile, lo, hi - floor * span,
                                     order=cfg.time_order, rel_tol=1e-6,
                                     abs_tol=0.0, max_depth=30, max_cells=600)
        vals.append(res.value)
    certified = abs(vals[1] - vals[0]) <= 2e-2 * max(abs(vals[1]), 1e-300)
    if not certified:
        flags.append("tail_divergence_suspected")
    integral = vals[1]
    norm = integral ** (1.0 / p) if integral > 0 else 0.0
    return LpCheck(p, norm, integral, certified, tuple(flags))


def _nested_family(domain: SlicedDomain) -> bool:
    return isinstance(domain, (ScaledBall, RadiusMismatchBall, BittenBall))


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
