"""Level-set balls of the fundamental solution, sliced into exact ellipsoids.

The ball of radius r centered at z0 is the superlevel set

    Omega_r(z0) = { z : Gamma(z0, z) > 1/r }.

Writing z = z0 o (xi, -s) with 0 < s < s_max, the condition becomes

    < C(s)^{-1} E(s) xi, E(s) xi >  <  rho(s),
    rho(s) = 4 log( r (4 pi)^{-n/2} det C(s)^{-1/2} ),

so every time slice is an exact ellipsoid and the temporal depth s_max is the
unique positive root of det C(s) = r^2 (4 pi)^{-n}.  Balls are constructed at
the origin and moved by group translation, which is exact; dilation by lam
maps the radius to lam^{Q-2} r.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveLambda, SliceOutOfRange
from .fundsol import GammaEvaluator
from .operators import GroupPoint, OperatorSpec, group_compose, group_inverse, transport_matrix

__all__ = [
    "Ellipsoid",
    "LBall",
    "lball",
    "ball_time_extent",
    "ball_slice",
    "ball_contains",
    "ball_classify",
    "ball_bounding_box",
    "ball_translate",
    "ball_dilate",
    "export_slices_csv",
    "unit_ball_volume",
]


def unit_ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n."""
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


@dataclass(frozen=True, eq=False)
class Ellipsoid:
    """Open ellipsoid { x : <M (x - c), x - c> < rho } with M symmetric positive definite."""

    center: np.ndarray
    shape: np.ndarray
    level: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        object.__setattr__(self, "shape", np.asarray(self.shape, dtype=float))
        if self.level <= 0.0:
            raise ValueError("ellipsoid level must be positive")

    @property
    def n(self) -> int:
        return self.center.size

    def contains(self, X: np.ndarray) -> np.ndarray:
        """Vectorized membership for rows of X (single point allowed)."""
        X = np.atleast_2d(np.asarray(X, dtype=float)) - self.center
        q = np.einsum("ij,jk,ik->i", X, self.shape, X)
        return q < self.level

    def volume(self) -> float:
        return (
            unit_ball_volume(self.n)
            * self.level ** (self.n / 2.0)
            / math.sqrt(np.linalg.det(self.shape))
        )

    def cholesky(self) -> np.ndarray:
        """Lower factor L with shape = L L^T."""
        return np.linalg.cholesky(self.shape)

    def ball_map(self) -> np.ndarray:
        """Matrix T mapping the open unit ball onto the centered ellipsoid, x = c + T u."""
        L = self.cholesky()
        return math.sqrt(self.level) * np.linalg.inv(L).T

    def axis_extents(self) -> np.ndarray:
        """Half-width of the axis-aligned bounding box along each coordinate."""
        Minv = np.linalg.inv(self.shape)
        return np.sqrt(self.level * np.diag(Minv))

    def scaled(self, factor: float) -> "Ellipsoid":
        """Similar ellipsoid with linear size multiplied by ``factor``."""
        return Ellipsoid(self.center, self.shape, self.level * factor ** 2)

    def shifted(self, h: np.ndarray) -> "Ellipsoid":
        return Ellipsoid(self.center + np.asarray(h, dtype=float), self.shape, self.level)


def ball_time_extent(r: float, spec: OperatorSpec, ev: GammaEvaluator | None = None) -> float:
    """Temporal depth s_max: the unique s > 0 with det C(s) = r^2 (4 pi)^{-n}.

    Dilation invariance gives det C(s) = s^(Q-2) det C(1) on s > 0, so the
    root is closed-form: s_max = (r^2 (4 pi)^{-n} / det C(1))^(1/(Q-2)).
    """
    if r <= 0.0:
        raise NonPositiveLambda(f"ball radius must be positive, got {r}")
    ev = ev if ev is not None else GammaEvaluator(spec)
    target = r * r * (4.0 * math.pi) ** (-spec.n)
    return float((target / ev.cov.detC(1.0)) ** (1.0 / (spec.Q - 2)))


@dataclass(frozen=True, eq=False)
class LBall:
    """The ball Omega_r(z0) with its slice machinery.

    Slices are stored in the origin frame: the point z = z0 o (xi, -s) lies in
    the ball iff xi lies in slice_at(s).
    """

    z0: GroupPoint
    r: float
    s_max: float
    spec: OperatorSpec
    ev: GammaEvaluator

    @property
    def t0(self) -> float:
        return self.z0.t

    @property
    def time_interval(self) -> tuple[float, float]:
        return (self.z0.t - self.s_max, self.z0.t)

    def log_level(self) -> float:
        """log(r (4 pi)^{-n/2}) reused by every slice."""
        return math.log(self.r) - 0.5 * self.spec.n * math.log(4.0 * math.pi)

    def rho(self, s):
        """Ellipsoid level of the slice at depth s (scalar or array); positive on (0, s_max)."""
        return 4.0 * (self.log_level() - 0.5 * np.log(self.ev.cov.detC(s)))

    def slice_at(self, s: float) -> Ellipsoid:
        return ball_slice(s, self)

    def slice_center(self, s: float) -> np.ndarray:
        """Global spatial center of the slice at global time t0 - s: E(-s) x0."""
        return transport_matrix(-s, self.spec) @ self.z0.x

    def slice_volume(self, s: float) -> float:
        """Spatial volume of the slice at depth s (0 outside (0, s_max))."""
        if not 0.0 < s < self.s_max:
            return 0.0
        rho = self.rho(s)
        if rho <= 0.0:
            return 0.0
        # det shape = det C(s)^{-1} since det E = 1
        return unit_ball_volume(self.spec.n) * rho ** (self.spec.n / 2.0) * math.sqrt(
            self.ev.cov.detC(s)
        )

    def to_origin_frame(self, z: GroupPoint) -> GroupPoint:
        return group_compose(z, group_inverse(self.z0, self.spec), self.spec)

    def from_origin_frame(self, w: GroupPoint) -> GroupPoint:
        return group_compose(w, self.z0, self.spec)

    def contains(self, z: GroupPoint) -> bool:
        return ball_contains(z, self)

    def classify(self, z: GroupPoint, shell: float = 1e-12) -> str:
        return ball_classify(z, self, shell)

    def gamma_from_center(self, z: GroupPoint) -> float:
        return self.ev.Gamma(self.z0, z)


def lball(spec: OperatorSpec, r: float, z0: GroupPoint | None = None,
          ev: GammaEvaluator | None = None) -> LBall:
    """Construct Omega_r(z0); z0 defaults to the origin."""
    ev = ev if ev is not None else GammaEvaluator(spec)
    z0 = z0 if z0 is not None else spec.origin()
    s_max = ball_time_extent(r, spec, ev)
    return LBall(z0=z0, r=float(r), s_max=s_max, spec=spec, ev=ev)


def ball_slice(s: float, ball: LBall) -> Ellipsoid:
    """Origin-frame ellipsoid of the slice at depth s in (0, s_max).

    Shape matrix E(s)^T C(s)^{-1} E(s), level rho(s); the slice degenerates as
    s -> s_max (rho -> 0) and as s -> 0.
    """
    if not 0.0 < s < ball.s_max:
        raise SliceOutOfRange(f"s={s:g} outside (0, {ball.s_max:g})")
    rho = ball.rho(s)
    if rho <= 0.0:
        raise SliceOutOfRange(f"slice level nonpositive at s={s:g}")
    E = transport_matrix(s, ball.spec)
    Cinv = ball.ev.cov.C_inverse(s)
    M = E.T @ Cinv @ E
    return Ellipsoid(np.zeros(ball.spec.n), 0.5 * (M + M.T), rho)


def ball_contains(z: GroupPoint, ball: LBall) -> bool:
    """Direct membership: Gamma(z0, z) > 1/r."""
    return ball.gamma_from_center(z) > 1.0 / ball.r


def ball_classify(z: GroupPoint, ball: LBall, shell: float = 1e-12) -> str:
    """Membership with float honesty at the level set.

    Returns "inside", "outside", or "boundary" when |Gamma - 1/r| falls within
    ``shell`` * (1/r).
    """
    g = ball.gamma_from_center(z)
    level = 1.0 / ball.r
    if abs(g - level) < shell * level:
        return "boundary"
    return "inside" if g > level else "outside"


def _slice_extent_profile(ball: LBall):
    """Per-axis slice centers and half-widths as functions of s.

    The inverse shape is E(-s) C(s) E(-s)^T, so no solves are needed.
    """
    spec = ball.spec

    def profile(s: float):
        Einv = transport_matrix(-s, spec)
        Minv = Einv @ ball.ev.cov.C(s) @ Einv.T
        rho = ball.rho(s)
        if rho <= 0.0:
            return ball.slice_center(s), np.zeros(spec.n)
        return ball.slice_center(s), np.sqrt(rho * np.clip(np.diag(Minv), 0.0, None))

    return profile


def ball_bounding_box(ball: LBall, samples: int = 1024) -> tuple[np.ndarray, np.ndarray]:
    """Axis-aligned box containing the ball: (lo, hi), last coordinate time.

    Per-axis extents of the slice ellipsoids are sampled over s and refined by
    golden-section search around the best sample.
    """
    spec = ball.spec
    profile = _slice_extent_profile(ball)
    # dense interior grid, graded toward both endpoints
    u = np.linspace(0.0, 1.0, samples + 2)[1:-1]
    grid = ball.s_max * np.sin(0.5 * math.pi * u) ** 2
    lo = np.full(spec.n, np.inf)
    hi = np.full(spec.n, -np.inf)
    centers = np.empty((grid.size, spec.n))
    extents = np.empty((grid.size, spec.n))
    for k, s in enumerate(grid):
        c, e = profile(s)
        centers[k] = c
        extents[k] = e

    gold = (math.sqrt(5.0) - 1.0) / 2.0

    def refine(f, k):
        a = grid[max(k - 1, 0)]
        b = grid[min(k + 1, grid.size - 1)]
        c, d = b - gold * (b - a), a + gold * (b - a)
        fc, fd = f(c), f(d)
        for _ in range(80):
            if fc > fd:
                b, d, fd = d, c, fc
                c = b - gold * (b - a)
                fc = f(c)
            else:
                a, c, fc = c, d, fd
                d = a + gold * (b - a)
                fd = f(d)
            if b - a < 1e-12 * ball.s_max:
                break
        return max(fc, fd)

    for i in range(spec.n):
        up = centers[:, i] + extents[:, i]
        dn = centers[:, i] - extents[:, i]
        k_up, k_dn = int(np.argmax(up)), int(np.argmin(dn))
        hi[i] = refine(lambda s, i=i: profile(s)[0][i] + profile(s)[1][i], k_up)
        lo[i] = -refine(lambda s, i=i: -(profile(s)[0][i] - profile(s)[1][i]), k_dn)
    t_lo, t_hi = ball.time_interval
    return (
        np.concatenate([lo, [t_lo]]),
        np.concatenate([hi, [t_hi]]),
    )


def ball_translate(ball: LBall, z0: GroupPoint) -> LBall:
    """Left-translate: Omega_r(z0) = z0 o Omega_r(origin)."""
    new_center = group_compose(ball.z0, z0, ball.spec)
    return LBall(z0=new_center, r=ball.r, s_max=ball.s_max, spec=ball.spec, ev=ball.ev)


def ball_dilate(ball: LBall, lam: float) -> LBall:
    """Dilate an origin ball: delta_lam(Omega_r(0)) = Omega_{lam^{Q-2} r}(0)."""
    if lam <= 0.0:
        raise NonPositiveLambda(f"lambda must be positive, got {lam}")
    return lball(ball.spec, lam ** (ball.spec.Q - 2) * ball.r, ball.z0, ball.ev)


def export_slices_csv(ball: LBall, path, count: int = 200) -> None:
    """Write (s, center, shape entries, rho) rows for plotting."""
    n = ball.spec.n
    header = (
        ["s"]
        + [f"center_{i}" for i in range(n)]
        + [f"shape_{i}{j}" for i in range(n) for j in range(n)]
        + ["rho"]
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k in range(1, count + 1):
            s = ball.s_max * k / (count + 1)
            ell = ball.slice_at(s)
            row = (
                [repr(float(s))]
                + [repr(float(c)) for c in ball.slice_center(s)]
                + [repr(float(v)) for v in ell.shape.ravel()]
                + [repr(float(ell.level))]
            )
            writer.writerow(row)
