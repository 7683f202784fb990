"""Level-set balls of the fundamental solution, sliced into exact ellipsoids.

The ball of radius r centered at z0 is the superlevel set

    Omega_r(z0) = { z : Gamma(z0, z) > 1/r }.

Writing z = z0 o (xi, -s) with 0 < s < s_max, the condition becomes

    < C(s)^{-1} E(s) xi, E(s) xi >  <  rho(s),
    rho(s) = 4 log( r (4 pi)^{-n/2} det C(s)^{-1/2} ),

so every time slice is an exact ellipsoid and the temporal depth s_max is the
unique positive root of det C(s) = r^2 (4 pi)^{-n}.  With the dilation
D = diag(s^{w/2}), C(s) = D C(1) D, E(s) = D E(1) D^{-1} and
det C(s) = s^{Q-2} det C(1), so rho(s) = 2 (Q-2) log(s_max / s) and the slice
at global time t0 - s is, in global spatial coordinates,

    D E(-1) D^{-1} x0 + sqrt(rho(s)) D T1 B,    T1 = E(-1) L1,  L1 L1^T = C(1),

with B the open unit ball: shape matrix D^{-1} S1 D^{-1} with
S1 = (T1 T1^T)^{-1}, and volume |B_n| rho^{n/2} sqrt(det C(s)).  E(-1), T1
and S1 are per-operator constants of CovarianceModel; LBall.slices evaluates
the formula for a stack of depths, and every slice consumer reads it from
there.  Balls
are constructed at the origin and moved by group translation, which is exact;
dilation by lam maps the radius to lam^{Q-2} r.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import NonPositiveLambda, SliceOutOfRange
from .fundsol import GammaEvaluator
from .operators import GroupPoint, OperatorSpec, group_compose, group_inverse

__all__ = [
    "Ellipsoid",
    "LBall",
    "lball",
    "ball_time_extent",
    "SliceStack",
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

    def ball_map(self) -> np.ndarray:
        """Matrix T mapping the open unit ball onto the centered ellipsoid, x = c + T u."""
        return math.sqrt(self.level) * np.linalg.inv(np.linalg.cholesky(self.shape)).T

    def axis_extents(self) -> np.ndarray:
        """Half-width of the axis-aligned bounding box along each coordinate."""
        Minv = np.linalg.inv(self.shape)
        return np.sqrt(self.level * np.diag(Minv))


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


class SliceStack(NamedTuple):
    """The slices of one ball at a stack of depths, from LBall.slices.

    Only depths with 0 < s < s_max and rho(s) > 0 are kept; ``idx`` holds
    their positions in the input.  Slice k is the ellipsoid
    center[k] + scale[k] * (u @ T1.T), u in the open unit ball, whose shape
    matrix is shape[k] and whose level is rho[k].
    """

    idx: np.ndarray     # (m,) positions of the kept depths in the input
    s: np.ndarray       # (m,) the kept depths
    rho: np.ndarray     # (m,) ellipsoid levels
    center: np.ndarray  # (m, n) global centers E(-s) x0
    scale: np.ndarray   # (m, n) per-axis scales sqrt(rho) s^(w/2)
    shape: np.ndarray   # (m, n, n) shape matrices D^{-1} S1 D^{-1}
    volume: np.ndarray  # (m,) volumes |B_n| rho^(n/2) sqrt(det C(s))


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

    def rho(self, s):
        """Ellipsoid level of the slice at depth s (scalar or array); positive on (0, s_max).

        det C(s) = s^(Q-2) det C(1) and det C(s_max) = r^2 (4 pi)^{-n} give
        rho(s) = 2 (Q - 2) log(s_max / s).
        """
        return 2.0 * (self.spec.Q - 2) * np.log(self.s_max / np.asarray(s, dtype=float))

    def slices(self, s) -> SliceStack:
        """The slices at an array of depths, in one stacked pass (module docstring)."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        idx = np.flatnonzero((s > 0.0) & (s < self.s_max))
        rho = self.rho(s[idx])
        keep = rho > 0.0
        idx, rho = idx[keep], rho[keep]
        s = s[idx]
        cov = self.ev.cov
        n = self.spec.n
        dil = s[:, None] ** cov.half_weights  # the diagonal of D = D(sqrt s)
        sqrt_det = self.r * self.ev.norm * (s / self.s_max) ** (0.5 * (self.spec.Q - 2))
        return SliceStack(
            idx=idx,
            s=s,
            rho=rho,
            center=dil * ((self.z0.x / dil) @ cov.E_minus1.T),
            scale=np.sqrt(rho)[:, None] * dil,
            shape=cov.S1 / (dil[:, :, None] * dil[:, None, :]),
            volume=unit_ball_volume(n) * rho ** (n / 2.0) * sqrt_det,
        )

    def slice_at(self, s: float) -> Ellipsoid:
        """Origin-frame ellipsoid of the slice at depth s in (0, s_max)."""
        sl = self.slices(s)
        if sl.idx.size == 0:
            raise SliceOutOfRange(f"no slice at s={s:g}: outside (0, {self.s_max:g}) "
                                  "or nonpositive level")
        return Ellipsoid(np.zeros(self.spec.n), sl.shape[0], float(sl.rho[0]))

    def slice_center(self, s: float) -> np.ndarray:
        """Global spatial center of the slice at global time t0 - s: E(-s) x0."""
        return self.ev.cov.E(-s) @ self.z0.x

    def to_origin_frame(self, z: GroupPoint) -> GroupPoint:
        """z0^{-1} o z: the point whose origin-frame slice holds z."""
        return group_compose(group_inverse(self.z0, self.spec), z, self.spec)

    def from_origin_frame(self, w: GroupPoint) -> GroupPoint:
        """z0 o w."""
        return group_compose(self.z0, w, self.spec)

    def contains(self, z: GroupPoint) -> bool:
        return ball_contains(z, self)

    def classify(self, z: GroupPoint, shell: float = 1e-12) -> str:
        return ball_classify(z, self, shell)

    def gamma_from_center(self, z: GroupPoint) -> float:
        return self.ev.Gamma(self.z0, z)

    @cached_property
    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        """``ball_bounding_box(self)``, searched once per ball; read-only arrays."""
        box = ball_bounding_box(self)
        for a in box:
            a.setflags(write=False)
        return box


def lball(spec: OperatorSpec, r: float, z0: GroupPoint | None = None,
          ev: GammaEvaluator | None = None) -> LBall:
    """Construct Omega_r(z0); z0 defaults to the origin."""
    ev = ev if ev is not None else GammaEvaluator(spec)
    z0 = z0 if z0 is not None else spec.origin()
    s_max = ball_time_extent(r, spec, ev)
    return LBall(z0=z0, r=float(r), s_max=s_max, spec=spec, ev=ev)


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


def ball_bounding_box(ball: LBall, samples: int = 1024) -> tuple[np.ndarray, np.ndarray]:
    """Axis-aligned box containing the ball: (lo, hi), last coordinate time.

    Along axis i the slice at depth s spans c_i(s) +- sqrt(rho) s^(w_i/2)
    |row i of T1|.  These reaches are sampled on a graded grid in one stacked
    call and refined by golden-section search around the best sample.
    """
    spec = ball.spec
    row_norms = np.linalg.norm(ball.ev.cov.T1, axis=1)

    def reach(s):
        """Upper and lower slice reach per axis; -inf and +inf where there is no slice."""
        s = np.atleast_1d(s)
        up = np.full((s.size, spec.n), -np.inf)
        dn = np.full((s.size, spec.n), np.inf)
        sl = ball.slices(s)
        half = sl.scale * row_norms
        up[sl.idx] = sl.center + half
        dn[sl.idx] = sl.center - half
        return up, dn

    # dense interior grid, graded toward both endpoints
    u = np.linspace(0.0, 1.0, samples + 2)[1:-1]
    grid = ball.s_max * np.sin(0.5 * math.pi * u) ** 2
    up, dn = reach(grid)

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

    lo = np.empty(spec.n)
    hi = np.empty(spec.n)
    for i in range(spec.n):
        hi[i] = refine(lambda s, i=i: reach(s)[0][0, i], int(np.argmax(up[:, i])))
        lo[i] = -refine(lambda s, i=i: -reach(s)[1][0, i], int(np.argmin(dn[:, i])))
    t_lo, t_hi = ball.time_interval
    return (
        np.concatenate([lo, [t_lo]]),
        np.concatenate([hi, [t_hi]]),
    )


def ball_translate(ball: LBall, z0: GroupPoint) -> LBall:
    """Left-translate by z0: z0 o Omega_r(c) = Omega_r(z0 o c)."""
    new_center = group_compose(z0, ball.z0, ball.spec)
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
    sl = ball.slices(ball.s_max * np.arange(1, count + 1) / (count + 1))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k in range(sl.s.size):
            row = (
                [repr(float(sl.s[k]))]
                + [repr(float(c)) for c in sl.center[k]]
                + [repr(float(v)) for v in sl.shape[k].ravel()]
                + [repr(float(sl.rho[k]))]
            )
            writer.writerow(row)
