"""Bounded test domains represented by signed ellipsoidal time slices.

The rigidity experiments need domains that are *exactly* decidable per slice,
so perturbed domains are built directly from the exact ball's ellipsoids:
scaled slices, spatially shifted slices, a different radius, a bitten-out
sub-ellipsoid, and a Euclidean time translation (used to push mass above the
center time).  A generic indicator-defined domain is supported for Monte
Carlo only paths.

Each slice query returns a list of (sign, ellipsoid) pairs in global spatial
coordinates: +1 regions minus -1 regions.  Signed regions always nest, so
integrals over the domain are signed sums of ellipsoid integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .balls import Ellipsoid, LBall, ball_bounding_box, lball
from .operators import GroupPoint

__all__ = [
    "SlicedDomain",
    "ExactBall",
    "ScaledBall",
    "ShiftedBall",
    "RadiusMismatchBall",
    "BittenBall",
    "TimeShiftedBall",
    "IndicatorDomain",
    "make_perturbation",
]


class SlicedDomain:
    """Base interface: a bounded domain with per-time signed ellipsoid slices."""

    ball: LBall

    @property
    def time_interval(self) -> tuple[float, float]:
        raise NotImplementedError

    def signed_slices(self, t: float) -> list[tuple[float, Ellipsoid]]:
        raise NotImplementedError

    def contains(self, z: GroupPoint) -> bool:
        t_lo, t_hi = self.time_interval
        if not t_lo < z.t < t_hi:
            return False
        total = 0.0
        for sign, ell in self.signed_slices(z.t):
            if ell.contains(z.x[None, :])[0]:
                total += sign
        return total > 0.0

    def bounding_box(self):
        return ball_bounding_box(self.ball)

    def describe(self) -> dict:
        return {"kind": type(self).__name__}


def _global_slice(ball: LBall, s: float) -> Ellipsoid | None:
    """The slice at depth s in global spatial coordinates; None where there is none."""
    sl = ball.slices(s)
    if sl.idx.size == 0:
        return None
    return Ellipsoid(sl.center[0], sl.shape[0], float(sl.rho[0]))


@dataclass(eq=False)
class ExactBall(SlicedDomain):
    """The ball itself, as a sliced domain."""

    ball: LBall

    @property
    def time_interval(self):
        return self.ball.time_interval

    def signed_slices(self, t):
        ell = _global_slice(self.ball, self.ball.t0 - t)
        return [(1.0, ell)] if ell is not None else []

    def contains(self, z):
        # direct level-set membership is exact for the unperturbed ball
        return self.ball.contains(z)

    def describe(self):
        return {"kind": "exact_ball", "r": self.ball.r}


@dataclass(eq=False)
class ScaledBall(SlicedDomain):
    """Slices rescaled linearly by factor(s / s_max); factor may be a float."""

    ball: LBall
    factor: float | object = 1.05

    def _f(self, s: float) -> float:
        if callable(self.factor):
            return float(self.factor(s / self.ball.s_max))
        return float(self.factor)

    @property
    def time_interval(self):
        return self.ball.time_interval

    def signed_slices(self, t):
        s = self.ball.t0 - t
        ell = _global_slice(self.ball, s)
        if ell is None:
            return []
        f = self._f(s)
        if f <= 0.0:
            return []
        return [(1.0, ell.scaled(f))]

    def describe(self):
        mag = self.factor if not callable(self.factor) else "profile"
        return {"kind": "slice_scale", "factor": mag, "r": self.ball.r}


@dataclass(eq=False)
class ShiftedBall(SlicedDomain):
    """Every slice translated spatially by a constant vector h."""

    ball: LBall
    h: np.ndarray

    def __post_init__(self):
        self.h = np.asarray(self.h, dtype=float)

    @property
    def time_interval(self):
        return self.ball.time_interval

    def signed_slices(self, t):
        ell = _global_slice(self.ball, self.ball.t0 - t)
        return [(1.0, ell.shifted(self.h))] if ell is not None else []

    def bounding_box(self):
        lo, hi = ball_bounding_box(self.ball)
        n = self.ball.spec.n
        return lo + np.concatenate([self.h, [0.0]]), hi + np.concatenate([self.h, [0.0]])

    def describe(self):
        return {"kind": "spatial_shift", "h": self.h.tolist(), "r": self.ball.r}


@dataclass(eq=False)
class RadiusMismatchBall(SlicedDomain):
    """The exact ball of a different radius r', tested against radius r."""

    ball: LBall  # the reference measure ball (radius r)
    other: LBall  # the actual domain (radius r')

    @property
    def time_interval(self):
        return self.other.time_interval

    def signed_slices(self, t):
        ell = _global_slice(self.other, self.other.t0 - t)
        return [(1.0, ell)] if ell is not None else []

    def contains(self, z):
        return self.other.contains(z)

    def bounding_box(self):
        return ball_bounding_box(self.other)

    def describe(self):
        return {"kind": "radius_mismatch", "r": self.ball.r, "r_prime": self.other.r}


@dataclass(eq=False)
class BittenBall(SlicedDomain):
    """The ball with a strictly interior sub-ellipsoid removed.

    Over s in [s_lo, s_hi] (fractions of s_max) the slice loses a similar
    ellipsoid scaled by ``size`` and offset along the ellipsoid metric by
    ``offset`` (offset + size < 1 keeps the bite strictly inside).  A sine
    bump makes the bite close continuously at its temporal ends.
    """

    ball: LBall
    s_range: tuple[float, float] = (0.35, 0.75)
    size: float = 0.3
    offset: float = 0.45
    axis: int = 0

    def __post_init__(self):
        if self.offset + self.size >= 0.98:
            raise ValueError("bite must be strictly interior: offset + size < 1")

    @property
    def time_interval(self):
        return self.ball.time_interval

    def _bite(self, s: float, ell: Ellipsoid) -> Ellipsoid | None:
        u = s / self.ball.s_max
        a, b = self.s_range
        if not a < u < b:
            return None
        bump = math.sin(math.pi * (u - a) / (b - a))
        size = self.size * bump
        if size <= 1e-3:
            return None
        # offset along a unit vector of the slice metric: x = c + offset * T e_axis
        T = ell.ball_map()
        center = ell.center + self.offset * T[:, self.axis]
        return Ellipsoid(center, ell.shape, ell.level * size ** 2)

    def signed_slices(self, t):
        s = self.ball.t0 - t
        ell = _global_slice(self.ball, s)
        if ell is None:
            return []
        bite = self._bite(s, ell)
        if bite is None:
            return [(1.0, ell)]
        return [(1.0, ell), (-1.0, bite)]

    def describe(self):
        return {
            "kind": "bite",
            "s_range": list(self.s_range),
            "size": self.size,
            "offset": self.offset,
            "r": self.ball.r,
        }


@dataclass(eq=False)
class TimeShiftedBall(SlicedDomain):
    """Euclidean time translation of the ball by dt (straddles t0 when dt > 0)."""

    ball: LBall
    dt: float

    @property
    def time_interval(self):
        lo, hi = self.ball.time_interval
        return (lo + self.dt, hi + self.dt)

    def signed_slices(self, t):
        ell = _global_slice(self.ball, self.ball.t0 + self.dt - t)
        return [(1.0, ell)] if ell is not None else []

    def bounding_box(self):
        lo, hi = ball_bounding_box(self.ball)
        shift = np.zeros_like(lo)
        shift[-1] = self.dt
        return lo + shift, hi + shift

    def describe(self):
        return {"kind": "time_shift", "dt": self.dt, "r": self.ball.r}


@dataclass(eq=False)
class IndicatorDomain(SlicedDomain):
    """Membership-callable domain with a known bounding box; MC paths only."""

    ball: LBall
    fn: object
    box: tuple[np.ndarray, np.ndarray]

    @property
    def time_interval(self):
        return (float(self.box[0][-1]), float(self.box[1][-1]))

    def signed_slices(self, t):
        raise NotImplementedError("indicator domains have no exact slices")

    def contains(self, z):
        return bool(self.fn(z))

    def bounding_box(self):
        return self.box

    def describe(self):
        return {"kind": "indicator"}


def make_perturbation(ball: LBall, kind: str, magnitude: float) -> SlicedDomain:
    """Standard perturbation families at a given relative magnitude.

    spatial_shift: shift by magnitude * (largest slice half-width);
    radius_mismatch: radius (1 + magnitude) r; slice_scale: constant factor
    1 + magnitude; bite: interior bite of relative size ~ magnitude.
    """
    if kind == "spatial_shift":
        lo, hi = ball_bounding_box(ball)
        half = 0.5 * float(np.max(hi[:-1] - lo[:-1]))
        h = np.zeros(ball.spec.n)
        h[0] = magnitude * half
        return ShiftedBall(ball, h)
    if kind == "radius_mismatch":
        other = lball(ball.spec, (1.0 + magnitude) * ball.r, ball.z0, ball.ev)
        return RadiusMismatchBall(ball, other)
    if kind == "slice_scale":
        return ScaledBall(ball, 1.0 + magnitude)
    if kind == "bite":
        return BittenBall(ball, size=max(0.15, min(0.45, 3.0 * magnitude)))
    raise ValueError(f"unknown perturbation kind: {kind}")
