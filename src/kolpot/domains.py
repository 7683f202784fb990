"""Bounded test domains represented by signed ellipsoidal time slices.

The rigidity experiments need domains that are *exactly* decidable per slice,
so perturbed domains are built directly from the exact ball's ellipsoids:
scaled slices, spatially shifted slices, a different radius, a bitten-out
sub-ellipsoid, and a Euclidean time translation (used to push mass above the
center time).

The slice query is stacked: ``signed_slice_stack`` takes an array of times
and returns every signed ellipsoid at all of them (a SignedSliceStack, in
global spatial coordinates: +1 regions minus -1 regions), built from one
``LBall.slices`` call; ``signed_slices`` is its one-time view as a list of
(sign, ellipsoid) pairs.  Signed regions always nest, so integrals over the
domain are signed sums of ellipsoid integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .balls import Ellipsoid, LBall, SliceStack, lball
from .operators import GroupPoint

__all__ = [
    "SignedSliceStack",
    "SlicedDomain",
    "ExactBall",
    "ScaledBall",
    "ShiftedBall",
    "RadiusMismatchBall",
    "BittenBall",
    "TimeShiftedBall",
    "make_perturbation",
]


def quadratic_form(S: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """<S[k] y, y> per point y = Y[k, :, j] of an (m, n, q) stack; even coordinates are summed
    before odd ones, as numpy's einsum sums a last axis (n <= 3), so the bits match that form."""
    return (Z := (S @ Y) * Y)[:, ::2].sum(axis=1) + Z[:, 1::2].sum(axis=1)


class SignedSliceStack(NamedTuple):
    """The signed slices of a domain at a stack of times.

    Entry k is the ellipsoid {x : <shape[k] (x - center[k]), x - center[k]> <
    level[k]} in global spatial coordinates, counted with sign[k] at the time
    in input position node[k].  The entries of one time are adjacent, with
    the +1 region first.
    """

    node: np.ndarray    # (m,) positions in the input times
    sign: np.ndarray    # (m,)
    center: np.ndarray  # (m, n)
    shape: np.ndarray   # (m, n, n)
    level: np.ndarray   # (m,)

    def holds(self, X: np.ndarray, node: np.ndarray) -> np.ndarray:
        """Membership of the points X[k, :, j] (X is (m, n, q)) at input time node[k]: the
        signed count of the slices holding a point, one bincount, is positive."""
        i, j = np.nonzero(node[:, None] == self.node[None, :])
        Y = X[i] - self.center[j][:, :, None]
        inside = quadratic_form(self.shape[j], Y) < self.level[j][:, None]
        count = np.bincount((i[:, None] * X.shape[2] + np.arange(X.shape[2])).ravel(),
                            (self.sign[j][:, None] * inside).ravel(), X.shape[0] * X.shape[2])
        return count.reshape(X.shape[0], X.shape[2]) > 0.0


def _ball_stack(sl: SliceStack) -> SignedSliceStack:
    # every kept slice has rho > 0, so np.sign gives the +1 signs (cheaper than np.ones)
    return SignedSliceStack(sl.idx, np.sign(sl.rho), sl.center, sl.shape, sl.rho)


class SlicedDomain:
    """Base interface: a bounded domain with per-time signed ellipsoid slices."""

    ball: LBall

    @property
    def time_interval(self) -> tuple[float, float]:
        raise NotImplementedError

    def signed_slice_stack(self, t) -> SignedSliceStack:
        """The signed slices at an array of times (or at one time, as node 0),
        from one ``LBall.slices`` call."""
        raise NotImplementedError

    def signed_slices(self, t: float) -> list[tuple[float, Ellipsoid]]:
        """The signed slices at one time: the one-node view of signed_slice_stack."""
        st = self.signed_slice_stack(float(t))
        return [(float(st.sign[k]), Ellipsoid(st.center[k], st.shape[k], float(st.level[k])))
                for k in range(st.node.size)]

    def contains(self, z: GroupPoint) -> bool:
        t_lo, t_hi = self.time_interval
        if not t_lo < z.t < t_hi:
            return False
        return bool(self.signed_slice_stack(z.t).holds(z.x[None, :, None], np.array([0]))[0, 0])

    def describe(self) -> dict:
        return {"kind": type(self).__name__}


@dataclass(eq=False)
class ExactBall(SlicedDomain):
    """The ball itself, as a sliced domain."""

    ball: LBall

    @property
    def time_interval(self):
        return self.ball.time_interval

    def signed_slice_stack(self, t):
        return _ball_stack(self.ball.slices(self.ball.t0 - t))

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

    @property
    def time_interval(self):
        return self.ball.time_interval

    def signed_slice_stack(self, t):
        sl = self.ball.slices(self.ball.t0 - t)
        if callable(self.factor):
            f = np.array([float(self.factor(u)) for u in sl.s / self.ball.s_max])
        else:
            f = np.full(sl.s.size, float(self.factor))
        k = np.flatnonzero(f > 0.0)
        return SignedSliceStack(sl.idx[k], np.sign(f[k]), sl.center[k], sl.shape[k],
                                sl.rho[k] * f[k] ** 2)

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

    def signed_slice_stack(self, t):
        st = _ball_stack(self.ball.slices(self.ball.t0 - t))
        return st._replace(center=st.center + self.h)

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

    def signed_slice_stack(self, t):
        return _ball_stack(self.other.slices(self.other.t0 - t))

    def contains(self, z):
        return self.other.contains(z)

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
        # the bite sits at c + offset * T e_axis with the slice's ball map
        # T = sqrt(rho) L^{-T}, L L^T = shape (Ellipsoid.ball_map); shape =
        # D^{-1} S1 D^{-1} gives L = D^{-1} chol(S1), so T e_axis is
        # scale * (row axis of chol(S1)^{-1})
        self._unit_offset = np.linalg.inv(np.linalg.cholesky(self.ball.ev.cov.S1))[self.axis]

    @property
    def time_interval(self):
        return self.ball.time_interval

    def signed_slice_stack(self, t):
        sl = self.ball.slices(self.ball.t0 - t)
        u = sl.s / self.ball.s_max
        a, b = self.s_range
        k = np.flatnonzero((a < u) & (u < b))
        size = self.size * np.sin(math.pi * (u[k] - a) / (b - a))
        k, size = k[size > 1e-3], size[size > 1e-3]
        if k.size == 0:
            return _ball_stack(sl)
        # each slice followed by its bite, where it has one
        rep = np.ones(sl.idx.size, dtype=int)
        rep[k] = 2
        src = np.repeat(np.arange(sl.idx.size), rep)
        bite = np.zeros(src.size, dtype=bool)
        bite[np.cumsum(rep)[k] - 1] = True
        center = sl.center[src]
        center[bite] += self.offset * (sl.scale[k] * self._unit_offset)
        level = sl.rho[src]
        level[bite] *= size ** 2
        return SignedSliceStack(sl.idx[src], np.where(bite, -1.0, 1.0), center,
                                sl.shape[src], level)

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

    def signed_slice_stack(self, t):
        return _ball_stack(self.ball.slices(self.ball.t0 + self.dt - t))

    def describe(self):
        return {"kind": "time_shift", "dt": self.dt, "r": self.ball.r}


def make_perturbation(ball: LBall, kind: str, magnitude: float) -> SlicedDomain:
    """Standard perturbation families at a given relative magnitude.

    spatial_shift: shift by magnitude * (largest slice half-width);
    radius_mismatch: radius (1 + magnitude) r; slice_scale: constant factor
    1 + magnitude; bite: interior bite of relative size ~ magnitude.
    """
    if kind == "spatial_shift":
        lo, hi = ball.bounding_box
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
