"""The Monte Carlo symmetric difference of the L^p gluing check, piece by piece.

* Streams: ``lab._node_uniforms`` re-keys one Philox generator per node, and
  must draw exactly what a new ``Generator(Philox(key=k))`` per node draws,
  for keys formed by the profile's own key formula.
* Membership: ``SignedSliceStack.holds`` against its ``np.add.at`` form in
  ``oracles.reference_holds``, on every domain kind.
"""

import numpy as np
import pytest

import kolpot as kp
from kolpot.domains import (
    BittenBall,
    ExactBall,
    RadiusMismatchBall,
    ScaledBall,
    ShiftedBall,
    TimeShiftedBall,
)
from kolpot.lab import _lp_profile, _node_uniforms
from oracles import reference_holds


def _key(seed, tau, salt):
    return ((seed & 0xFFFFFFFF) << 28) ^ (int(abs(tau) * 1e7) & 0xFFFFFFF) ^ salt


@pytest.mark.parametrize("n", [1, 2, 3])
def test_node_uniforms_match_a_new_generator_per_node(n):
    gen = np.random.Generator(np.random.Philox(key=0))
    gen.random(7)  # mid-block, so the re-keying has to reset counter and buffer
    # 2**28 / 1e7 is a time whose key bits wrap to those of time 0
    taus = np.concatenate([np.random.default_rng(n).uniform(-30.0, 30.0, 12),
                           [0.0, 1e-7, -1e-7, 26.8435456]])
    for seed in (0, 31415, 0xFFFFFFFF):
        for salt in (1, 2):
            got = _node_uniforms(gen, seed, taus, salt, n)
            assert got.shape == (taus.size, 512, n + 1)
            for r, tau in enumerate(taus):
                ref = np.random.Generator(np.random.Philox(key=_key(seed, tau, salt)))
                assert np.array_equal(got[r], ref.random((512, n + 1))), (seed, salt, tau)


def test_lp_profile_builds_no_generator_per_node(balls, monkeypatch):
    ball = balls["proto"]
    profile = _lp_profile(ShiftedBall(ball, np.full(2, 0.1)), ball, 3.5, 7)
    built = []
    for name in ("Philox", "Generator"):
        original = getattr(np.random, name)
        monkeypatch.setattr(np.random, name,
                            lambda *a, _o=original, _n=name, **k: built.append(_n) or _o(*a, **k))
    vals = profile(ball.t0 - ball.s_max * np.linspace(0.05, 0.95, 24))
    assert np.all(vals > 0.0)
    assert built == []


def _holds_domains(ball):
    other = kp.lball(ball.spec, 1.1 * ball.r, ball.z0, ball.ev)
    return {
        "exact": ExactBall(ball),
        # a callable factor that removes the deeper half of the slices
        "scaled_profile": ScaledBall(ball, lambda u: 1.0 + 0.2 * u if u < 0.5 else -1.0),
        "shifted": ShiftedBall(ball, np.full(ball.spec.n, 0.1)),
        "radius_mismatch": RadiusMismatchBall(ball, other),
        "bitten": BittenBall(ball, size=0.45),
        "time_shifted": TimeShiftedBall(ball, 0.3 * ball.s_max),
    }


@pytest.mark.parametrize("op", ["heat1", "proto", "chain"])
@pytest.mark.parametrize("name", ["exact", "scaled_profile", "shifted", "radius_mismatch",
                                  "bitten", "time_shifted"])
def test_holds_matches_add_at_form(op, name, balls):
    ball = balls[op]
    domain = _holds_domains(ball)[name]
    lo, hi = kp.ball_bounding_box(ball)
    t_lo = min(domain.time_interval[0], ball.time_interval[0])
    t_hi = max(domain.time_interval[1], ball.time_interval[1])
    # 20 times over both intervals and a little beyond, each asked for twice,
    # in reverse order, with 250 points per row: 10,000 points per stack
    tau = np.linspace(t_lo - 0.05 * (t_hi - t_lo), t_hi, 20)
    stack = domain.signed_slice_stack(tau)
    per_node = np.bincount(stack.node, minlength=tau.size)
    assert 0 in per_node and 1 in per_node
    if name == "bitten":
        assert 2 in per_node and np.any(stack.sign < 0)
    rng = np.random.default_rng([ord(c) for c in op + name])
    pad = 0.2 * (hi[:-1] - lo[:-1])
    node = np.tile(np.arange(tau.size), 2)[::-1]
    X = rng.uniform(lo[:-1] - pad, hi[:-1] + pad, size=(node.size, 250, ball.spec.n))
    got = stack.holds(X, node)
    ref = reference_holds(stack, X, node)
    assert got.dtype == bool and np.array_equal(got, ref)
    assert got.any() and not got.all()
    if name == "bitten":
        # points inside the ball's own slice that the -1 bite takes out
        assert np.any(ExactBall(ball).signed_slice_stack(tau).holds(X, node) & ~got)
