"""The Monte Carlo symmetric difference of the L^p gluing check, piece by piece.

* Streams: ``lab._node_uniforms`` re-keys one Philox generator per distinct
  key, and every time's row must hold exactly what a new
  ``Generator(Philox(key=k))`` per node draws, for keys formed by the
  profile's own key formula.  Times in one 1e-7 bin of |tau| share a block,
  and sharing it changes no bit of the profile.
* Membership: ``SignedSliceStack.holds`` against its ``np.add.at`` form in
  ``oracles.reference_holds``, on every domain kind, and
  ``SlicedDomain.contains`` against ``holds``.
"""

import numpy as np
import pytest

import kolpot as kp
from kolpot import lab
from kolpot.domains import (
    BittenBall,
    ExactBall,
    RadiusMismatchBall,
    ScaledBall,
    ShiftedBall,
    TimeShiftedBall,
    make_perturbation,
)
from kolpot.lab import _lp_profile, _node_uniforms, lp_condition_norm
from kolpot.quadrature import _gauss_kronrod
from oracles import reference_holds, reference_lp_profile


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
            blocks, row = _node_uniforms(gen, seed, taus, salt, n)
            keys = {_key(seed, tau, salt) for tau in taus}
            assert blocks.shape == (len(keys), n + 1, 512) and row.shape == taus.shape
            # 0.0 and 26.8435456 share one block, and so do 1e-7 and -1e-7
            assert len(keys) == taus.size - 2
            for r, tau in enumerate(taus):
                ref = np.random.Generator(np.random.Philox(key=_key(seed, tau, salt)))
                assert np.array_equal(blocks[row[r]], ref.random((512, n + 1)).T), \
                    (seed, salt, tau)


def _cell(a, b):
    """The 21 nodes at which the time rule evaluates one cell over [a, b]."""
    return a + (b - a) * _gauss_kronrod(10)[0]


@pytest.mark.parametrize("cell", ["one_bin", "many_bins"])
def test_times_in_one_key_bin_share_one_block(cell, balls, monkeypatch):
    # near the pole the spatial-shift floor integral crowds its cells into a
    # few 1e-7 bins of |tau|, and all nodes of a bin draw the same stream
    ball = balls["proto"]
    domain = ShiftedBall(ball, np.full(2, 0.1))
    if cell == "one_bin":
        tau = _cell(ball.t0 - 2.00009e-5, ball.t0 - 2.00001e-5)
    else:
        tau = _cell(ball.t0 - 0.95 * ball.s_max, ball.t0 - 0.05 * ball.s_max)
    bins = {int(abs(t) * 1e7) for t in tau}
    assert len(bins) == (1 if cell == "one_bin" else tau.size)
    drawn = []

    def counted(gen, seed, taus, salt, n):
        blocks, row = _node_uniforms(gen, seed, taus, salt, n)
        drawn.append((salt, blocks.shape[0]))
        return blocks, row

    # streams are drawn only where Monte Carlo runs: at non-integer p
    profile = _lp_profile(domain, ball, 3.5, 31415)
    with monkeypatch.context() as m:
        m.setattr(lab, "_node_uniforms", counted)
        got = profile(tau)
    assert drawn == [(1, len(bins)), (2, len(bins))]
    assert np.all(got > 0.0)
    # node by node, every node draws its own block: sharing changes no bit
    np.testing.assert_array_equal(got, np.concatenate([profile(t[None]) for t in tau]))
    ref = reference_lp_profile(domain, ball, 3.5, 31415)(tau)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    if cell == "one_bin":
        # at p = 4 the slices this near the pole lie apart: exact cubature, no stream
        drawn.clear()
        with monkeypatch.context() as m:
            m.setattr(lab, "_node_uniforms", counted)
            got = _lp_profile(domain, ball, 4.0, 31415)(tau)
        assert drawn == [] and np.all(got > 0.0)


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
    got = stack.holds(X.transpose(0, 2, 1), node)
    ref = reference_holds(stack, X, node)
    assert got.dtype == bool and np.array_equal(got, ref)
    assert got.any() and not got.all()
    if name == "bitten":
        # points inside the ball's own slice that the -1 bite takes out
        assert np.any(ExactBall(ball).signed_slice_stack(tau).holds(X.transpose(0, 2, 1), node)
                      & ~got)


@pytest.mark.parametrize("op", ["heat1", "chain"])
@pytest.mark.parametrize("name", ["scaled_profile", "shifted", "bitten", "time_shifted"])
def test_contains_agrees_with_holds(op, name, balls):
    # SlicedDomain.contains asks holds about one point, coordinates on axis 1
    ball = balls[op]
    domain = _holds_domains(ball)[name]
    lo, hi = kp.ball_bounding_box(ball)
    lo[-1], hi[-1] = domain.time_interval
    pts = np.random.default_rng([ord(c) for c in op + name]).uniform(lo, hi, (2000, lo.size))
    stack = domain.signed_slice_stack(pts[:, -1])
    held = stack.holds(pts[:, :-1, None], np.arange(pts.shape[0]))[:, 0]
    got = np.array([domain.contains(ball.spec.point(z[:-1], z[-1])) for z in pts])
    np.testing.assert_array_equal(got, held)
    assert 100 < held.sum() < 1900


# lp_condition_norm at p = 4 on the radius-mismatch perturbation: the exact
# path, float.hex of (integral, norm) as computed in the point-major layout
# under the G10/K21 time rule, tail piece in sigma then head in tau (within
# 8.3e-14 of the two-floor rule's values), slices by the recursive
# Gauss-Jacobi ball rule
_MISMATCH_P4 = {
    "heat1": ("0x1.1591c92300dcep+64", "0x1.053adb5ad9836p+16"),
    "proto": ("0x1.650ea3de45c3ep+47", "0x1.d3e1f3923a8e6p+11"),
    "chain": ("0x1.b9380e0e60d13p+41", "0x1.5cd1d875c2861p+10"),
}


@pytest.mark.parametrize("op", sorted(_MISMATCH_P4))
def test_exact_lp_path_keeps_its_bits(op, balls, quad_cfg):
    ball = balls[op]
    lp = lp_condition_norm(make_perturbation(ball, "radius_mismatch", 0.1), ball, 4, quad_cfg)
    assert (lp.integral.hex(), lp.norm.hex()) == _MISMATCH_P4[op]
