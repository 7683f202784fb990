"""The stacked kernel-weighted potential against its per-node reference.

``lab._kernel_gamma_profile`` evaluates all nodes of a time cell with one
``signed_slice_stack`` call and one ``gaussian_quadratic_stack`` call; the
reference in ``oracles`` builds every node's signed slices from
``LBall.slice_at`` and integrates them one at a time with the pointwise
tensor rule.
"""

import warnings

import numpy as np
import pytest

import kolpot as kp
from kolpot.balls import Ellipsoid, LBall
from kolpot.domains import (
    BittenBall,
    ExactBall,
    RadiusMismatchBall,
    ScaledBall,
    ShiftedBall,
    TimeShiftedBall,
)
from kolpot.lab import _kernel_gamma_profile, exterior_test_points, kernel_gamma_integral
from kolpot.errors import ToleranceWarning
from kolpot.quadrature import (
    QuadratureConfig,
    _sigma_end,
    gaussian_quadratic_stack,
    integrate_time_profile,
)
from oracles import (
    ball_cubature_kernel_gamma,
    gaussian_quadratic_ellipsoid,
    reference_gaussian_quadratic_auto,
    reference_kernel_gamma_profile,
    reference_signed_slices,
)

OPS = ("heat1", "heat2", "proto", "chain")


def _domains(ball):
    other = kp.lball(ball.spec, 1.1 * ball.r, ball.z0, ball.ev)
    return {
        "exact": ExactBall(ball),
        "scaled": ScaledBall(ball, 1.05),
        # a callable factor that removes the deeper half of the slices
        "scaled_profile": ScaledBall(ball, lambda u: 1.0 + 0.2 * u if u < 0.5 else -1.0),
        "shifted": ShiftedBall(ball, np.full(ball.spec.n, 0.1)),
        "radius_mismatch": RadiusMismatchBall(ball, other),
        "bitten": BittenBall(ball),
        "time_shifted": TimeShiftedBall(ball, 0.3 * ball.s_max),
    }


def _nodes(domain, ball):
    """A cell's worth of nodes: some before and after the domain (no slice),
    inside and outside the bite range, and on both sides of t0."""
    lo, hi = domain.time_interval
    span = hi - lo
    grid = np.linspace(lo - 0.05 * span, hi + 0.05 * span, 22)
    return np.concatenate([grid, ball.t0 + np.array([-1e-3, 1e-3]) * ball.s_max])


def _points(ball):
    """One exterior point below the ball, and one at mid-depth, above which
    the profile is nonzero and below which every node has tau <= z.t."""
    below = [z for z, cat in exterior_test_points(ExactBall(ball), ball, 4, seed=7)
             if cat == "below"]
    mid = ball.spec.point(ball.slices(0.5 * ball.s_max).center[0] + 0.05,
                          ball.t0 - 0.5 * ball.s_max)
    return [below[0], mid]


@pytest.mark.parametrize("op", OPS)
def test_stacked_profile_matches_per_node_reference(op, balls):
    # the cell's nodes against the largest of their values, and thin slices
    # 1e-5 and 1e-7 s_max from the pole against that or their own value,
    # where a profile that diverges at the pole (shifted domains) outgrows it
    ball = balls[op]
    probes = ball.t0 + np.array([-1e-5, 1e-5, -1e-7, 1e-7]) * ball.s_max
    for name, domain in _domains(ball).items():
        nodes = _nodes(domain, ball)
        tau = np.concatenate([nodes, probes])
        for z in _points(ball):
            got = _kernel_gamma_profile(domain, ball, z)(tau)
            ref = reference_kernel_gamma_profile(domain, ball, z)(tau)
            assert np.any(ref != 0.0) and np.any(ref == 0.0)
            assert np.any(ref[nodes.size:] != 0.0)
            scale = np.maximum(np.max(np.abs(ref[:nodes.size])), np.abs(ref))
            assert np.all(np.abs(got - ref) <= 1e-12 * scale), (name, z)


@pytest.mark.parametrize("op", OPS)
def test_signed_slices_match_per_node_reference(op, balls):
    ball = balls[op]
    for name, domain in _domains(ball).items():
        for t in _nodes(domain, ball):
            got = domain.signed_slices(t)
            ref = reference_signed_slices(domain, t)
            assert [s for s, _ in got] == [s for s, _ in ref], (name, t)
            for (_, a), (_, b) in zip(got, ref):
                assert a.level == pytest.approx(b.level, rel=1e-13)
                np.testing.assert_allclose(a.center, b.center, rtol=1e-13, atol=1e-13)
                np.testing.assert_allclose(a.shape, b.shape, rtol=1e-13)


@pytest.mark.parametrize("op", ["proto", "chain"])
def test_profile_near_the_pole_against_ball_cubature(op, balls):
    # the first criterion-6 "below" point, at slices 1e-7 and 1e-9 from the
    # pole: O(1) from the Gaussian's centre, and thin, so their nodes and
    # section widths must be formed as offsets from the slice, not from the
    # Gaussian's centre
    ball = balls[op]
    domain = ExactBall(ball)
    z = [z for z, cat in exterior_test_points(domain, ball, 72, seed=606) if cat == "below"][0]
    tau = ball.t0 - np.array([1e-7, 1e-9])
    got = _kernel_gamma_profile(domain, ball, z)(tau)
    for k, t in enumerate(tau):
        ref = ball_cubature_kernel_gamma(ball, z, t)
        assert abs(got[k] - ref) <= 1e-12 * abs(ref), (t, got[k], ref)


def test_kernel_gamma_integral_matches_per_node_reference(balls):
    # whole integrals over the time rule's own nodes, split at t0 for the
    # time-shifted ball, whose part above t0 runs into its cell budget.
    # Every piece here ends or starts at t0, so each runs in sigma toward the
    # pole t0, reached from below (side -1) or from above (side +1)
    ball = balls["proto"]
    t0 = ball.t0
    z = _points(ball)[0]
    for domain, cells in ((ExactBall(ball), 4096), (BittenBall(ball), 4096),
                          (TimeShiftedBall(ball, 0.3 * ball.s_max), 48)):
        cfg = QuadratureConfig(time_tol=1e-8, max_cells=cells)
        rule = dict(order=cfg.time_order, rel_tol=cfg.time_tol, abs_tol=cfg.time_tol * 1e-3,
                    max_depth=cfg.endpoint_depth, max_cells=cfg.max_cells)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ToleranceWarning)
            got = kernel_gamma_integral(domain, ball, z, cfg, abs_scale=1e-3)
            lo, hi = domain.time_interval
            profile = reference_kernel_gamma_profile(domain, ball, z)
            sigma_end = _sigma_end(ball.spec.Q)
            ref = [integrate_time_profile(profile, 0.0, sigma_end, pole=(t0, -1.0, t0 - lo),
                                          **rule)]
            if hi > t0:
                ref.append(integrate_time_profile(profile, 0.0, sigma_end,
                                                  pole=(t0, 1.0, hi - t0), **rule))
        assert got.cells == sum(r.cells for r in ref)
        assert got.value == pytest.approx(sum(r.value for r in ref), rel=1e-12)


def test_profile_makes_one_geometry_call(balls, monkeypatch):
    calls = []
    slices = LBall.slices

    def counted(self, s):
        calls.append(np.size(s))
        return slices(self, s)

    monkeypatch.setattr(LBall, "slices", counted)
    ball = balls["proto"]
    for domain in _domains(ball).values():
        z = _points(ball)[0]
        profile = _kernel_gamma_profile(domain, ball, z)
        calls.clear()
        profile(_nodes(domain, ball))
        assert calls == [24]


def _engine_cases(spec, ev, rng, count):
    """Random slices of the ball at the origin with Gaussians near and far."""
    ball = kp.lball(spec, 4.0, ev=ev)
    s = ball.s_max * rng.uniform(0.02, 0.98, count)
    sl = ball.slices(s)
    delta = 10.0 ** rng.uniform(-6.0, 0.3, count)
    L = np.stack([ev.cov.C_cholesky(d) for d in delta])
    reach = sl.scale * np.linalg.norm(ev.cov.T1, axis=1)  # per-axis half-widths
    mean = sl.center + reach * rng.uniform(-1.6, 1.6, (count, spec.n))
    M = np.stack([ev.W_quadratic(-si) for si in s])
    qc = sl.center + 0.3 * reach * rng.standard_normal((count, spec.n))
    return sl, reach, mean, L, M, qc


@pytest.mark.parametrize("op", OPS)
def test_stacked_engine_matches_pointwise_reference(op, all_specs, evaluators):
    spec, ev = all_specs[op], evaluators[op]
    rng = np.random.default_rng(41)
    count = 12 if op == "chain" else 40
    sl, reach, mean, L, M, qc = _engine_cases(spec, ev, rng, count)
    got = gaussian_quadratic_stack(sl.center, sl.shape, sl.rho, mean, L, M, qc)
    for k in range(count):
        ell = Ellipsoid(sl.center[k], sl.shape[k], float(sl.rho[k]))
        ref = reference_gaussian_quadratic_auto(ell, mean[k], L[k], M[k], qc[k])
        # relative per slice; where the Gaussian barely reaches the slice,
        # against 1e-12 of the quadratic's size there
        size = float(np.max(np.abs(M[k]))) * (
            float(np.max(np.abs(sl.center[k] - qc[k]))) + float(np.max(reach[k]))) ** 2
        assert abs(got[k] - ref) <= 1e-12 * max(abs(ref), 1e-12 * size), (k, got[k], ref)


def test_chain_slices_against_polar_oracle(chain, evaluators):
    # n = 3: the stacked tensor rule against the independent polar rule, with
    # the Gaussian centre inside each slice
    ev = evaluators["chain"]
    ball = kp.lball(chain, 4.0, ev=ev)
    sl = ball.slices(ball.s_max * np.array([0.2, 0.5, 0.8]))
    M = np.array([[2.0, 0.5, 0.1], [0.5, 1.0, 0.2], [0.1, 0.2, 0.7]])
    qc = np.array([0.05, 0.1, -0.05])
    for delta in (0.05, 0.3):
        L = ev.cov.C_cholesky(delta)
        mean = sl.center + 0.2 * sl.scale
        got = gaussian_quadratic_stack(sl.center, sl.shape, sl.rho, mean,
                                       np.broadcast_to(L, (3, 3, 3)),
                                       np.broadcast_to(M, (3, 3, 3)),
                                       np.broadcast_to(qc, (3, 3)))
        for k in range(3):
            ell = Ellipsoid(sl.center[k], sl.shape[k], float(sl.rho[k]))
            ref = gaussian_quadratic_ellipsoid(ell, mean[k], L, M, qc, resolution=480)
            assert got[k] == pytest.approx(ref, rel=1e-10)




@pytest.mark.parametrize("op", OPS)
def test_stack_values_do_not_depend_on_the_other_slices(op, balls, evaluators, monkeypatch):
    # the time rule's pieces share engine calls, so a slice's value must keep
    # its bits whatever slices ride along.  A stack of random slices with
    # Gaussians near and far, and of the profile's own engine calls over every
    # domain, both points and nodes down to 1e-7 s_max from the pole; runs
    # cut from it, lone slices among them, each integrated on its own
    ball = balls[op]
    rng = np.random.default_rng(606)
    sl, _, mean, L, M, qc = _engine_cases(ball.spec, evaluators[op], rng, 100)
    calls = [(sl.center, sl.shape, sl.rho, mean, L, M, qc)]

    def record(*args, **kw):
        calls.append(args + tuple(kw.values()))
        return np.zeros(len(args[0]))

    monkeypatch.setattr(kp.lab, "gaussian_quadratic_stack", record)
    probes = ball.t0 - np.array([1e-3, 1e-5, 1e-7]) * ball.s_max
    for domain in _domains(ball).values():
        for z in _points(ball):
            _kernel_gamma_profile(domain, ball, z)(np.concatenate([_nodes(domain, ball), probes]))
    args = [np.concatenate(a) for a in zip(*calls)]
    count = len(args[0])
    whole = gaussian_quadratic_stack(*args)
    for _ in range(3):
        cuts = np.sort(rng.choice(np.arange(1, count), 24, replace=False))
        parts = np.split(rng.permutation(count), np.union1d(cuts, cuts[::3] + 1))
        got = np.concatenate([gaussian_quadratic_stack(*(a[p] for a in args)) for p in parts])
        assert np.array_equal(got, whole[np.concatenate(parts)])
