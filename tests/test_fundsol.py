import math

import numpy as np
import pytest

import kolpot as kp
from kolpot.errors import TimeZero


def test_gamma_vanishes_at_nonpositive_times(evaluators, all_specs):
    for name, ev in evaluators.items():
        spec = all_specs[name]
        for t in (-1.0, -1e-9, 0.0):
            assert ev.gamma(spec.point(np.ones(spec.n), t)) == 0.0


def test_gamma_heat_values(heat1, evaluators):
    ev = evaluators["heat1"]
    # (4 pi t)^{-1/2} at x = 0 equals one when t = 1/(4 pi)
    assert ev.gamma(heat1.point([0.0], 1.0 / (4.0 * math.pi))) == pytest.approx(1.0, rel=1e-14)
    x, t = 0.8, 0.6
    expected = (4.0 * math.pi * t) ** -0.5 * math.exp(-x * x / (4.0 * t))
    assert ev.gamma(heat1.point([x], t)) == pytest.approx(expected, rel=1e-13)


def test_gamma_prototype_origin_value(proto, evaluators):
    # (4 pi)^{-1} det C(1)^{-1/2} = sqrt(12)/(4 pi) = sqrt(3)/(2 pi); this is
    # also the value forced by unit spatial mass of the t = 1 slice
    got = evaluators["proto"].gamma(proto.point([0.0, 0.0], 1.0))
    assert got == pytest.approx(math.sqrt(3.0) / (2.0 * math.pi), rel=1e-13)


def test_two_point_kernel(proto, evaluators):
    ev = evaluators["proto"]
    z = proto.point([0.4, -0.2], 0.9)
    assert ev.Gamma(z, z) == 0.0
    zeta = proto.point([0.1, 0.3], 0.2)
    assert ev.Gamma(z, zeta) > 0.0  # forward in time
    assert ev.Gamma(zeta, z) == 0.0  # backward vanishes


def test_left_invariance(all_specs, evaluators):
    rng = np.random.default_rng(3)
    for name, spec in all_specs.items():
        ev = evaluators[name]
        for _ in range(25):
            z = spec.point(rng.standard_normal(spec.n), rng.uniform(0.5, 2.0))
            zeta = spec.point(rng.standard_normal(spec.n), rng.uniform(-1.0, 0.4))
            w = spec.point(rng.standard_normal(spec.n), rng.standard_normal())
            lhs = ev.Gamma(kp.group_compose(w, z, spec), kp.group_compose(w, zeta, spec))
            rhs = ev.Gamma(z, zeta)
            assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-300)


def test_gamma_homogeneity(all_specs, evaluators):
    rng = np.random.default_rng(11)
    for name, spec in all_specs.items():
        ev = evaluators[name]
        for _ in range(200):
            z = spec.point(0.7 * rng.standard_normal(spec.n), rng.uniform(0.2, 1.5))
            lam = rng.uniform(0.5, 2.0)
            lhs = ev.gamma(kp.dilate(lam, z, spec))
            rhs = lam ** (2 - spec.Q) * ev.gamma(z)
            if lhs > 0:
                assert abs(lhs - rhs) <= 1e-10 * lhs


def test_gamma_unit_mass_gauss_hermite(all_specs, evaluators):
    # tensor Gauss-Hermite with per-axis scaling from the covariance diagonal;
    # gamma is treated as a black box at the nodes
    nodes, weights = np.polynomial.hermite.hermgauss(64)
    for name, spec in all_specs.items():
        ev = evaluators[name]
        for t in (0.1, 1.0, 10.0):
            C = ev.cov.C(t)
            scales = 2.0 * np.sqrt(np.diag(C))
            grids = np.meshgrid(*[nodes * s for s in scales], indexing="ij")
            X = np.stack([g.ravel() for g in grids], axis=1)
            vals = ev.gamma_slice(X, t)
            # undo the Gauss-Hermite weight exp(-u^2) per axis
            u2 = sum((X[:, i] / scales[i]) ** 2 for i in range(spec.n))
            W = np.ones(X.shape[0])
            wg = np.meshgrid(*[weights] * spec.n, indexing="ij")
            W = np.prod(np.stack([w.ravel() for w in wg], axis=1), axis=1)
            mass = float(W @ (vals * np.exp(u2))) * float(np.prod(scales))
            assert abs(mass - 1.0) < 1e-6, (name, t, mass)


def test_kernel_values(heat1, heat2, proto, evaluators):
    assert evaluators["heat1"].W(heat1.point([2.0], 1.0)) == pytest.approx(1.0, rel=1e-14)
    # the heat kernel weight is |x|^2 / (4 t^2) in any dimension
    assert evaluators["heat2"].W(heat2.point([1.0, 1.0], 0.5)) == pytest.approx(2.0, rel=1e-13)
    assert evaluators["proto"].W(proto.point([1.0, 0.0], 1.0)) == pytest.approx(4.0, rel=1e-12)
    with pytest.raises(TimeZero):
        evaluators["proto"].W(proto.point([1.0, 0.0], 0.0))


def test_kernel_zero_set(proto, evaluators):
    # W vanishes exactly on C(t) applied to the kernel of A
    ev = evaluators["proto"]
    for t in (-1.3, 0.7, 2.0):
        x = ev.cov.C(t) @ np.array([0.0, 1.0])
        assert abs(ev.W(proto.point(x, t))) < 1e-14 * (1.0 + np.linalg.norm(x)) ** 2
        y = ev.cov.C(t) @ np.array([1.0, 0.0])
        assert ev.W(proto.point(y, t)) > 0.0


def test_kernel_dilation_homogeneity(all_specs, evaluators):
    rng = np.random.default_rng(5)
    for name, spec in all_specs.items():
        ev = evaluators[name]
        for _ in range(100):
            z = spec.point(rng.standard_normal(spec.n), rng.uniform(0.1, 2.0) * rng.choice([-1, 1]))
            lam = rng.uniform(0.5, 2.0)
            lhs = ev.W(kp.dilate(lam, z, spec))
            rhs = lam ** -2 * ev.W(z)
            assert abs(lhs - rhs) <= 1e-10 * (abs(rhs) + 1e-300)


def test_gamma_underflow_returns_exact_zero(heat1, evaluators):
    assert evaluators["heat1"].gamma(heat1.point([100.0], 1e-3)) == 0.0


def test_gamma_solves_the_equation_off_origin(proto, evaluators):
    # L u = div(A grad u) + <B x, grad u> - du/dt applied to u = Gamma(., zeta) by
    # central differences; the pole zeta is off the origin, where the side of
    # the group law in Gamma(z, zeta) = gamma(zeta^{-1} o z) matters
    ev = evaluators["proto"]
    zeta = proto.point([0.3, 0.5], -0.4)
    h = 1e-4

    def u(x, t):
        return ev.Gamma(proto.point(x, t), zeta)

    for x, t in (([0.2, 0.1], 0.3), ([-0.4, 0.9], 0.8)):
        x = np.asarray(x)
        grad = np.zeros(2)
        hess = np.zeros((2, 2))
        for i in range(2):
            e = h * np.eye(2)[i]
            grad[i] = (u(x + e, t) - u(x - e, t)) / (2 * h)
            for j in range(2):
                f = h * np.eye(2)[j]
                hess[i, j] = (u(x + e + f, t) - u(x + e - f, t) - u(x - e + f, t)
                              + u(x - e - f, t)) / (4 * h * h)
        dt = (u(x, t + h) - u(x, t - h)) / (2 * h)
        Lu = np.sum(proto.A * hess) + (proto.B @ x) @ grad - dt
        assert abs(Lu) < 1e-5 * u(x, t)
