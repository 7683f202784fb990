from fractions import Fraction

import numpy as np
import pytest

import kolpot as kp
from kolpot.harmonic import AnisoPolynomial, apply_L, format_polynomial, harmonic_basis
from kolpot.lab import mean_value


def test_apply_L_constants_and_classics(heat1, proto):
    one = AnisoPolynomial.constant(1, 1)
    assert apply_L(one, heat1).is_zero()

    # x^2 + 2t is caloric in one dimension
    u = AnisoPolynomial(1, {((2,), 0): 1, ((0,), 1): 2})
    assert apply_L(u, heat1).is_zero()

    # y + t x solves the prototype equation
    v = AnisoPolynomial(2, {((0, 1), 0): 1, ((1, 0), 1): 1})
    assert apply_L(v, proto).is_zero()

    # and x alone does not solve the heat equation at second order... it does;
    # t alone does not
    w = AnisoPolynomial(1, {((0,), 1): 1})
    assert not apply_L(w, heat1).is_zero()


def test_apply_L_drift_term(proto):
    # L(x t) = -x for the prototype: the drift does not see it, time does
    u = AnisoPolynomial(2, {((1, 0), 1): 1})
    Lu = apply_L(u, proto)
    assert Lu.terms == {((1, 0), 0): -1}
    # L(y) = x: pure drift
    v = AnisoPolynomial(2, {((0, 1), 0): 1})
    assert apply_L(v, proto).terms == {((1, 0), 0): 1}


def test_degree_grading(proto):
    u = AnisoPolynomial(2, {((0, 1), 1): 1})  # y t: degree 3 + 2 = 5
    assert u.aniso_degree(proto) == 5
    Lu = apply_L(u, proto)
    assert Lu.aniso_degree(proto) == 3


def test_basis_heat1_degrees(heat1):
    basis = harmonic_basis(heat1, 2)
    formatted = {format_polynomial(u) for u in basis}
    assert "(1)*1" in formatted
    assert "(1)*x0" in formatted
    # degree 2: x^2 + 2t up to normalization
    deg2 = [u for u in basis if u.aniso_degree(heat1) == 2]
    assert len(deg2) == 1
    u = deg2[0]
    ratio = u.terms[((0,), 1)] / u.terms[((2,), 0)]
    assert ratio == Fraction(2) or ratio == pytest.approx(2.0)


def test_basis_heat1_degree4_dimensions(heat1):
    basis = harmonic_basis(heat1, 4)
    by_degree = {}
    for u in basis:
        by_degree.setdefault(u.aniso_degree(heat1), []).append(u)
    # one caloric polynomial per degree in one space dimension
    assert {d: len(v) for d, v in by_degree.items()} == {0: 1, 1: 1, 2: 1, 3: 1, 4: 1}
    # degree 4: x^4 + 12 x^2 t + 12 t^2
    u4 = by_degree[4][0]
    c = u4.terms[((4,), 0)]
    assert u4.terms[((2,), 1)] == 12 * c and u4.terms[((0,), 2)] == 12 * c


def test_basis_prototype_contains_examples(proto):
    basis = harmonic_basis(proto, 4)
    assert all(apply_L(u, proto).is_zero() for u in basis)
    keys = [frozenset(u.terms) for u in basis]
    assert frozenset({((0, 0), 0)}) in keys  # constants
    assert frozenset({((1, 0), 0)}) in keys  # x
    assert frozenset({((0, 1), 0), ((1, 0), 1)}) in keys  # y + t x
    # the two independent degree-4 solutions found by hand:
    # x^4 - 12 x y and x^2 t + t^2 + x y
    sets = {frozenset(u.terms.keys()) for u in basis}
    assert {((4, 0), 0), ((1, 1), 0)} in [set(s) for s in sets] or any(
        {((4, 0), 0), ((1, 1), 0)} <= set(s) for s in sets)


def test_basis_kernel_dimensions_stable(all_specs):
    for name, spec in all_specs.items():
        d1 = [u.aniso_degree(spec) for u in harmonic_basis(spec, 4)]
        d2 = [u.aniso_degree(spec) for u in harmonic_basis(spec, 4)]
        assert d1 == d2
        assert len(d1) > 0


def test_basis_rational_exactness(proto):
    for u in harmonic_basis(proto, 4):
        Lu = apply_L(u, proto)
        assert Lu.is_zero(tol=0.0)  # exact rational arithmetic, identically zero


def test_float_fallback_nullspace():
    # an operator with an irrational coefficient forces the float path
    spec = kp.validate_operator(1, [1], [[np.pi]])
    basis = harmonic_basis(spec, 2)
    assert basis, "float path returned nothing"
    for u in basis:
        assert apply_L(u, spec).coeff_norm() < 1e-11


def test_polynomial_evaluation_and_serialization(proto):
    u = AnisoPolynomial(2, {((1, 0), 1): 2.0, ((0, 1), 0): -1.0})
    z = proto.point([3.0, 5.0], 2.0)
    assert u(z) == pytest.approx(2.0 * 3.0 * 2.0 - 5.0)
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_allclose(u.evaluate(X, 1.0), [2.0, -1.0])
    text = format_polynomial(u)
    assert "x1" in text and "t" in text


def test_mean_value_reproduces_harmonic_polynomials(proto, balls, quad_cfg):
    # the computational face of the mean-value characterization, spot checks
    ball = balls["proto"]
    for u in harmonic_basis(proto, 3):
        target = u(ball.z0)
        got = mean_value(u, ball, quad_cfg)
        assert abs(got.value - target) < 1e-7 * (1.0 + abs(target))


@pytest.mark.parametrize("n, blocks", [(2, [2]), (3, [3]), (4, [2, 2])])
def test_basis_degree_one_is_the_coordinates(n, blocks):
    # below anisotropic degree 2, L u = 0 holds for every monomial, so the
    # basis is 1 and the degree-1 coordinates, each alone with coefficient 1
    eye = np.eye(blocks[0])
    spec = kp.validate_operator(n, blocks, eye, [eye] * (len(blocks) - 1))
    basis = harmonic_basis(spec, 1)
    coords = [tuple(int(i == j) for i in range(n)) for j in range(blocks[0])]
    expected = [((0,) * n, 0)] + [(c, 0) for c in coords]
    assert sorted(list(u.terms.items()) for u in basis) == sorted([(key, 1)] for key in expected)
    assert all(isinstance(c, Fraction) for u in basis for c in u.terms.values())
