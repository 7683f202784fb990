"""Exact polynomial form of E(s) = exp(-s B) and C(t) = int_0^t E A E^T ds.

Because B is nilpotent of index r+1, the integrand E(s) A E(s)^T is a matrix
polynomial of degree at most 2r and C(t) one of degree at most 2r+1.  Both
are computed coefficient-by-coefficient, so no quadrature enters C(t) itself.
C(t) is strictly positive definite for t > 0 and strictly negative definite
for t < 0; its determinant is a polynomial that is positive and increasing
on t > 0.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from numpy.polynomial import polynomial as npoly

from .errors import IllConditionedWarning, SingularAtZero
from .operators import OperatorSpec

__all__ = [
    "MatrixPolynomial",
    "exponential_polynomial",
    "covariance_polynomial",
    "covariance_at",
    "covariance_inverse_at",
    "det_covariance_polynomial",
    "CovarianceModel",
]


@dataclass(frozen=True, eq=False)
class MatrixPolynomial:
    """P(t) = sum_k t^k M_k with square-matrix coefficients, stacked in ``coeffs``."""

    coeffs: np.ndarray  # shape (degree+1, n, n)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 3 or c.shape[1] != c.shape[2]:
            raise ValueError("coefficients must be a stack of square matrices")
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def n(self) -> int:
        return self.coeffs.shape[1]

    def __call__(self, t):
        """Evaluate by Horner's scheme; ``t`` may be scalar or an array.

        Array input of shape (m,) returns shape (m, n, n).
        """
        t = np.asarray(t, dtype=float)
        if t.ndim == 0:
            out = self.coeffs[-1].copy()
            for k in range(self.degree - 1, -1, -1):
                out *= t
                out += self.coeffs[k]
            return out
        tt = t[:, None, None]
        out = np.broadcast_to(self.coeffs[-1], (t.size,) + self.coeffs[-1].shape).copy()
        for k in range(self.degree - 1, -1, -1):
            out = out * tt + self.coeffs[k]
        return out


def exponential_polynomial(spec: OperatorSpec) -> MatrixPolynomial:
    """E(s) = sum_{k<=r} (-s)^k B^k / k! as an exact matrix polynomial."""
    coeffs = np.stack(
        [(-1.0) ** k / math.factorial(k) * Bk for k, Bk in enumerate(spec.B_powers)]
    )
    return MatrixPolynomial(coeffs)


def covariance_polynomial(spec: OperatorSpec) -> MatrixPolynomial:
    """C(t) as an exact matrix polynomial; C(0) = 0, all coefficients symmetric."""
    r = spec.r
    A = spec.A
    # integrand coefficient of s^m: (-1)^m sum_{k+l=m} B^k A (B^T)^l / (k! l!)
    G = [np.zeros((spec.n, spec.n)) for _ in range(2 * r + 1)]
    for k, Bk in enumerate(spec.B_powers):
        for l, Bl in enumerate(spec.B_powers):
            G[k + l] += (-1.0) ** (k + l) / (math.factorial(k) * math.factorial(l)) * (
                Bk @ A @ Bl.T
            )
    coeffs = np.zeros((2 * r + 2, spec.n, spec.n))
    for m, Gm in enumerate(G):
        Cm = Gm / (m + 1)
        coeffs[m + 1] = 0.5 * (Cm + Cm.T)
    return MatrixPolynomial(coeffs)


def covariance_at(t: float, spec: OperatorSpec) -> np.ndarray:
    """C(t) evaluated by Horner's scheme."""
    return covariance_polynomial(spec)(t)


def _spd_inverse(M: np.ndarray) -> np.ndarray:
    c, low = scipy.linalg.cho_factor(M, lower=True)
    inv = scipy.linalg.cho_solve((c, low), np.eye(M.shape[0]))
    return 0.5 * (inv + inv.T)


def covariance_inverse_at(t: float, spec: OperatorSpec) -> np.ndarray:
    """C(t)^{-1} from ``CovarianceModel.C_inverse``; sign-aware for t < 0.

    Raises SingularAtZero at t = 0.  Condition numbers above 1e14 are reported
    through an IllConditionedWarning but the inverse is still returned.
    """
    model = CovarianceModel(spec)
    inv = model.C_inverse(t)
    cond = np.linalg.cond(model.C(t))
    if cond > 1e14:
        warnings.warn(f"C({t:g}) has condition number {cond:.3g} > 1e14",
                      IllConditionedWarning)
    return inv


def _poly_matrix_det(cols: list[list[np.ndarray]]) -> np.ndarray:
    """Determinant of a matrix with 1-d polynomial-coefficient entries.

    Cofactor expansion along the first row, exact over the polynomial ring;
    its n! terms are few for the n <= 3 that configurations accept.
    """
    m = len(cols)
    if m == 1:
        return cols[0][0]
    det = np.zeros(1)
    for j in range(m):
        minor = [[cols[i][k] for k in range(m) if k != j] for i in range(1, m)]
        term = npoly.polymul(cols[0][j], _poly_matrix_det(minor))
        det = npoly.polyadd(det, term if j % 2 == 0 else -term)
    return det


def det_covariance_polynomial(spec: OperatorSpec) -> np.ndarray:
    """det C(t) as a 1-d polynomial coefficient array (ascending powers).

    Exact cofactor expansion of C(t) over the polynomial ring
    (``_poly_matrix_det``), padded to length n (2r+1) + 1.
    """
    C = covariance_polynomial(spec)
    n = spec.n
    entries = [
        [np.trim_zeros(C.coeffs[:, i, j], "b") if np.any(C.coeffs[:, i, j]) else np.zeros(1)
         for j in range(n)]
        for i in range(n)
    ]
    det = np.trim_zeros(np.atleast_1d(_poly_matrix_det(entries)), "b")
    if det.size == 0:
        det = np.zeros(1)
    # pad so the degree slot n*(2r+1) always exists
    full = np.zeros(n * C.degree + 1)
    full[: det.size] = det
    return full


class CovarianceModel:
    """Bundle of the polynomial data for one operator, evaluated many times.

    Provides E(s), C(t), det C(t) and their evaluations; this is the working
    object the fundamental-solution and geometry layers share.

    Every operator that validate_operator accepts has A only in the A0 block
    and B only on the block subdiagonal, so the dilations D(l) = diag(l^w_i)
    give C(s) = D(sqrt s) C(+-1) D(sqrt s) for s > 0 with the sign of t.
    Inverse and Cholesky factor are therefore the ones at t = +-1, scaled;
    nothing is factored per time.  The same dilations give E(-s) =
    D(sqrt s) E(-1) D(sqrt s)^{-1} and the unit slice constants of the
    level-set balls: T1 = E(-1) L1 maps the unit ball onto the depth-one slice
    shape, and S1 = (T1 T1^T)^{-1} = E(1)^T C(1)^{-1} E(1) is that shape's
    matrix.
    """

    def __init__(self, spec: OperatorSpec):
        self.spec = spec
        self.E_poly = exponential_polynomial(spec)
        self.C_poly = covariance_polynomial(spec)
        self.detC_poly = det_covariance_polynomial(spec)
        self.half_weights = 0.5 * np.asarray(spec.weights, dtype=float)
        self.L1 = np.linalg.cholesky(self.C_poly(1.0))
        self.E_minus1 = self.E_poly(-1.0)
        self.T1 = self.E_minus1 @ self.L1
        self.S1 = _spd_inverse(self.T1 @ self.T1.T)
        self._K = {1.0: _spd_inverse(self.C_poly(1.0)),
                   -1.0: -_spd_inverse(-self.C_poly(-1.0))}

    def E(self, s):
        return self.E_poly(s)

    def C(self, t):
        return self.C_poly(t)

    def detC(self, t):
        return npoly.polyval(t, self.detC_poly)

    def C_inverse(self, t: float) -> np.ndarray:
        """C(t)^{-1} = D(|t|^{-1/2}) C(sign t)^{-1} D(|t|^{-1/2})."""
        if t == 0.0:
            raise SingularAtZero("C(0) = 0 has no inverse")
        sign = 1.0 if t > 0 else -1.0
        d = abs(t) ** -self.half_weights
        return self._K[sign] * np.outer(d, d)

    def C_cholesky(self, t: float) -> np.ndarray:
        """Lower Cholesky factor of C(t) for t > 0: D(sqrt t) L(1)."""
        if t <= 0.0:
            raise SingularAtZero("Cholesky factor requires t > 0")
        return (t ** self.half_weights)[:, None] * self.L1
