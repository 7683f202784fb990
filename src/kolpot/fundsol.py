"""Fundamental solution and mean-value kernel of the operator.

gamma(x, t) is the anisotropic Gaussian

    gamma(x, t) = (4 pi)^{-n/2} det C(t)^{-1/2} exp(-<C(t)^{-1} x, x>/4),  t > 0

and 0 for t <= 0.  The two-point kernel is Gamma(z, zeta) = gamma(zeta^{-1} o z).
gamma is homogeneous of degree 2 - Q under the group dilations and has unit
spatial mass for every t > 0 (it is a normal density with covariance 2 C(t)).

The mean-value kernel is W(x, t) = <A C(t)^{-1} x, C(t)^{-1} x> / 4, defined
off the time-zero hyperplane; it vanishes exactly on C(t) ker(A).
"""

from __future__ import annotations

import math

import numpy as np

from .covariance import CovarianceModel
from .errors import TimeZero
from .operators import GroupPoint, OperatorSpec, group_compose, group_inverse

__all__ = ["GammaEvaluator"]

# exp underflows to subnormals below ~ -745; returned as exact zero
_EXP_UNDERFLOW = -745.0


class GammaEvaluator:
    """Evaluator for gamma, Gamma and W over one validated operator."""

    def __init__(self, spec: OperatorSpec, cov: CovarianceModel | None = None):
        self.spec = spec
        self.cov = cov if cov is not None else CovarianceModel(spec)
        self.norm = (4.0 * math.pi) ** (-0.5 * spec.n)

    # -- pointwise API ----------------------------------------------------

    def gamma(self, z: GroupPoint) -> float:
        """gamma at a single group point; 0 for t <= 0."""
        if z.t <= 0.0:
            return 0.0
        Cinv = self.cov.C_inverse(z.t)
        expo = -0.25 * float(z.x @ Cinv @ z.x)
        if expo < _EXP_UNDERFLOW:
            return 0.0
        return self.norm / math.sqrt(self.cov.detC(z.t)) * math.exp(expo)

    def Gamma(self, z: GroupPoint, zeta: GroupPoint) -> float:
        """Two-point kernel Gamma(z, zeta) = gamma(zeta^{-1} o z)."""
        return self.gamma(group_compose(group_inverse(zeta, self.spec), z, self.spec))

    def W(self, z: GroupPoint) -> float:
        """Mean-value kernel at a single point; raises TimeZero at t = 0."""
        if z.t == 0.0:
            raise TimeZero("kernel W is undefined on R^n x {0}")
        Cinv = self.cov.C_inverse(z.t)
        y = Cinv @ z.x
        return 0.25 * float(y @ self.spec.A @ y)

    # -- vectorized slice API (fixed time, many spatial points) -----------

    def gamma_slice(self, X: np.ndarray, t: float) -> np.ndarray:
        """gamma((x_i, t)) for rows x_i of X, at one common time t."""
        X = np.atleast_2d(X)
        if t <= 0.0:
            return np.zeros(X.shape[0])
        Cinv = self.cov.C_inverse(t)
        q = np.einsum("ij,jk,ik->i", X, Cinv, X)
        expo = -0.25 * q
        out = np.zeros(X.shape[0])
        ok = expo >= _EXP_UNDERFLOW
        out[ok] = self.norm / math.sqrt(self.cov.detC(t)) * np.exp(expo[ok])
        return out

    def W_slice(self, X: np.ndarray, t: float) -> np.ndarray:
        """W((x_i, t)) for rows x_i of X, at one common nonzero time t."""
        if t == 0.0:
            raise TimeZero("kernel W is undefined on R^n x {0}")
        X = np.atleast_2d(X)
        Y = X @ self.cov.C_inverse(t)
        return 0.25 * np.einsum("ij,jk,ik->i", Y, self.spec.A, Y)

    def W_quadratic(self, t: float) -> np.ndarray:
        """Matrix M with W(x, t) = x^T M x, i.e. M = C^{-1} A C^{-1} / 4."""
        if t == 0.0:
            raise TimeZero("kernel W is undefined on R^n x {0}")
        Cinv = self.cov.C_inverse(t)
        M = 0.25 * Cinv @ self.spec.A @ Cinv
        return 0.5 * (M + M.T)

