"""Polynomial solutions of L u = 0, graded by the anisotropic degree.

Monomials x^alpha t^k are graded by sum_i w_i alpha_i + 2 k, with w_i the
dilation weight of the i-th coordinate.  The operator maps the degree-m
coefficient space into degree m-2 (it is homogeneous of degree two), so the
kernel is computed degree by degree from small exact linear systems.  When
the operator matrices are exactly representable rationals the null space is
computed in rational arithmetic (sympy) and the returned polynomials satisfy
L u = 0 identically; otherwise an SVD null space with a 1e-12 threshold is
used.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .operators import OperatorSpec

__all__ = ["AnisoPolynomial", "apply_L", "harmonic_basis", "format_polynomial"]

_EXACT_DENOM_CAP = 1 << 30


class AnisoPolynomial:
    """Polynomial in (x_1..x_n, t) stored as {(alpha, k): coefficient}.

    Coefficients may be Fractions (exact path) or floats; evaluation always
    happens in float.
    """

    def __init__(self, n: int, terms: dict | None = None):
        self.n = n
        self.terms = {}
        if terms:
            for (alpha, k), c in terms.items():
                if c != 0:
                    self.terms[(tuple(alpha), int(k))] = c

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, n: int, c=1) -> "AnisoPolynomial":
        return cls(n, {(tuple([0] * n), 0): c})

    @classmethod
    def coordinate(cls, n: int, i: int) -> "AnisoPolynomial":
        alpha = [0] * n
        alpha[i] = 1
        return cls(n, {(tuple(alpha), 0): 1})

    @classmethod
    def time(cls, n: int) -> "AnisoPolynomial":
        return cls(n, {(tuple([0] * n), 1): 1})

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "AnisoPolynomial") -> "AnisoPolynomial":
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) + c
        return AnisoPolynomial(self.n, out)

    def __sub__(self, other: "AnisoPolynomial") -> "AnisoPolynomial":
        return self + other.scaled(-1)

    def scaled(self, c) -> "AnisoPolynomial":
        return AnisoPolynomial(self.n, {k: c * v for k, v in self.terms.items()})

    def __mul__(self, other: "AnisoPolynomial") -> "AnisoPolynomial":
        out = {}
        for (a1, k1), c1 in self.terms.items():
            for (a2, k2), c2 in other.terms.items():
                key = (tuple(x + y for x, y in zip(a1, a2)), k1 + k2)
                out[key] = out.get(key, 0) + c1 * c2
        return AnisoPolynomial(self.n, out)

    # -- calculus ------------------------------------------------------------

    def partial_x(self, i: int) -> "AnisoPolynomial":
        out = {}
        for (alpha, k), c in self.terms.items():
            if alpha[i] > 0:
                na = list(alpha)
                na[i] -= 1
                key = (tuple(na), k)
                out[key] = out.get(key, 0) + c * alpha[i]
        return AnisoPolynomial(self.n, out)

    def partial_t(self) -> "AnisoPolynomial":
        out = {}
        for (alpha, k), c in self.terms.items():
            if k > 0:
                key = (alpha, k - 1)
                out[key] = out.get(key, 0) + c * k
        return AnisoPolynomial(self.n, out)

    def times_x(self, j: int) -> "AnisoPolynomial":
        out = {}
        for (alpha, k), c in self.terms.items():
            na = list(alpha)
            na[j] += 1
            out[(tuple(na), k)] = c
        return AnisoPolynomial(self.n, out)

    # -- queries -------------------------------------------------------------

    @property
    def space_degree(self) -> int:
        """Largest total spatial degree, used to size exact cubature rules."""
        return max((sum(alpha) for (alpha, _k) in self.terms), default=0)

    def aniso_degree(self, spec: OperatorSpec) -> int:
        return max(
            (sum(w * a for w, a in zip(spec.weights, alpha)) + 2 * k
             for (alpha, k) in self.terms),
            default=0,
        )

    def is_zero(self, tol: float = 0.0) -> bool:
        return all(abs(float(c)) <= tol for c in self.terms.values())

    def coeff_norm(self) -> float:
        return max((abs(float(c)) for c in self.terms.values()), default=0.0)

    def evaluate(self, X: np.ndarray, t) -> np.ndarray:
        """Values at rows of X and common (or per-row) time t."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        t = np.asarray(t, dtype=float)
        out = np.zeros(X.shape[0])
        for (alpha, k), c in self.terms.items():
            term = np.full(X.shape[0], float(c))
            for i, a in enumerate(alpha):
                if a:
                    term = term * X[:, i] ** a
            if k:
                term = term * t ** k
            out += term
        return out

    def __call__(self, z) -> float:
        """Value at a group point (or an (x, t) pair)."""
        x, t = (z.x, z.t) if hasattr(z, "x") else z
        return float(self.evaluate(np.atleast_2d(x), t)[0])

    def __repr__(self):
        return f"AnisoPolynomial({format_polynomial(self)})"


def _entries_exact(*matrices) -> bool:
    for M in matrices:
        for v in np.asarray(M, dtype=float).ravel():
            if Fraction(v).denominator > _EXACT_DENOM_CAP:
                return False
    return True


def apply_L(u: AnisoPolynomial, spec: OperatorSpec) -> AnisoPolynomial:
    """Exact symbolic application of div(A grad) + <Bx, grad> - d/dt."""
    exact = all(isinstance(c, (int, Fraction)) for c in u.terms.values()) and _entries_exact(
        spec.A, spec.B
    )

    def conv(v: float):
        return Fraction(v) if exact else float(v)

    n = spec.n
    out = AnisoPolynomial(n)
    # second-order term: only the A0 block is nonzero
    for i in range(spec.p0):
        di = u.partial_x(i)
        for j in range(spec.p0):
            aij = spec.A[i, j]
            if aij != 0.0:
                out = out + di.partial_x(j).scaled(conv(aij))
    # drift term <Bx, grad u>
    for i in range(n):
        di = u.partial_x(i)
        if not di.terms:
            continue
        for j in range(n):
            bij = spec.B[i, j]
            if bij != 0.0:
                out = out + di.times_x(j).scaled(conv(bij))
    return out - u.partial_t()


def _monomials_of_degree(spec: OperatorSpec, m: int) -> list[tuple[tuple[int, ...], int]]:
    """All (alpha, k) with sum w_i alpha_i + 2k = m, in deterministic order."""
    n = spec.n
    found = []

    def rec(i, remaining, alpha):
        if i == n:
            if remaining % 2 == 0:
                found.append((tuple(alpha), remaining // 2))
            return
        w = spec.weights[i]
        for a in range(remaining // w + 1):
            alpha.append(a)
            rec(i + 1, remaining - w * a, alpha)
            alpha.pop()

    rec(0, m, [])
    return sorted(found)


def _rational_nullspace(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    import sympy

    M = sympy.Matrix(
        [[sympy.Rational(c.numerator, c.denominator) for c in row] for row in rows]
    ) if rows else sympy.zeros(1, ncols)
    basis = []
    for v in M.nullspace():
        denoms = [sympy.fraction(x)[1] for x in v]
        scale = sympy.lcm(denoms)
        vv = [sympy.nsimplify(x * scale) for x in v]
        basis.append([Fraction(int(sympy.fraction(x)[0]), int(sympy.fraction(x)[1])) for x in vv])
    return basis


def harmonic_basis(spec: OperatorSpec, max_aniso_degree: int) -> list[AnisoPolynomial]:
    """Basis of polynomial solutions of L u = 0 up to an anisotropic degree.

    Solved degree by degree: L maps the degree-m monomial space linearly into
    degree m-2, and the kernel of that map is returned.  Every returned
    polynomial satisfies L u = 0 exactly (rational path) or with coefficient
    norm below 1e-12 (float path).
    """
    exact = _entries_exact(spec.A, spec.B)
    one, zero = (Fraction(1), Fraction(0)) if exact else (1.0, 0.0)
    basis: list[AnisoPolynomial] = []
    for m in range(max_aniso_degree + 1):
        monos = _monomials_of_degree(spec, m)
        if not monos:
            continue
        targets = _monomials_of_degree(spec, m - 2) if m >= 2 else []
        index = {key: i for i, key in enumerate(targets)}
        columns = []
        for key in monos:
            u = AnisoPolynomial(spec.n, {key: one})
            Lu = apply_L(u, spec)
            col = [zero for _ in targets]
            for tkey, c in Lu.terms.items():
                col[index[tkey]] = c
            columns.append(col)
        if not targets:
            null_vecs = [[one if i == j else zero for j in range(len(monos))]
                         for i in range(len(monos))]
        elif exact:
            rows = [[columns[c][r] for c in range(len(monos))] for r in range(len(targets))]
            null_vecs = _rational_nullspace(rows, len(monos))
        else:
            import scipy.linalg

            mat = np.array(
                [[float(columns[c][r]) for c in range(len(monos))] for r in range(len(targets))]
            )
            ns = scipy.linalg.null_space(mat, rcond=1e-12)
            null_vecs = [list(ns[:, j]) for j in range(ns.shape[1])]
        for vec in null_vecs:
            terms = {key: c for key, c in zip(monos, vec) if c != 0}
            u = AnisoPolynomial(spec.n, terms)
            if not u.terms:
                continue
            Lu = apply_L(u, spec)
            if exact:
                assert Lu.is_zero(), "rational null-space vector fails L u = 0"
            basis.append(u)
    return basis


def format_polynomial(u: AnisoPolynomial) -> str:
    """Plain-text monomial list, deterministic order, for report files."""
    if not u.terms:
        return "0"
    parts = []
    for (alpha, k), c in sorted(u.terms.items()):
        factors = []
        for i, a in enumerate(alpha):
            if a == 1:
                factors.append(f"x{i}")
            elif a > 1:
                factors.append(f"x{i}^{a}")
        if k == 1:
            factors.append("t")
        elif k > 1:
            factors.append(f"t^{k}")
        body = "*".join(factors) if factors else "1"
        parts.append(f"({c})*{body}")
    return " + ".join(parts)
