"""Closed-form calculus for polynomial-times-Gaussian functions.

One term type carries the whole closed class:

* :class:`GaussPoly`: ``p(x) * exp(-x.Px/2 + b.x + g)`` with ``p`` a
  :class:`Polynomial` and ``P`` complex symmetric; ``x.Px`` is the
  symmetric bilinear form (no conjugation), and evaluation at complex
  arguments is the analytic continuation.  Terms are closed under
  products, composition with linear maps, argument shifts and Gaussian
  convolution, which is exactly what every transform in this package
  produces.

* :class:`HolomorphicFunction`: a finite sum of such terms, read as a
  function of a complex argument (the elements of the Fock spaces).
  Terms whose Gaussian parts agree bit for bit are merged.

Gaussian integrals and convolutions are evaluated by completing the
square; the polynomial factor is averaged against the centred Gaussian
of covariance ``Q^{-1}`` by one binomial-times-Isserlis/Wick expansion
(:func:`_smoothed`).  Complex symmetric quadratic forms with
positive-definite real part keep their eigenvalues in the right half
plane, so the principal branch of ``det^{-1/2}`` used here is the
analytic continuation of the real SPD formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import DivergenceError, RangeOverflowError, UnsupportedFormError

__all__ = [
    "Polynomial",
    "GaussPoly",
    "HolomorphicFunction",
    "CallableField",
    "gaussian_integral",
    "integrate_gausspoly",
    "convolve_gaussian",
    "l2_inner_product",
    "checked_exp",
]

EXP_OVERFLOW = 700.0


def checked_exp(w):
    """exp with a structured error instead of a silent overflow to inf."""
    w = np.asarray(w)
    top = float(np.max(w.real)) if w.size else 0.0
    if top > EXP_OVERFLOW:
        raise RangeOverflowError(
            f"exponent {top:.1f} exceeds the representable range", exponent=top
        )
    return np.exp(w)


def _as_complex_vector(v, n: int) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    if v.shape != (n,):
        raise UnsupportedFormError(f"expected a vector of length {n}, got {v.shape}")
    return v


def _sym(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.T)


class Polynomial:
    """Polynomial in n complex variables, stored as multi-index -> coefficient."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict | None = None):
        self.n = int(n)
        clean: dict[tuple, complex] = {}
        for alpha, coeff in (terms or {}).items():
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != self.n or any(a < 0 for a in alpha):
                raise UnsupportedFormError(f"bad multi-index {alpha} for n={self.n}")
            c = complex(coeff)
            if c != 0:
                clean[alpha] = clean.get(alpha, 0) + c
        self.terms = {a: c for a, c in clean.items() if c != 0}

    @classmethod
    def constant(cls, n: int, value: complex) -> "Polynomial":
        return cls(n, {(0,) * n: value})

    @classmethod
    def monomial(cls, n: int, alpha, coeff: complex = 1.0) -> "Polynomial":
        return cls(n, {tuple(alpha): coeff})

    @classmethod
    def linear(cls, coeffs, constant: complex = 0.0) -> "Polynomial":
        coeffs = np.asarray(coeffs, dtype=complex)
        n = coeffs.shape[0]
        terms = {}
        for j in range(n):
            if coeffs[j] != 0:
                alpha = [0] * n
                alpha[j] = 1
                terms[tuple(alpha)] = coeffs[j]
        if constant != 0:
            terms[(0,) * n] = constant
        return cls(n, terms)

    def degree(self) -> int:
        return max((sum(a) for a in self.terms), default=0)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self.terms)
        for a, c in other.terms.items():
            out[a] = out.get(a, 0) + c
        return Polynomial(self.n, out)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            out: dict[tuple, complex] = {}
            for a1, c1 in self.terms.items():
                for a2, c2 in other.terms.items():
                    a = tuple(i + j for i, j in zip(a1, a2))
                    out[a] = out.get(a, 0) + c1 * c2
            return Polynomial(self.n, out)
        return Polynomial(self.n, {a: c * other for a, c in self.terms.items()})

    __rmul__ = __mul__

    def conjugate_coefficients(self) -> "Polynomial":
        return Polynomial(self.n, {a: np.conj(c) for a, c in self.terms.items()})

    def evaluate(self, z) -> complex:
        return complex(self.evaluate_many(np.asarray(z, dtype=complex)[None, :])[0])

    def evaluate_many(self, Z: np.ndarray) -> np.ndarray:
        Z = np.asarray(Z, dtype=complex)
        out = np.zeros(Z.shape[0], dtype=complex)
        for alpha, coeff in self.terms.items():
            term = np.full(Z.shape[0], coeff, dtype=complex)
            for j, a in enumerate(alpha):
                if a:
                    term = term * Z[:, j] ** a
            out += term
        return out

    def compose_affine(self, M: np.ndarray | None, d=None) -> "Polynomial":
        """The polynomial w -> p(M w + d)."""
        n = self.n
        if M is None:
            M = np.eye(n, dtype=complex)
        M = np.asarray(M, dtype=complex)
        d = np.zeros(n, dtype=complex) if d is None else _as_complex_vector(d, n)
        lines = [Polynomial.linear(M[j, :], d[j]) for j in range(n)]
        # powers[j][k] is the k-th power of the j-th linear form, built on demand
        powers = [[Polynomial.constant(n, 1.0)] for _ in range(n)]
        out = Polynomial(n, {})
        for alpha, coeff in self.terms.items():
            term = Polynomial.constant(n, coeff)
            for j, a in enumerate(alpha):
                while len(powers[j]) <= a:
                    powers[j].append(powers[j][-1] * lines[j])
                if a:
                    term = term * powers[j][a]
            out = out + term
        return out

    def shifted(self, d) -> "Polynomial":
        """The polynomial z -> p(z + d)."""
        return self.compose_affine(None, d)


@dataclass(frozen=True)
class GaussPoly:
    """p(x) * exp(-x.Px/2 + b.x + gamma), the one term type.

    P is stored complex symmetric; positivity of the total Gaussian decay
    is checked where an integral is actually taken, not here, because
    legitimate members of weighted L^2 spaces can grow against Lebesgue
    measure, and Fock-space terms grow along imaginary directions.
    """

    poly: Polynomial
    P: np.ndarray
    b: np.ndarray
    gamma: complex

    def __post_init__(self):
        P = _sym(np.asarray(self.P, dtype=complex))
        b = np.asarray(self.b, dtype=complex)
        if P.shape != (self.poly.n, self.poly.n) or b.shape != (self.poly.n,):
            raise UnsupportedFormError("GaussPoly dimensions disagree")
        P.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "gamma", complex(self.gamma))

    @property
    def n(self) -> int:
        return self.poly.n

    @classmethod
    def gaussian(cls, P, b=None, gamma: complex = 0.0, coeff: complex = 1.0) -> "GaussPoly":
        P = np.asarray(P)
        n = P.shape[0]
        b = np.zeros(n) if b is None else b
        return cls(Polynomial.constant(n, coeff), P, b, gamma)

    @classmethod
    def one(cls, n: int) -> "GaussPoly":
        return cls(Polynomial.constant(n, 1.0), np.zeros((n, n)), np.zeros(n), 0.0)

    def evaluate_many(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=complex)
        if not self.P.any() and not self.b.any():
            # a pure polynomial: the exponent is gamma at every point
            return self.poly.evaluate_many(X) * checked_exp(self.gamma)
        expo = -0.5 * np.einsum("ij,jk,ik->i", X, self.P, X) + X @ self.b + self.gamma
        return self.poly.evaluate_many(X) * checked_exp(expo)

    def evaluate(self, x) -> complex:
        return complex(self.evaluate_many(np.asarray(x, dtype=complex)[None, :])[0])

    def conjugated(self) -> "GaussPoly":
        """Complex conjugate as a function on real arguments."""
        return GaussPoly(
            self.poly.conjugate_coefficients(),
            np.conj(self.P),
            np.conj(self.b),
            np.conj(self.gamma),
        )

    def times_scalar(self, c: complex) -> "GaussPoly":
        return GaussPoly(self.poly * c, self.P, self.b, self.gamma)

    def __mul__(self, other: "GaussPoly") -> "GaussPoly":
        return GaussPoly(
            self.poly * other.poly,
            self.P + other.P,
            self.b + other.b,
            self.gamma + other.gamma,
        )

    def compose_linear(self, M: np.ndarray) -> "GaussPoly":
        """The function x -> f(M x)."""
        M = np.asarray(M, dtype=complex)
        return GaussPoly(self.poly.compose_affine(M), M.T @ self.P @ M, M.T @ self.b, self.gamma)

    def shifted(self, d) -> "GaussPoly":
        """The function x -> f(x + d)."""
        d = _as_complex_vector(d, self.n)
        return GaussPoly(
            self.poly.shifted(d),
            self.P,
            self.b - self.P @ d,
            self.gamma - 0.5 * np.dot(d, self.P @ d) + np.dot(self.b, d),
        )

    def as_holomorphic(self) -> "HolomorphicFunction":
        """The same term as a one-term function of a complex argument."""
        return HolomorphicFunction(self.n, [self])


class HolomorphicFunction:
    """Finite sum of :class:`GaussPoly` terms on the complexification."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms):
        self.n = int(n)
        # merge terms whose Gaussian parts agree bit for bit, so sums of
        # polynomials stay a single term
        merged: dict[tuple, GaussPoly] = {}
        for term in terms:
            if term.n != self.n:
                raise UnsupportedFormError("term dimension mismatch")
            if term.poly.is_zero():
                continue
            key = (term.P.tobytes(), term.b.tobytes(), term.gamma)
            prev = merged.get(key)
            merged[key] = term if prev is None else GaussPoly(
                prev.poly + term.poly, prev.P, prev.b, prev.gamma
            )
        self.terms = tuple(t for t in merged.values() if not t.poly.is_zero())

    @classmethod
    def from_polynomial(cls, poly: Polynomial) -> "HolomorphicFunction":
        n = poly.n
        return cls(n, [GaussPoly(poly, np.zeros((n, n)), np.zeros(n), 0.0)])

    @classmethod
    def constant(cls, n: int, value: complex) -> "HolomorphicFunction":
        return cls.from_polynomial(Polynomial.constant(n, value))

    @classmethod
    def monomial(cls, n: int, alpha, coeff: complex = 1.0) -> "HolomorphicFunction":
        return cls.from_polynomial(Polynomial.monomial(n, alpha, coeff))

    def evaluate_many(self, Z: np.ndarray) -> np.ndarray:
        Z = np.asarray(Z, dtype=complex)
        out = np.zeros(Z.shape[0], dtype=complex)
        for term in self.terms:
            out += term.evaluate_many(Z)
        return out

    def evaluate(self, z) -> complex:
        return complex(self.evaluate_many(np.asarray(z, dtype=complex)[None, :])[0])

    def __add__(self, other: "HolomorphicFunction") -> "HolomorphicFunction":
        return HolomorphicFunction(self.n, self.terms + other.terms)

    def times_scalar(self, c: complex) -> "HolomorphicFunction":
        return HolomorphicFunction(self.n, [t.times_scalar(c) for t in self.terms])

    def times_exp(self, e: GaussPoly) -> "HolomorphicFunction":
        return HolomorphicFunction(self.n, [t * e for t in self.terms])

    def compose_linear(self, M: np.ndarray) -> "HolomorphicFunction":
        """The function w -> F(M w)."""
        return HolomorphicFunction(self.n, [t.compose_linear(M) for t in self.terms])

    def shifted(self, d) -> "HolomorphicFunction":
        """The function z -> F(z + d)."""
        return HolomorphicFunction(self.n, [t.shifted(d) for t in self.terms])

    def single_term(self) -> GaussPoly:
        if len(self.terms) == 1:
            return self.terms[0]
        if not self.terms:
            return GaussPoly.one(self.n).times_scalar(0.0)
        raise UnsupportedFormError("function is a sum of several exponential terms")

    def as_polynomial(self, tol: float = 1e-12) -> Polynomial:
        """Collapse to a plain polynomial; the exponential parts must be
        trivial up to ``tol`` (their residual scalar is folded in)."""
        out = Polynomial(self.n, {})
        for term in self.terms:
            worst = max(
                float(np.max(np.abs(term.P), initial=0.0)),
                float(np.max(np.abs(term.b), initial=0.0)),
            )
            if worst > tol:
                raise UnsupportedFormError(
                    f"exponential part deviates from trivial by {worst:.2e} (> {tol})"
                )
            out = out + term.poly * complex(np.exp(term.gamma))
        return out


@dataclass(frozen=True)
class CallableField:
    """Black-box evaluator on the real subspace, for quadrature-only paths."""

    n: int
    fn: object  # vectorized: (m, n) real array -> (m,) complex array

    def evaluate_many(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(X, dtype=float)), dtype=complex)

    def evaluate(self, x) -> complex:
        return complex(self.evaluate_many(np.asarray(x, dtype=float)[None, :])[0])


def _require_decaying(Q: np.ndarray, what: str) -> None:
    min_eig = float(np.linalg.eigvalsh(0.5 * (Q.real + Q.real.T))[0])
    if min_eig <= 0.0:
        raise DivergenceError(
            f"{what}: quadratic form has non-positive real part "
            f"(min eigenvalue {min_eig:.3e}); the integral diverges"
        )


def _sqrt_det_inv(Q: np.ndarray) -> complex:
    """det(Q)^{-1/2} on the branch continuous from real SPD matrices.

    Eigenvalues of a complex symmetric Q with SPD real part stay in the
    open right half plane, so the principal logarithm per eigenvalue is
    the correct analytic continuation.
    """
    vals = np.linalg.eigvals(Q)
    return complex(np.exp(-0.5 * np.sum(np.log(vals))))


def _gaussian_moment(cov: np.ndarray, beta: tuple, memo: dict) -> complex:
    if not any(beta):
        return 1.0 + 0.0j
    got = memo.get(beta)
    if got is not None:
        return got
    i = next(j for j, v in enumerate(beta) if v)
    rest = list(beta)
    rest[i] -= 1
    total = 0.0 + 0.0j
    for j, v in enumerate(rest):
        if v and cov[i, j] != 0:
            nxt = list(rest)
            nxt[j] -= 1
            total += cov[i, j] * v * _gaussian_moment(cov, tuple(nxt), memo)
    memo[beta] = total
    return total


def _smoothed(poly: Polynomial, cov: np.ndarray) -> Polynomial:
    """The polynomial y -> E[p(y + u)] for u centred Gaussian with
    (complex symmetric) covariance ``cov``: each monomial is expanded
    binomially and the u-moments come from the Isserlis/Wick recursion."""
    memo: dict = {}
    out: dict[tuple, complex] = {}
    for alpha, coeff in poly.terms.items():
        for beta in product(*(range(a + 1) for a in alpha)):
            mom = _gaussian_moment(cov, beta, memo)
            if mom == 0:
                continue
            comb = math.prod(math.comb(a, bj) for a, bj in zip(alpha, beta))
            rest = tuple(a - bj for a, bj in zip(alpha, beta))
            out[rest] = out.get(rest, 0) + coeff * comb * mom
    return Polynomial(poly.n, out)


def gaussian_integral(poly: Polynomial, Q: np.ndarray, b, gamma: complex = 0.0) -> complex:
    """Integral over R^n of p(y) exp(-y.Qy/2 + b.y + gamma) dy.

    Q must have SPD real part; the polynomial factor is averaged with
    covariance Q^{-1} around the stationary point Q^{-1} b.
    """
    Q = _sym(np.asarray(Q, dtype=complex))
    n = Q.shape[0]
    b = _as_complex_vector(b, n)
    _require_decaying(Q, "gaussian integral")
    mean = np.linalg.solve(Q, b)
    base = (
        complex(np.exp(gamma + 0.5 * np.dot(b, mean)))
        * (2.0 * np.pi) ** (n / 2.0)
        * _sqrt_det_inv(Q)
    )
    return base * _smoothed(poly, np.linalg.inv(Q)).evaluate(mean)


def integrate_gausspoly(g: GaussPoly) -> complex:
    """Lebesgue integral of a GaussPoly over the real subspace."""
    return gaussian_integral(g.poly, g.P, g.b, g.gamma)


def l2_inner_product(f: GaussPoly, g: GaussPoly, weight: GaussPoly | None = None) -> complex:
    """<f, g> = integral of f conj(g) (optionally times a density weight)."""
    prod = f * g.conjugated()
    if weight is not None:
        prod = prod * weight
    return integrate_gausspoly(prod)


def convolve_gaussian(prefactor: complex, G: np.ndarray, h: GaussPoly) -> GaussPoly:
    """Closed form of z -> prefactor * integral exp(-(z-x).G(z-x)/2) h(x) dx.

    Completing the square in x leaves another polynomial-times-Gaussian in
    z, so the class is closed under convolution with Gaussian kernels.
    """
    G = _sym(np.asarray(G, dtype=complex))
    n = G.shape[0]
    if h.n != n:
        raise UnsupportedFormError("kernel and function dimensions disagree")
    Q = G + h.P
    _require_decaying(Q, "gaussian convolution")
    Qinv = _sym(np.linalg.inv(Q))
    scale = prefactor * (2.0 * np.pi) ** (n / 2.0) * _sqrt_det_inv(Q)

    c0 = Qinv @ h.b
    P_new = _sym(G - G @ Qinv @ G)
    gamma_new = h.gamma + 0.5 * np.dot(h.b, c0)
    # h's polynomial averaged around the stationary point x0(z) = Qinv G z + c0
    poly_new = _smoothed(h.poly, Qinv).compose_affine(Qinv @ G, c0)
    return GaussPoly(poly_new * scale, P_new, G @ c0, gamma_new)
