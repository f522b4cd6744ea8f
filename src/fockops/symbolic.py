"""Closed-form calculus for polynomial-times-Gaussian functions.

Two families are kept in exact symbolic form:

* :class:`HolomorphicFunction`: finite sums of ``p(z) * exp(z.Qz/2 + b.z + g)``
  with ``p`` a polynomial and ``Q`` complex symmetric; ``z.Qz`` is the
  symmetric bilinear form (no conjugation).  The family is closed under
  composition with complex-linear maps, argument shifts, and
  multiplication by exponential-quadratics, which is exactly what every
  transform in this package produces.

* :class:`GaussPoly`: functions ``p(x) * exp(-x.Px/2 + b.x + g)`` on the
  real subspace.  Closed under products, Gaussian convolution and
  multiplication by Gaussian densities; evaluation at complex arguments
  is the analytic continuation.

Gaussian integrals of either family are evaluated by completing the
square; polynomial factors reduce to moments of a (complex symmetric)
covariance via the Isserlis/Wick recursion.  Complex symmetric quadratic
forms with positive-definite real part keep their eigenvalues in the
right half plane, so the principal branch of ``det^{-1/2}`` used here is
the analytic continuation of the real SPD formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, RangeOverflowError, UnsupportedFormError

__all__ = [
    "Polynomial",
    "ExpQuadratic",
    "HolomorphicFunction",
    "GaussPoly",
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

    def power(self, k: int) -> "Polynomial":
        out = Polynomial.constant(self.n, 1.0)
        for _ in range(k):
            out = out * self
        return out

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
        out = Polynomial(n, {})
        for alpha, coeff in self.terms.items():
            term = Polynomial.constant(n, coeff)
            for j, a in enumerate(alpha):
                if a:
                    term = term * lines[j].power(a)
            out = out + term
        return out

    def shifted(self, d) -> "Polynomial":
        """The polynomial z -> p(z + d)."""
        return self.compose_affine(None, d)

    def to_json(self) -> dict:
        return {
            "kind": "polynomial",
            "n": self.n,
            "terms": [
                {"alpha": list(a), "re": c.real, "im": c.imag}
                for a, c in sorted(self.terms.items())
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Polynomial":
        return cls(
            data["n"],
            {
                tuple(t["alpha"]): complex(t["re"], t.get("im", 0.0))
                for t in data["terms"]
            },
        )


@dataclass(frozen=True)
class ExpQuadratic:
    """exp(z.Qz/2 + b.z + gamma) with Q complex symmetric (bilinear, no conjugation)."""

    Q: np.ndarray
    b: np.ndarray
    gamma: complex

    def __post_init__(self):
        Q = _sym(np.asarray(self.Q, dtype=complex))
        b = np.asarray(self.b, dtype=complex)
        if Q.shape != (b.shape[0], b.shape[0]):
            raise UnsupportedFormError("quadratic/linear dimensions disagree")
        Q.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "gamma", complex(self.gamma))

    @property
    def n(self) -> int:
        return self.b.shape[0]

    @classmethod
    def zero(cls, n: int) -> "ExpQuadratic":
        return cls(np.zeros((n, n)), np.zeros(n), 0.0)

    def is_trivial(self, tol: float = 0.0) -> bool:
        return (
            float(np.max(np.abs(self.Q), initial=0.0)) <= tol
            and float(np.max(np.abs(self.b), initial=0.0)) <= tol
            and abs(self.gamma) <= tol
        )

    def exponent_many(self, Z: np.ndarray) -> np.ndarray:
        Z = np.asarray(Z, dtype=complex)
        return 0.5 * np.einsum("ij,jk,ik->i", Z, self.Q, Z) + Z @ self.b + self.gamma

    def evaluate_many(self, Z: np.ndarray) -> np.ndarray:
        return checked_exp(self.exponent_many(Z))

    def evaluate(self, z) -> complex:
        return complex(self.evaluate_many(np.asarray(z, dtype=complex)[None, :])[0])

    def __mul__(self, other: "ExpQuadratic") -> "ExpQuadratic":
        return ExpQuadratic(self.Q + other.Q, self.b + other.b, self.gamma + other.gamma)

    def compose_linear(self, M: np.ndarray) -> "ExpQuadratic":
        M = np.asarray(M, dtype=complex)
        return ExpQuadratic(M.T @ self.Q @ M, M.T @ self.b, self.gamma)

    def shifted(self, d) -> "ExpQuadratic":
        d = _as_complex_vector(d, self.n)
        return ExpQuadratic(
            self.Q,
            self.b + self.Q @ d,
            self.gamma + 0.5 * np.dot(d, self.Q @ d) + np.dot(self.b, d),
        )

    def to_json(self) -> dict:
        return {
            "kind": "exp_quadratic",
            "n": self.n,
            "Q": [[{"re": v.real, "im": v.imag} for v in row] for row in self.Q],
            "b": [{"re": v.real, "im": v.imag} for v in self.b],
            "gamma": {"re": self.gamma.real, "im": self.gamma.imag},
        }

    @classmethod
    def from_json(cls, data: dict) -> "ExpQuadratic":
        jc = lambda d: complex(d["re"], d.get("im", 0.0))
        Q = np.array([[jc(v) for v in row] for row in data["Q"]], dtype=complex)
        b = np.array([jc(v) for v in data["b"]], dtype=complex)
        return cls(Q, b, jc(data["gamma"]))


class HolomorphicFunction:
    """Finite sum of polynomial-times-exponential-quadratic terms."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms):
        self.n = int(n)
        # merge terms whose exponential parts agree bit for bit, so sums of
        # polynomials stay a single term
        merged: dict[tuple, tuple[Polynomial, ExpQuadratic]] = {}
        for poly, gauss in terms:
            if poly.n != self.n or gauss.n != self.n:
                raise UnsupportedFormError("term dimension mismatch")
            if poly.is_zero():
                continue
            key = (gauss.Q.tobytes(), gauss.b.tobytes(), gauss.gamma)
            if key in merged:
                prev_poly, prev_gauss = merged[key]
                merged[key] = (prev_poly + poly, prev_gauss)
            else:
                merged[key] = (poly, gauss)
        self.terms = tuple(
            (p, g) for p, g in merged.values() if not p.is_zero()
        )

    @classmethod
    def from_polynomial(cls, poly: Polynomial) -> "HolomorphicFunction":
        return cls(poly.n, [(poly, ExpQuadratic.zero(poly.n))])

    @classmethod
    def from_exp_quadratic(cls, gauss: ExpQuadratic) -> "HolomorphicFunction":
        return cls(gauss.n, [(Polynomial.constant(gauss.n, 1.0), gauss)])

    @classmethod
    def constant(cls, n: int, value: complex) -> "HolomorphicFunction":
        return cls.from_polynomial(Polynomial.constant(n, value))

    @classmethod
    def monomial(cls, n: int, alpha, coeff: complex = 1.0) -> "HolomorphicFunction":
        return cls.from_polynomial(Polynomial.monomial(n, alpha, coeff))

    def evaluate_many(self, Z: np.ndarray) -> np.ndarray:
        Z = np.asarray(Z, dtype=complex)
        out = np.zeros(Z.shape[0], dtype=complex)
        for poly, gauss in self.terms:
            out += poly.evaluate_many(Z) * gauss.evaluate_many(Z)
        return out

    def evaluate(self, z) -> complex:
        return complex(self.evaluate_many(np.asarray(z, dtype=complex)[None, :])[0])

    def __add__(self, other: "HolomorphicFunction") -> "HolomorphicFunction":
        return HolomorphicFunction(self.n, self.terms + other.terms)

    def times_scalar(self, c: complex) -> "HolomorphicFunction":
        return HolomorphicFunction(self.n, [(p * c, g) for p, g in self.terms])

    def times_exp(self, e: ExpQuadratic) -> "HolomorphicFunction":
        return HolomorphicFunction(self.n, [(p, g * e) for p, g in self.terms])

    def compose_linear(self, M: np.ndarray) -> "HolomorphicFunction":
        """The function w -> F(M w)."""
        return HolomorphicFunction(
            self.n,
            [(p.compose_affine(M), g.compose_linear(M)) for p, g in self.terms],
        )

    def shifted(self, d) -> "HolomorphicFunction":
        """The function z -> F(z + d)."""
        return HolomorphicFunction(
            self.n, [(p.shifted(d), g.shifted(d)) for p, g in self.terms]
        )

    def single_term(self) -> tuple[Polynomial, ExpQuadratic]:
        if len(self.terms) == 1:
            return self.terms[0]
        if not self.terms:
            return Polynomial(self.n, {}), ExpQuadratic.zero(self.n)
        raise UnsupportedFormError("function is a sum of several exponential terms")

    def as_polynomial(self, tol: float = 1e-12) -> Polynomial:
        """Collapse to a plain polynomial; the exponential parts must be
        trivial up to ``tol`` (their residual scalar is folded in)."""
        out = Polynomial(self.n, {})
        for poly, gauss in self.terms:
            worst = max(
                float(np.max(np.abs(gauss.Q), initial=0.0)),
                float(np.max(np.abs(gauss.b), initial=0.0)),
            )
            if worst > tol:
                raise UnsupportedFormError(
                    f"exponential part deviates from trivial by {worst:.2e} (> {tol})"
                )
            out = out + poly * complex(np.exp(gauss.gamma))
        return out

    def to_json(self) -> dict:
        if len(self.terms) == 1:
            poly, gauss = self.terms[0]
            if gauss.is_trivial():
                return poly.to_json()
            if poly.terms == {(0,) * self.n: 1.0 + 0.0j}:
                return gauss.to_json()
            return {"kind": "product", "poly": poly.to_json(), "gauss": gauss.to_json()}
        return {
            "kind": "sum",
            "n": self.n,
            "terms": [
                {"kind": "product", "poly": p.to_json(), "gauss": g.to_json()}
                for p, g in self.terms
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "HolomorphicFunction":
        kind = data.get("kind")
        if kind == "polynomial":
            return cls.from_polynomial(Polynomial.from_json(data))
        if kind == "exp_quadratic":
            return cls.from_exp_quadratic(ExpQuadratic.from_json(data))
        if kind == "product":
            poly = Polynomial.from_json(data["poly"])
            gauss = ExpQuadratic.from_json(data["gauss"])
            return cls(poly.n, [(poly, gauss)])
        if kind == "sum":
            out = None
            for term in data["terms"]:
                f = cls.from_json(term)
                out = f if out is None else out + f
            if out is None:
                raise UnsupportedFormError("empty sum")
            return out
        raise UnsupportedFormError(f"unknown symbolic kind {kind!r}")


@dataclass(frozen=True)
class GaussPoly:
    """p(x) * exp(-x.Px/2 + b.x + gamma) on the real subspace.

    P is stored complex symmetric (it is real in every standard use);
    positivity of the total Gaussian decay is checked where an integral
    is actually taken, not here, because legitimate members of weighted
    L^2 spaces can grow against Lebesgue measure.
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
        P = np.asarray(P, dtype=float)
        n = P.shape[0]
        b = np.zeros(n) if b is None else b
        return cls(Polynomial.constant(n, coeff), P, b, gamma)

    @classmethod
    def one(cls, n: int) -> "GaussPoly":
        return cls(Polynomial.constant(n, 1.0), np.zeros((n, n)), np.zeros(n), 0.0)

    def evaluate_many(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=complex)
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

    def as_holomorphic(self) -> HolomorphicFunction:
        """Reinterpret over complex arguments (Q = -P)."""
        return HolomorphicFunction(
            self.n, [(self.poly, ExpQuadratic(-self.P, self.b, self.gamma))]
        )


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


def _expect_polynomial(poly: Polynomial, mean: np.ndarray, cov: np.ndarray) -> complex:
    """E[p(mean + u)] for u centered Gaussian with (complex symmetric) covariance."""
    memo: dict = {}
    total = 0.0 + 0.0j
    for alpha, coeff in poly.terms.items():
        ranges = [range(a + 1) for a in alpha]
        acc = 0.0 + 0.0j
        for beta in _iter_multi(ranges):
            comb = 1.0
            meanpow = 1.0 + 0.0j
            for j, (a, bj) in enumerate(zip(alpha, beta)):
                comb *= math.comb(a, bj)
                if a - bj:
                    meanpow *= mean[j] ** (a - bj)
            mom = _gaussian_moment(cov, tuple(beta), memo)
            if mom != 0:
                acc += comb * meanpow * mom
        total += coeff * acc
    return total


def _iter_multi(ranges):
    if not ranges:
        yield ()
        return
    for head in ranges[0]:
        for tail in _iter_multi(ranges[1:]):
            yield (head,) + tail


def gaussian_integral(poly: Polynomial, Q: np.ndarray, b, gamma: complex = 0.0) -> complex:
    """Integral over R^n of p(y) exp(-y.Qy/2 + b.y + gamma) dy.

    Q must have SPD real part; the polynomial factor is handled by Wick
    moments of covariance Q^{-1} around the stationary point Q^{-1} b.
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
    if poly.terms == {(0,) * n: 1.0 + 0.0j}:
        return base
    cov = np.linalg.inv(Q)
    return base * _expect_polynomial(poly, mean, cov)


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
    Qinv = np.linalg.inv(Q)
    Qinv = _sym(Qinv)
    scale = prefactor * (2.0 * np.pi) ** (n / 2.0) * _sqrt_det_inv(Q)

    P_new = _sym(G - G @ Qinv @ G)
    b_new = G @ (Qinv @ h.b)
    gamma_new = h.gamma + 0.5 * np.dot(h.b, Qinv @ h.b)

    lin = Qinv @ G  # x0(z) = lin @ z + Qinv @ b
    c0 = Qinv @ h.b
    lines = [Polynomial.linear(lin[j, :], c0[j]) for j in range(n)]

    memo: dict = {}
    poly_new = Polynomial(n, {})
    for alpha, coeff in h.poly.terms.items():
        ranges = [range(a + 1) for a in alpha]
        for beta in _iter_multi(ranges):
            mom = _gaussian_moment(Qinv, tuple(beta), memo)
            if mom == 0:
                continue
            comb = 1.0
            for a, bj in zip(alpha, beta):
                comb *= math.comb(a, bj)
            piece = Polynomial.constant(n, coeff * comb * mom)
            for j, (a, bj) in enumerate(zip(alpha, beta)):
                if a - bj:
                    piece = piece * lines[j].power(a - bj)
            poly_new = poly_new + piece
    return GaussPoly(poly_new * scale, P_new, b_new, gamma_new)
