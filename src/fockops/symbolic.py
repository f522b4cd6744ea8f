"""Closed-form calculus for polynomial-times-Gaussian functions.

One term type carries the whole closed class:

* :class:`Polynomial`: one read-only dense coefficient array, evaluated
  and composed with affine maps by nested Horner.

* :class:`GaussPoly`: ``p(x) * exp(-x.Px/2 + b.x + g)`` with ``p`` a
  :class:`Polynomial` and ``P`` complex symmetric; ``x.Px`` is the
  symmetric bilinear form (no conjugation), and evaluation at complex
  arguments is the analytic continuation.  The same term is an element
  of L^2 on the real subspace and, read as a function of a complex
  argument, an element of a Fock space: the kernel sections, the unitary
  onto the classical space and every Segal-Bargmann image are single
  terms.  Terms are closed under products, composition with linear maps,
  argument shifts and Gaussian convolution, which is exactly what every
  transform in this package produces.

Gaussian integrals and convolutions are evaluated by completing the
square; the polynomial factor is averaged against the centred Gaussian
of covariance ``C = Q^{-1}`` by the heat operator ``exp(½ ∂·C∂)``
(:func:`_smoothed`), whose series ends after half the degree (the Wick
sums, term by term).  Complex symmetric quadratic forms with
positive-definite real part keep their eigenvalues in the right half
plane, so the principal branch of ``det^{-1/2}`` used here is the
analytic continuation of the real SPD formula.

Real terms at real points are evaluated in float64 with the same bits:
at a float array of points (the quadrature routes pass one) the Horner
scheme of real coefficients, and the exponent of real ``P``, ``b`` and
``gamma``, run on float64 arrays, decided once when a term is built.  A
complex product with zero imaginary parts rounds its real part once, as
the real product does, so each value is that of the complex computation,
returned as complex128.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from types import MappingProxyType

import numpy as np

from .errors import ConfigError, DivergenceError, RangeOverflowError, UnsupportedFormError

__all__ = [
    "Polynomial",
    "GaussPoly",
    "HolomorphicFunction",
    "CallableField",
    "gaussian_integral",
    "integrate_gausspoly",
    "convolve_gaussian",
    "l2_inner_product",
    "check_rows",
    "bilinear_rows",
]

EXP_OVERFLOW = 700.0
LOG_FLOAT_MAX = math.log(np.finfo(float).max)
OVERFLOW_MESSAGE = "exponent {:.1f} exceeds the representable range"


def check_rows(expo, evaluate, size: int, message: str = OVERFLOW_MESSAGE) -> None:
    """Nothing if every row of a batch of ``size`` rows keeps its exponent
    (an array, or a scalar shared by every row) in range.  Otherwise
    RangeOverflowError for the batch: a row out of range carries its
    exponent, and ``evaluate(ok)`` gives the values at the rows in range
    (the mask ``ok``)."""
    if not np.any(np.real(expo) > EXP_OVERFLOW):
        return
    real = np.broadcast_to(np.real(expo), (size,))
    ok = ~(real > EXP_OVERFLOW)
    first = np.where(ok, np.nan, real)
    values = np.full(size, np.nan, dtype=complex)
    if ok.any():
        values[ok] = evaluate(ok)
    worst = float(np.nanmax(first))
    err = RangeOverflowError(message.format(worst), exponent=worst)
    err.exponents, err.values, err.template = first, values, message
    raise err


def bilinear_rows(X: np.ndarray, M: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """x.My for each row x of X and the same row y of Y, summed over the axes
    in a fixed order from elementwise products: a row's bits do not depend
    on the rest of the batch, as they do under a matrix product's blocking."""
    return sum(X[:, j] * sum(M[j, k] * Y[:, k] for k in range(M.shape[1]))
               for j in range(M.shape[0]))


def _as_complex_vector(v, n: int) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    if v.shape != (n,):
        raise UnsupportedFormError(f"expected a vector of length {n}, got {v.shape}")
    return v


def _sym(M: np.ndarray) -> np.ndarray:
    """The symmetric part of M, halved before the sum so no finite entry overflows."""
    return 0.5 * M + 0.5 * M.T


def _padded_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a + b for coefficient arrays of any shapes; adds into a if a covers b."""
    if any(sb > sa for sa, sb in zip(a.shape, b.shape)):
        a = _padded_add(np.zeros(np.maximum(a.shape, b.shape), np.result_type(a, b)), a)
    a[tuple(map(slice, b.shape))] += b
    return a


def _rows(X, real: bool) -> np.ndarray:
    """The points X as float64 if ``real`` and X has no complex dtype, else
    as complex128."""
    X = np.asarray(X)
    return X.astype(float if real and not np.iscomplexobj(X) else complex, copy=False)


def _horner(c: np.ndarray, columns: list):
    """sum_a c[a] prod_j columns[j]**a_j by nested Horner along the first
    axis, skipping all-zero slabs: a scalar or a fresh (m,) array, real
    for real c and real columns."""
    leaf, acc = c.ndim == 1, 0j if np.iscomplexobj(c) else 0.0
    for slab in (c.tolist() if leaf else c)[::-1]:  # Python scalars on the last axis
        # numpy rounds a one-element in-place complex product differently from
        # the same product in a longer array, so a one-row batch (and the
        # first scaling of a scalar) multiplies out of place
        if isinstance(acc, np.ndarray) and acc.size > 1:
            acc *= columns[0]
        elif isinstance(acc, np.ndarray) or acc:  # nothing to scale before the first term
            acc = acc * columns[0]
        if slab if leaf else slab.any():
            acc += slab if leaf else _horner(slab, columns[1:])  # in place once an array
    return acc


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of coefficient arrays: a shifted-slice add per nonzero entry of
    the sparser one."""
    a, b = sorted((a, b), key=np.count_nonzero)
    out = np.zeros(np.add(a.shape, b.shape) - 1, dtype=complex)
    for alpha in np.argwhere(a):
        out[tuple(map(slice, alpha, alpha + b.shape))] += a[tuple(alpha)] * b
    return out


def _compose(c: np.ndarray, lines: list) -> np.ndarray:
    """Coefficients of q(L_1(w), ..., L_n(w)) for the linear forms ``lines``,
    where c holds q's coefficients in the last c.ndim of them: nested Horner,
    one product with a linear form per step."""
    n = len(lines)
    acc = np.zeros((1,) * n, dtype=complex)
    for slab in c[::-1]:
        if acc.any():
            acc = _mul(acc, lines[n - c.ndim])
        if slab.any():
            acc = _padded_add(acc, np.reshape(slab, (1,) * n) if c.ndim == 1
                              else _compose(slab, lines))
    return acc


class Polynomial:
    """Polynomial in n complex variables: ``coeffs[a_1, ..., a_n]``, a read-only
    complex array cut to the largest power of each variable present, is the
    coefficient of x_1^a_1 ... x_n^a_n; ``terms`` views the nonzero ones.
    ``_real`` is the real part of ``coeffs`` when it is all there is, else None."""

    __slots__ = ("n", "coeffs", "_real")

    def __init__(self, n: int, terms: dict | None = None):
        n = int(n)
        items = [(tuple(int(a) for a in alpha), complex(c)) for alpha, c in (terms or {}).items()]
        for alpha, _ in items:
            if len(alpha) != n or any(a < 0 for a in alpha):
                raise UnsupportedFormError(f"bad multi-index {alpha} for n={n}")
        c = np.zeros(np.max([a for a, _ in items], 0) + 1 if items else (1,) * n, complex)
        for alpha, coeff in items:
            c[alpha] += coeff
        built = Polynomial.from_coeffs(c)
        self.n, self.coeffs, self._real = n, built.coeffs, built._real

    @classmethod
    def from_coeffs(cls, coeffs) -> "Polynomial":
        """The polynomial with the dense coefficient array ``coeffs``."""
        out, c = cls.__new__(cls), np.asarray(coeffs, dtype=complex)
        out.coeffs = c[tuple(slice(ix.max() + 1 if ix.size else 1) for ix in np.nonzero(c))].copy()
        out.coeffs.flags.writeable, out.n = False, c.ndim
        out._real = None if out.coeffs.imag.any() else out.coeffs.real
        return out

    @classmethod
    def constant(cls, n: int, value: complex) -> "Polynomial":
        return cls(n, {(0,) * n: value})

    @classmethod
    def monomial(cls, n: int, alpha, coeff: complex = 1.0) -> "Polynomial":
        return cls(n, {tuple(alpha): coeff})

    @property
    def terms(self) -> MappingProxyType:
        c = self.coeffs
        return MappingProxyType({tuple(map(int, a)): complex(c[tuple(a)]) for a in np.argwhere(c)})

    def degree(self) -> int:
        return int(sum(np.nonzero(self.coeffs)).max(initial=0))

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial.from_coeffs(_padded_add(self.coeffs.copy(), other.coeffs))

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return Polynomial.from_coeffs(self.coeffs * complex(other))
        return Polynomial.from_coeffs(_mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def evaluate(self, z) -> complex:
        return complex(self.evaluate_many(np.asarray(z, dtype=complex)[None, :])[0])

    def evaluate_many(self, Z: np.ndarray) -> np.ndarray:
        """p at the rows of Z, as complex values; real coefficients at real
        rows run in float64, with the real parts of the complex run."""
        Z = _rows(Z, self._real is not None)
        c = self.coeffs if np.iscomplexobj(Z) else self._real
        out = _horner(c, [Z[:, j] for j in range(self.n)])
        return np.full(Z.shape[0], out, dtype=complex) if np.ndim(out) == 0 \
            else out.astype(complex, copy=False)

    def compose_affine(self, M: np.ndarray | None, d=None) -> "Polynomial":
        """The polynomial w -> p(M w + d)."""
        n, unit = self.n, np.eye(self.n, dtype=int)
        M = unit if M is None else np.asarray(M, dtype=complex)
        d = np.zeros(n) if d is None else _as_complex_vector(d, n)
        lines = [Polynomial(n, {(0,) * n: d[j], **dict(zip(map(tuple, unit), M[j]))}).coeffs
                 for j in range(n)]
        return Polynomial.from_coeffs(_compose(self.coeffs, lines))


@dataclass(frozen=True, eq=False)
class GaussPoly:
    """p(x) * exp(-x.Px/2 + b.x + gamma), the one function type: a term of
    L^2 on the real subspace and, at complex arguments, a Fock-space element.

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
        # the exponent's data in float64 when it has no imaginary parts
        real = not (P.imag.any() or b.imag.any() or self.gamma.imag)
        object.__setattr__(self, "_real_exponent",
                           (P.real, b.real, self.gamma.real) if real else None)

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
    def from_polynomial(cls, poly: Polynomial) -> "GaussPoly":
        """The polynomial as a term with a trivial Gaussian part."""
        n = poly.n
        return cls(poly, np.zeros((n, n)), np.zeros(n), 0.0)

    @classmethod
    def constant(cls, n: int, value: complex) -> "GaussPoly":
        return cls.from_polynomial(Polynomial.constant(n, value))

    @classmethod
    def monomial(cls, n: int, alpha, coeff: complex = 1.0) -> "GaussPoly":
        return cls.from_polynomial(Polynomial.monomial(n, alpha, coeff))

    def exponent_many(self, X: np.ndarray):
        """-x.Px/2 + b.x + gamma at each row of X, row by row; gamma itself
        for a pure polynomial; a float64 array for real P, b and gamma at
        real rows."""
        if not self.P.any() and not self.b.any():
            return self.gamma
        X = _rows(X, self._real_exponent is not None)
        P, b, gamma = (self.P, self.b, self.gamma) if np.iscomplexobj(X) else self._real_exponent
        linear = sum(b[j] * X[:, j] for j in range(self.n))
        return -0.5 * bilinear_rows(X, P, X) + linear + gamma

    def evaluate_many(self, X: np.ndarray) -> np.ndarray:
        """The term at the rows of X, each row with the bits of a one-row
        call; rows out of range are those of the RangeOverflowError raised.
        A zero polynomial is zero everywhere, its exponent unread."""
        X = np.asarray(X)
        out = np.zeros(X.shape[0], dtype=complex)
        if self.poly.is_zero():
            return out
        expo = self.exponent_many(X)
        check_rows(expo, lambda ok: self.evaluate_many(X[ok]), X.shape[0])
        # summed into zeros, so a value of -0 reads +0, the bits reports carry;
        # exp of a real exponent is taken in complex, as numpy's real exp can
        # differ from it in the last bit
        out += self.poly.evaluate_many(X) * np.exp(np.asarray(expo, dtype=complex))
        return out

    def evaluate(self, x) -> complex:
        return complex(self.evaluate_many(np.asarray(x, dtype=complex)[None, :])[0])

    def conjugated(self) -> "GaussPoly":
        """Complex conjugate as a function on real arguments."""
        return GaussPoly(
            Polynomial.from_coeffs(np.conj(self.poly.coeffs)),
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
            self.poly.compose_affine(None, d),
            self.P,
            self.b - self.P @ d,
            self.gamma - 0.5 * np.dot(d, self.P @ d) + np.dot(self.b, d),
        )

    def as_polynomial(self, tol: float = 1e-12) -> Polynomial:
        """Collapse to a plain polynomial; the exponential part must be
        trivial up to ``tol`` (its residual scalar is folded in)."""
        if self.poly.is_zero():
            return self.poly
        worst = max(
            float(np.max(np.abs(self.P), initial=0.0)),
            float(np.max(np.abs(self.b), initial=0.0)),
        )
        if worst > tol:
            raise UnsupportedFormError(
                f"exponential part deviates from trivial by {worst:.2e} (> {tol})"
            )
        return self.poly * complex(np.exp(self.gamma))

    def as_holomorphic(self) -> "GaussPoly":
        """The term itself.  Kept only because the benchmark's timed ladder
        (``perfbench/child.py``) calls it."""
        return self


# Kept only because the benchmark's tracer and layer rows (``perfbench/``)
# name it: a Fock-space function is a GaussPoly.
HolomorphicFunction = GaussPoly


@dataclass(frozen=True)
class CallableField:
    """Black-box evaluator on the real subspace, for quadrature-only paths."""

    n: int
    fn: object  # vectorized: (m, n) real array -> (m,) complex array

    def evaluate_many(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(X, dtype=float)), dtype=complex)


def _require_decaying(Q: np.ndarray, what: str) -> None:
    """Nothing if Q's real part is positive definite.  A Q whose Frobenius
    norm (a scaled sum, as ``hypot`` takes it) overflows is refused as beyond
    the float range before its eigenvalues, which would round a
    positive-definite Q to a singular one."""
    with np.errstate(over="ignore"):
        if not math.isfinite(math.hypot(*np.abs(Q).ravel())):
            raise ConfigError(f"{what}: quadratic form is beyond the float range "
                              "(its Frobenius norm overflows)")
    min_eig = float(np.linalg.eigvalsh(0.5 * Q.real + 0.5 * Q.real.T)[0])
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


def _derivative(c: np.ndarray, axis: int) -> np.ndarray:
    """d/dy_axis of a coefficient array: numpy's ``polyder`` along ``axis``
    as one product in place of its Python loop over the degree.  It scales
    by 1 first, as ``polyder`` does, which fixes the signs of zero
    coefficients, and a constant axis keeps one zero row."""
    c = np.moveaxis(c, axis, 0)
    if len(c) == 1:
        return np.moveaxis(c * 0, 0, axis)
    powers = np.arange(1, len(c)).reshape((-1,) + (1,) * (c.ndim - 1))
    return np.moveaxis(c[1:] * 1 * powers, 0, axis)


def _require_smoothable(poly: Polynomial, cov: np.ndarray) -> None:
    """Refuse a one-term p = c y^alpha whose smoothing has a coefficient past
    twice the largest float, which makes every value of the result non-finite:
    the series puts one term, c alpha_i!/(k!(alpha_i - 2k)!) (cov_ii/2)^k, at
    y^(alpha - 2k e_i), so its size is known before the series runs."""
    terms = np.argwhere(poly.coeffs)
    if len(terms) != 1:
        return
    log_c = math.log(abs(poly.coeffs[tuple(terms[0])]))
    for i, a in enumerate(terms[0].tolist()):
        k, var = np.arange(1.0, a // 2 + 1), abs(cov[i, i])
        top = np.cumsum(np.log((a - 2 * k + 2) * (a - 2 * k + 1) * var / (2 * k))).max(initial=0.0)
        if log_c + top > LOG_FLOAT_MAX + math.log(2.0):
            raise ConfigError(f"smoothing y_{i + 1}^{a} by a Gaussian of variance {var:.3g} "
                              f"gives a coefficient near 1e{(log_c + top) / math.log(10.0):.0f}, "
                              f"past the largest float, {np.finfo(float).max:.3g}")


def _smoothed(poly: Polynomial, cov: np.ndarray) -> Polynomial:
    """y -> E[p(y + u)], u centred Gaussian of complex symmetric covariance
    cov: the heat operator exp(d.cov d / 2) p, a series ending at half the degree.
    Its terms can dwarf their sum (Hermite p): it runs in long double, rounded once."""
    _require_smoothable(poly, cov)
    term = out = poly.coeffs.astype(np.clongdouble)
    cov, axes = np.asarray(cov).astype(np.clongdouble), range(poly.n)
    for k in range(1, poly.degree() // 2 + 1):
        term = reduce(_padded_add, [cov[i, j] / (2 * k) * _derivative(_derivative(term, i), j)
                                    for i in axes for j in axes])
        out = _padded_add(out, term)
    return Polynomial.from_coeffs(out.astype(complex))


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
