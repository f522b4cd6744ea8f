"""Closed-form calculus for polynomial-times-Gaussian functions.

One term type carries the whole closed class:

* :class:`Polynomial`: one read-only dense coefficient array, whose zeros
  are +0, evaluated and composed with affine maps by nested Horner.  A
  block of coefficients times rows within a budget (256 KiB complex), or
  any block at no more than 64 rows, is evaluated one axis at a time,
  every line of the axis in one product and one sum per power: few rows,
  as at a point, would otherwise pay a Python call per coefficient slab.
  A larger block at more rows, a quadrature chunk, goes slab by slab,
  skipping all-zero slabs, as arithmetic on every line would cost more
  there.  The bits are the same either way (:func:`_horner`).  A
  composition is nested Horner one axis at a time too, the lines of an
  axis in one batch, each with the bits of its own Horner scheme
  (:func:`_compose`).

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
(:func:`_smoothed`) over the nonzero entries of ``C``, whose series ends
after half the degree (the Wick sums, term by term).  Complex symmetric
quadratic forms with positive-definite real part keep their eigenvalues in
the right half plane, so the principal branch of ``det^{-1/2}`` used here
is the analytic continuation of the real SPD formula.  One function,
:func:`gaussian_log_det`, checks that a Gaussian decays and returns the
``log det`` on that branch: the heat kernels of ``transforms`` and a
quadrature rule's mass take their ``det^{-1/2}`` from it, and one more,
:func:`complete_square`, gives every closed Gaussian integral its mass, its
covariance (the one inverse of ``Q``) and its centre ``C b``: the integrals
and convolutions here and the kernel's density integral in ``transforms``.

Real terms at real points are evaluated in float64 with the same bits:
at a float array of points (the quadrature routes pass one) the Horner
scheme of real coefficients, and the exponent of real ``P``, ``b`` and
``gamma``, run on float64 arrays, decided once when a term is built.  A
complex product with zero imaginary parts rounds its real part once, as
the real product does, so each value is that of the complex computation,
returned as complex128.

Four helpers hold the point functions' contract: :func:`pointwise`, the
one place a point becomes its one-row batch; :func:`require_rows`, the one
check that a batch in n variables is (m, n), one m for all batches of a
call; :func:`bilinear_rows`, the row sum whose bits do not depend on the
batch; and :func:`exp_rows`, the one guard of the float range for the
exponential of a quadratic form.  :func:`as_vector` is the one check that
a single vector argument (a shift, a linear term, a centre) has length n,
and :func:`as_matrix` that a matrix is n x n before any arithmetic reads it.
Any other shape is a DimensionMismatchError from one of these checks, and a
NaN or infinite entry of such a vector or matrix a ConfigError, as is one
that is not a number.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass
from functools import reduce, wraps
from types import MappingProxyType

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatchError,
    DivergenceError,
    RangeOverflowError,
    UnsupportedFormError,
)

__all__ = [
    "Polynomial",
    "GaussPoly",
    "HolomorphicFunction",
    "CallableField",
    "gaussian_integral",
    "integrate_gausspoly",
    "convolve_gaussian",
    "l2_inner_product",
    "exp_rows",
    "bilinear_rows",
    "pointwise",
    "require_rows",
    "as_vector",
    "as_matrix",
    "gaussian_log_det",
    "complete_square",
]

EXP_OVERFLOW = 700.0
LOG_FLOAT_MAX = math.log(np.finfo(float).max)
# coefficients times rows past which _horner evaluates a block slab by slab,
# 256 KiB of complex values
_HORNER_VALUES = 16_384


def exp_rows(expo, size: int):
    """``np.exp(expo)`` for a batch of ``size`` rows, the exponent an array
    or a scalar shared by every row, in the exponent's own dtype.  If any
    row's exponent is past EXP_OVERFLOW, RangeOverflowError for the batch
    instead, carrying the exponent of each row out of range."""
    real = np.real(expo)
    over = real > EXP_OVERFLOW
    if np.any(over):
        exponents = np.where(over, np.broadcast_to(real, (size,)), np.nan)
        err = RangeOverflowError.at(float(np.nanmax(exponents)))
        err.exponents = exponents
        raise err
    return np.exp(expo)


def bilinear_rows(X: np.ndarray, M: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """x.My for each row x of X and the same row y of Y, M one matrix or a
    stack of one per row, summed over the axes in a fixed order from
    elementwise products: a row's bits do not depend on the rest of the
    batch, as they do under a matrix product's blocking.  The outer product
    is a ufunc call: from 256 KiB numpy would run ``X[:, j] * temporary`` in
    place in the temporary, operands swapped, which rounds a complex product
    differently."""
    return sum(np.multiply(X[:, j], sum(M[..., j, k] * Y[:, k] for k in range(M.shape[-1])))
               for j in range(M.shape[-2]))


def pointwise(batch):
    """``batch(context, *args)``, written for (m, n) batches, also at one point.
    A call whose last argument is 1-D lifts each 1-D argument after the
    context to its one-row batch and returns row 0 as a Python float or
    complex, with the bits that row has in any batch; the context, any other
    argument (a field) and any call on a batch pass unchanged.  A row out of
    range raises RangeOverflowError for the whole batch (:func:`exp_rows`)."""
    @wraps(batch)
    def call(context, *args):
        if np.ndim(args[-1]) != 1:
            return batch(context, *args)
        rows = (np.asarray(a)[None] if np.ndim(a) == 1 else a for a in args)
        return batch(context, *rows)[0].item()
    return call


def require_rows(n: int, *batches: np.ndarray) -> None:
    """DimensionMismatchError unless every batch is (m, n) points, one m for
    all, naming the shape each batch has."""
    shape = batches[0].shape
    if len(shape) != 2 or shape[1] != n or any(X.shape != shape for X in batches[1:]):
        got = " and ".join(str(X.shape) for X in batches)
        raise DimensionMismatchError(f"points in {n} variables come in batches of shape "
                                     f"(m, {n}), one m for all; got {got}")


def as_vector(v, n: int, what: str, dtype=complex) -> np.ndarray:
    """``v`` as an array, of ``dtype`` unless that is None (:func:`_numeric`):
    DimensionMismatchError naming ``what`` and its shape unless that is (n,),
    then ConfigError unless its entries are finite (:func:`_finite`)."""
    v = _numeric(v, what, dtype)
    if v.shape != (n,):
        raise DimensionMismatchError(f"{what} must be a vector of shape ({n},), got {v.shape}")
    return _finite(v, what)


def as_matrix(M, n: int | None, what: str, dtype=complex) -> np.ndarray:
    """``M`` as an array of ``dtype`` (:func:`_numeric`): DimensionMismatchError
    naming ``what`` and its shape unless that is (n, n), or square of any size
    if n is None, then ConfigError unless its entries are finite
    (:func:`_finite`).  A caller checks before any arithmetic, which would
    broadcast a row."""
    M = _numeric(M, what, dtype)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or n not in (None, M.shape[0]):
        want = "a square matrix" if n is None else f"a matrix of shape ({n}, {n})"
        raise DimensionMismatchError(f"{what} must be {want}, got {M.shape}")
    return _finite(M, what)


def _numeric(a, what: str, dtype) -> np.ndarray:
    """``a`` as an array of ``dtype`` (its own if None), or ConfigError naming
    ``what`` unless that array holds numbers: a string, an object or a
    ragged nesting is refused here, not in numpy's ValueError or TypeError."""
    try:
        array = np.asarray(a, dtype=dtype)
    except (TypeError, ValueError):
        array = None
    if array is None or array.dtype.kind not in "biufc":
        raise ConfigError(f"{what} must be an array of numbers, got {reprlib.repr(a)}")
    return array


def _finite(a: np.ndarray, what: str) -> np.ndarray:
    """``a``, or ConfigError naming ``what`` and showing ``a`` if an entry is
    NaN or infinite, before it can pass for an asymmetric or indefinite
    matrix or build a term of NaNs."""
    if not np.isfinite(a).all():
        raise ConfigError(f"{what} must be finite, got "
                          f"{np.array2string(a, threshold=8, separator=', ')}")
    return a


def _require_same_n(n: int, m: int) -> None:
    if n != m:
        raise DimensionMismatchError(f"polynomials in {n} and {m} variables do not combine")


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
    """sum_a c[a] prod_j columns[j]**a_j by nested Horner: a scalar or a
    fresh (m,) array, real for real c and real columns.  Along an axis, a
    line of values v_0, ..., v_d starts from its highest nonzero term,
    0 + v_t, and then takes a product with the column and adds the next
    term at each lower power, leaving out the terms of all-zero slabs.

    The block's coefficients times the rows decide the order; the bits are
    the same.  Past _HORNER_VALUES, the first axis slab by slab, each slab
    again a block, skipping all-zero slabs, with in-place products on long
    rows.  A single axis takes this loop at any size, over Python-scalar
    coefficients: it is one axis at a time already, and cheaper than arrays.
    Within the budget, one axis at a time, last axis first, all lines of an
    axis at once: one product and one sum per power, on temporaries of the
    block's lines times the rows.  There a zero term adds -0, which changes
    no value, and a line is overwritten where it starts, 0 + v_t, except at
    the first axis taken when its column is finite and no coefficient has a
    part of -0: there the line's +-0 prefix plus v_t is v_t already.  Few
    rows, a point as the closed routes evaluate one, would pay a Python call
    per slab; many rows, a quadrature chunk, would pay for arithmetic on
    every zero line, in temporaries past a core's cache."""
    zero = 0j if np.iscomplexobj(c) else 0.0
    if c.ndim == 1 or c.size * len(columns[0]) > _HORNER_VALUES:
        leaf, acc = c.ndim == 1, zero
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
    nonzero = c != 0
    values, start_row = np.where(nonzero, c, -zero)[..., None], np.zeros(len(columns[0]), c.dtype)
    # At the first axis a line holds +-0 until its start, and +-0 + v_t is
    # v_t when no part of v_t is -0 (a stored coefficient's zeros are +0):
    # at a finite coordinate the start changes no bit.  At an infinite one
    # the line holds 0 * inf, a NaN (numpy warns of it), which the start
    # overwrites; at later axes v_t, a computed value, can be a zero whose
    # sign the start fixes.
    minus_zero = np.iscomplexobj(c) and (np.ascontiguousarray(c).view(np.uint64) == 1 << 63).any()
    first_starts = minus_zero or not np.isfinite(columns[-1]).all()
    for axis in reversed(range(c.ndim)):
        d = c.shape[axis]
        nonzero = nonzero.reshape(-1, d)
        values = values.reshape(nonzero.shape + values.shape[-1:])
        starts, x = (), columns[axis][None]
        if axis < c.ndim - 1 or first_starts:
            top = d - 1 - nonzero[:, ::-1].argmax(axis=1)  # an all-zero line reads d - 1
            starts = set(top.tolist())
        acc = values[:, -1] + start_row
        for j in range(d - 2, -1, -1):
            # numpy rounds a complex product differently with its operands
            # swapped, or with one element broadcast from another shape: the
            # accumulator comes first, and the column is a (1, m) row
            acc = np.multiply(acc, x)
            acc += values[:, j]
            if j in starts:
                start = top == j
                acc[start] = values[start, j] + start_row
        nonzero = nonzero.any(axis=1)
        if axis:  # an all-zero line is a zero term of the next axis
            acc[~nonzero] = -zero
        values = acc
    return values[0] if nonzero[0] else zero  # an all-zero block is the scalar zero


def _terms(c: np.ndarray) -> list:
    """The nonzero entries of a coefficient array, as (index, value) pairs in
    C order."""
    return [(alpha, c[alpha]) for alpha in map(tuple, np.argwhere(c).tolist())]


def _times_form(acc: np.ndarray, L: np.ndarray, L_terms: list) -> np.ndarray:
    """Each row of the batch ``acc`` times the coefficient array L, given L's
    :func:`_terms`: the product of two arrays is a shifted-slice add of each
    nonzero entry of the sparser one, the row on a tie, times the other
    array.  A row with at most as many nonzeros as L has, the tie included,
    is the scalar side: entry k of its product sums row[a] * L[k - a] over
    the row's nonzero entries a in C order, which is L's terms b = k - a in
    reverse C order, the row's entry the first operand.  Any other row sums
    L[b] * row[k - b] over L's terms in C order, L's entry first.  The two
    groups are taken apart, each term's shifted product added to a group at
    once.  A zero entry of the row adds only a signed zero, which changes no
    other value and which :meth:`Polynomial.from_coeffs` stores as +0.  In
    both groups each product pairs a nonzero entry of L with every entry of
    the row: an inf of L meets the row's zeros (a NaN), an inf of the row
    meets none of L's."""
    out = np.zeros((len(acc), *(a + b - 1 for a, b in zip(acc.shape[1:], L.shape))),
                   dtype=complex)
    few = np.count_nonzero(acc.reshape(len(acc), -1), axis=1) <= len(L_terms)
    for group, terms, acc_first in ((few, L_terms[::-1], True), (~few, L_terms, False)):
        if group.all():  # one group: no copies
            return _shifted_sums(out, acc, terms, acc_first)
        if group.any():
            out[group] = _shifted_sums(np.zeros_like(out[group]), acc[group], terms, acc_first)
    return out


def _shifted_sums(out, acc, terms, acc_first: bool):
    """out, with each row of acc times each term of a form added at the
    term's power, in the order of ``terms``."""
    for beta, value in terms:
        # numpy rounds a complex product differently with its operands swapped
        out[(slice(None), *(slice(b, b + s) for b, s in zip(beta, acc.shape[1:])))] += \
            acc * value if acc_first else value * acc
    return out


def _compose(c: np.ndarray, lines: list) -> np.ndarray:
    """Coefficients of q(L_1(w), ..., L_n(w)) for the linear forms ``lines``,
    each a coefficient array and its :func:`_terms`, read once by the caller,
    where c holds q's coefficients: nested Horner one axis at a time, last
    axis first.  The lines of an axis that hold a nonzero run together, each
    a row of one batch whose entries are coefficient arrays in w (at the last
    axis c's values, later the previous axis's results): one
    :func:`_times_form` with the axis's linear form and one add per power.
    Every line keeps the bits of its own Horner scheme of products.  A
    line that has not started holds zeros, whose products and sums only
    carry the sign of a zero; all-zero lines are not computed and read as
    zeros at the next axis."""
    n = c.ndim
    values = c.reshape(c.shape + (1,) * n)
    for axis in reversed(range(n)):
        box = values.shape[-n:]
        values = values.reshape((-1, c.shape[axis]) + box)
        live = values.reshape(len(values), -1).any(axis=1)
        if not live.any():  # q is zero
            return np.zeros((1,) * n, dtype=complex)
        part = values[live]
        acc = part[:, -1]
        for j in range(c.shape[axis] - 2, -1, -1):
            acc = _times_form(acc, *lines[axis])
            acc[(slice(None), *map(slice, box))] += part[:, j]
        values = np.zeros((len(values),) + acc.shape[1:], dtype=complex)
        values[live] = acc
    return values[0]


class Polynomial:
    """Polynomial in n complex variables: ``coeffs[a_1, ..., a_n]``, a read-only
    complex array cut to the largest power of each variable present, is the
    coefficient of x_1^a_1 ... x_n^a_n; ``terms`` views the nonzero ones.  Its
    zeros, in either part, are +0: only :meth:`from_coeffs` stores the array.
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
        """The polynomial with the dense coefficient array ``coeffs``; + 0.0
        makes each -0 a +0 and keeps the bits of every other value."""
        out, c = cls.__new__(cls), np.asarray(coeffs, dtype=complex)
        out.coeffs = c[tuple(slice(ix.max() + 1 if ix.size else 1) for ix in np.nonzero(c))] + 0.0
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
        _require_same_n(self.n, other.n)
        return Polynomial.from_coeffs(_padded_add(self.coeffs.copy(), other.coeffs))

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return Polynomial.from_coeffs(self.coeffs * complex(other))
        _require_same_n(self.n, other.n)
        return Polynomial.from_coeffs(
            _times_form(self.coeffs[None], other.coeffs, _terms(other.coeffs))[0])

    __rmul__ = __mul__

    def evaluate(self, z) -> complex:
        return complex(self.evaluate_many(np.asarray(z, dtype=complex)[None, :])[0])

    def evaluate_many(self, Z: np.ndarray) -> np.ndarray:
        """p at the rows of Z, (m, n) points (DimensionMismatchError for any
        other shape), as complex values; real coefficients at real
        rows run in float64, with the real parts of the complex run, on
        contiguous copies of the columns (a copy did not pay for complex)."""
        Z = _rows(Z, self._real is not None)
        require_rows(self.n, Z)
        if np.iscomplexobj(Z):
            c, columns = self.coeffs, Z.T
        else:
            c, columns = self._real, np.ascontiguousarray(Z.T)
        out = _horner(c, list(columns))
        return np.full(Z.shape[0], out, dtype=complex) if np.ndim(out) == 0 \
            else out.astype(complex, copy=False)

    def compose_affine(self, M: np.ndarray | None, d=None) -> "Polynomial":
        """The polynomial w -> p(M w + d), M an n x n matrix (the identity if
        None) and d a vector of length n (zero if None)."""
        n, unit = self.n, np.eye(self.n, dtype=int)
        M = unit if M is None else as_matrix(M, n, "M")
        d = np.zeros(n) if d is None else as_vector(d, n, "d")
        lines = [Polynomial(n, {(0,) * n: d[j], **dict(zip(map(tuple, unit), M[j]))}).coeffs
                 for j in range(n)]
        return Polynomial.from_coeffs(_compose(self.coeffs, [(L, _terms(L)) for L in lines]))


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
        n = self.poly.n
        P, b = _sym(as_matrix(self.P, n, "P")), as_vector(self.b, n, "b")
        P.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "gamma", complex(self.gamma))
        # the exponent's data in float64 when it has no imaginary parts
        real = not (P.imag.any() or b.imag.any() or self.gamma.imag)
        object.__setattr__(self, "_real_exponent",
                           (P.real, b.real, self.gamma.real) if real else None)
        # a constant exponent's factor exp(gamma), taken once for a finite
        # gamma in range; past EXP_OVERFLOW evaluation raises, as exp_rows does
        constant = (not (P.any() or b.any()) and np.isfinite(self.gamma)
                    and self.gamma.real <= EXP_OVERFLOW)
        object.__setattr__(self, "_constant_factor",
                           np.exp(np.asarray(self.gamma, dtype=complex)) if constant else None)

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
        real rows.

        The sums of :func:`bilinear_rows` and of b.x leave out the products
        with zero entries of P and b: a Hermite field, P = I and b = 0, takes
        n products with their entries where it took n^2 + n.  A sum starts
        from the integer 0, so it never holds -0, and a product with a zero
        entry is a zero that changes no such sum: at a finite row the bits
        are those of every product.  A row that is inf or NaN only in
        variables the exponent does not read gets the finite exponent of the
        others, as no product 0 * inf is taken (the CLI refuses non-finite
        rows before evaluation).  X must be (m, n) points,
        DimensionMismatchError for any other shape."""
        X = np.asarray(X)
        require_rows(self.n, X)
        if not self.P.any() and not self.b.any():
            return self.gamma
        X = _rows(X, self._real_exponent is not None)
        P, b, gamma = (self.P, self.b, self.gamma) if np.iscomplexobj(X) else self._real_exponent
        linear = sum(b[j] * X[:, j] for j in np.flatnonzero(b).tolist())
        # np.multiply for the reason bilinear_rows gives
        quadratic = sum(np.multiply(X[:, j], sum(P[j, k] * X[:, k] for k in ks))
                        for j, ks in enumerate(map(np.flatnonzero, P)) if ks.size)
        return -0.5 * quadratic + linear + gamma

    def evaluate_many(self, X: np.ndarray) -> np.ndarray:
        """The term at the rows of X, (m, n) points (DimensionMismatchError for
        any other shape), each finite row with the bits of a
        one-row call (a NaN result may differ in its sign bit); a row out of
        range raises RangeOverflowError for the batch.  Each value is the
        polynomial's times the exponential, plus 0.0 in place, so a -0 reads
        +0 and every other value keeps its bits.
        A zero polynomial is zero everywhere, its exponent unread.  With
        P = 0 and b = 0 the exponential is the scalar exp(gamma) taken when
        the term was built, the bits of taking it per call; a gamma whose
        real part is past EXP_OVERFLOW raises RangeOverflowError here.
        Values are not checked for finiteness: the quadrature reduction
        reads it from its block sums and names a non-finite value's node,
        and a finite value past what a block sum can hold gives that sum's
        inf with numpy's overflow warning."""
        X = np.asarray(X)
        require_rows(self.n, X)
        if self.poly.is_zero():
            return np.zeros(X.shape[0], dtype=complex)
        gauss = self._constant_factor
        if gauss is None:
            # exp of a real exponent is taken in complex, as numpy's real exp
            # can differ from it in the last bit
            gauss = exp_rows(np.asarray(self.exponent_many(X), dtype=complex), X.shape[0])
        out = self.poly.evaluate_many(X) * gauss
        out += 0.0  # -0 reads +0, the bits reports carry
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
        """The function x -> f(M x): M must be n x n, which
        :meth:`Polynomial.compose_affine` checks before any product."""
        M = np.asarray(M, dtype=complex)
        return GaussPoly(self.poly.compose_affine(M), M.T @ self.P @ M, M.T @ self.b, self.gamma)

    def shifted(self, d) -> "GaussPoly":
        """The function x -> f(x + d)."""
        d = as_vector(d, self.n, "d")
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


def gaussian_log_det(Q: np.ndarray, what: str):
    """log det Q on the branch continuous from real SPD matrices, once Q is
    checked to be the quadratic form of a decaying Gaussian: its real part
    positive definite.  The one positivity check and the one determinant of
    a Gaussian's normaliser ``(2 pi)^{n/2} det(Q)^{-1/2}``.

    A Q whose Frobenius norm (a scaled sum, as ``hypot`` takes it) overflows
    is a ConfigError, beyond the float range, before its eigenvalues, which
    would round a positive-definite Q to a singular one; a Q whose real part
    is not positive definite a DivergenceError naming ``what`` and its
    smallest eigenvalue.  The eigenvalues of a complex symmetric Q with SPD
    real part stay in the open right half plane, so the principal logarithm
    of each is the analytic continuation; a real Q sums the logarithms of
    the eigenvalues its check found."""
    with np.errstate(over="ignore"):
        if not math.isfinite(math.hypot(*np.abs(Q).ravel())):
            raise ConfigError(f"{what}: quadratic form is beyond the float range "
                              "(its Frobenius norm overflows)")
    eig = np.linalg.eigvalsh(0.5 * Q.real + 0.5 * Q.real.T)
    if (min_eig := float(eig[0])) <= 0.0:
        raise DivergenceError(
            f"{what}: quadratic form has non-positive real part "
            f"(min eigenvalue {min_eig:.3e}); the integral diverges"
        )
    return np.sum(np.log(np.linalg.eigvals(Q) if np.iscomplexobj(Q) else eig))


def _derivative(c: np.ndarray, axis: int) -> np.ndarray:
    """d/dy_axis of a coefficient array: numpy's ``polyder`` along ``axis``
    as one product in place of its Python loop over the degree.  It scales
    by 1 first, as ``polyder`` does, which fixes the signs of zero
    coefficients, and a constant axis keeps one zero row."""
    if c.shape[axis] == 1:
        return c * 0
    powers = np.arange(1, c.shape[axis]).reshape((-1,) + (1,) * (c.ndim - 1 - axis))
    return c[(slice(None),) * axis + (slice(1, None),)] * 1 * powers


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
        with np.errstate(divide="ignore"):  # a zero variance: log 0 = -inf, no growth
            top = np.cumsum(np.log((a - 2 * k + 2) * (a - 2 * k + 1) * var / (2 * k))).max(
                initial=0.0)
        if log_c + top > LOG_FLOAT_MAX + math.log(2.0):
            raise ConfigError(f"smoothing y_{i + 1}^{a} by a Gaussian of variance {var:.3g} "
                              f"gives a coefficient near 1e{(log_c + top) / math.log(10.0):.0f}, "
                              f"past the largest float, {np.finfo(float).max:.3g}")


def _smoothed(poly: Polynomial, cov: np.ndarray) -> Polynomial:
    """y -> E[p(y + u)], u centred Gaussian of complex symmetric covariance
    cov: the heat operator exp(d.cov d / 2) p, a series ending at half the degree.
    Its terms can dwarf their sum (Hermite p): it runs in long double, rounded once.

    Each step sums, in order, the pairs (i, j) of axes with a nonzero cov
    entry (a diagonal cov keeps n of n^2); with none, p is its own result.
    A zero pair adds zeros, which change only the sign of a zero sum, and a
    Polynomial stores every zero as +0: the bits are those of every pair's sum."""
    _require_smoothable(poly, cov)
    cov = np.asarray(cov).astype(np.clongdouble)
    pairs = [(i, j) for i in range(poly.n) for j in range(poly.n) if cov[i, j] != 0]
    if not pairs:
        return poly
    term = out = poly.coeffs.astype(np.clongdouble)
    for k in range(1, poly.degree() // 2 + 1):
        firsts = {i: _derivative(term, i) for i in {i for i, _ in pairs}}
        term = reduce(_padded_add, [cov[i, j] / (2 * k) * _derivative(firsts[i], j)
                                    for i, j in pairs])
        out = _padded_add(out, term)
    return Polynomial.from_coeffs(out.astype(complex))


def complete_square(poly: Polynomial, Q: np.ndarray, b: np.ndarray, what: str):
    """The completed square of p(y) exp(-y.Qy/2 + b.y), Q complex symmetric
    and b a vector of length n: the Lebesgue mass (2 pi)^{n/2} det(Q)^{-1/2},
    the covariance C = Q^{-1}, the centre c = C b and p smoothed by C, so that
    the term is mass * exp(b.c/2) times the mean of p(c + u), u ~ N(0, C).

    Q passes the one positivity check (:func:`gaussian_log_det`) first; C is
    the one factorization of Q, and a C beyond the float range (a Q with a
    subnormal eigenvalue) is a ConfigError naming ``what``."""
    log_det = gaussian_log_det(Q, what)
    with np.errstate(all="ignore"):  # a C beyond the float range is refused below
        C = _sym(np.linalg.inv(Q))
    if not np.isfinite(C).all():
        raise ConfigError(f"{what}: the covariance Q^-1 is beyond the float range")
    mass = (2.0 * np.pi) ** (len(Q) / 2.0) * complex(np.exp(-0.5 * log_det))
    return mass, C, C @ b, _smoothed(poly, C)


def gaussian_integral(poly: Polynomial, Q: np.ndarray, b, gamma: complex = 0.0) -> complex:
    """Integral over R^n of p(y) exp(-y.Qy/2 + b.y + gamma) dy.

    Q must have SPD real part; the polynomial factor is averaged with
    covariance Q^{-1} around the stationary point Q^{-1} b
    (:func:`complete_square`).
    """
    Q, b = _sym(as_matrix(Q, poly.n, "Q")), as_vector(b, poly.n, "b")
    mass, _, centre, smoothed = complete_square(poly, Q, b, "gaussian integral")
    return complex(np.exp(gamma + 0.5 * np.dot(b, centre))) * mass * smoothed.evaluate(centre)


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
    G = _sym(as_matrix(G, h.n, "G"))
    mass, C, c0, smoothed = complete_square(h.poly, G + h.P, h.b, "gaussian convolution")
    P_new = _sym(G - G @ C @ G)
    gamma_new = h.gamma + 0.5 * np.dot(h.b, c0)
    # h's polynomial averaged around the stationary point x0(z) = C G z + c0
    poly_new = smoothed.compose_affine(C @ G, c0)
    return GaussPoly(poly_new * (prefactor * mass), P_new, G @ c0, gamma_new)
