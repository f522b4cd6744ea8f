"""Fast paths against the code they replaced, kept here verbatim: the sparse
Gaussian exponent, the in-place +0 of a term's values, the composition one
axis at a time, the few-row evaluation without the start overwrites that
change no bit, the column-wise grid shift, both Horner paths at any row
count, the constant exponent taken once, a rule's Lebesgue mass in place of
the constant of each integral, and the grid reduction that reads
finiteness from its block sums and weights its own products in place all
keep every bit of the old results, and every error of the old checks."""

import itertools
import logging
import math
import sys
from collections import Counter, defaultdict

import numpy as np
import pytest

from fockops import (
    EvaluatorError,
    GaussPoly,
    Polynomial,
    QuadratureRule,
    RangeOverflowError,
    RealLinearMap,
    build_context,
    classical_to_weighted,
    fock_gram,
    fock_rule,
    hermite_function,
    integrate,
    integrate_shifted,
    kernel_section,
    normalized_monomial,
    segal_bargmann_fn,
    symbolic,
)
from fockops.operators import to_complex_coords
from fockops.quadrature import (
    BLOCK,
    CHUNK,
    _real_vector,
    _require_finite,
    _tensor_phase,
    _unit_grid,
)
from fockops.symbolic import (
    _HORNER_VALUES,
    _horner,
    _padded_add,
    _rows,
    _terms,
    _times_form,
    as_vector,
    bilinear_rows,
    exp_rows,
)

from conftest import same_bits

# -- the replaced code, verbatim ----------------------------------------------


def old_exponent_many(self, X):
    if not self.P.any() and not self.b.any():
        return self.gamma
    X = _rows(X, self._real_exponent is not None)
    P, b, gamma = (self.P, self.b, self.gamma) if np.iscomplexobj(X) else self._real_exponent
    linear = sum(b[j] * X[:, j] for j in range(self.n))
    return -0.5 * bilinear_rows(X, P, X) + linear + gamma


def old_evaluate_many(self, X):
    X = np.asarray(X)
    out = np.zeros(X.shape[0], dtype=complex)
    if self.poly.is_zero():
        return out
    gauss = exp_rows(np.asarray(old_exponent_many(self, X), dtype=complex), X.shape[0])
    out += self.poly.evaluate_many(X) * gauss
    return out


def old_mul(a, b):
    a, b = sorted((a, b), key=np.count_nonzero)
    out = np.zeros(np.add(a.shape, b.shape) - 1, dtype=complex)
    for alpha in np.argwhere(a):
        out[tuple(map(slice, alpha, alpha + b.shape))] += a[tuple(alpha)] * b
    return out


def old_compose(c, lines):
    n = len(lines)
    acc = np.zeros((1,) * n, dtype=complex)
    for slab in c[::-1]:
        if acc.any():
            acc = old_mul(acc, lines[n - c.ndim])
        if slab.any():
            acc = _padded_add(acc, np.reshape(slab, (1,) * n) if c.ndim == 1
                              else old_compose(slab, lines))
    return acc


def old_compose_affine(self, M, d=None):
    n, unit = self.n, np.eye(self.n, dtype=int)
    M = unit if M is None else np.asarray(M, dtype=complex)
    d = np.zeros(n) if d is None else as_vector(d, n, "d")
    lines = [Polynomial(n, {(0,) * n: d[j], **dict(zip(map(tuple, unit), M[j]))}).coeffs
             for j in range(n)]
    return Polynomial.from_coeffs(old_compose(self.coeffs, lines))


def old_normalized_monomial(n, alpha):
    alpha = tuple(int(a) for a in alpha)
    norm = math.sqrt(math.prod(math.factorial(a) for a in alpha))
    return GaussPoly.monomial(n, alpha, 1.0 / norm)


def old_few_row_horner(c, columns):
    """_horner within its budget, at two or more axes, before the first axis
    left out the start overwrites."""
    zero = 0j if np.iscomplexobj(c) else 0.0
    nonzero = c != 0
    values, start_row = np.where(nonzero, c, -zero)[..., None], np.zeros(len(columns[0]), c.dtype)
    for axis in reversed(range(c.ndim)):
        d = c.shape[axis]
        nonzero = nonzero.reshape(-1, d)
        values = values.reshape(nonzero.shape + values.shape[-1:])
        top = d - 1 - nonzero[:, ::-1].argmax(axis=1)  # an all-zero line reads d - 1
        starts, x = set(top.tolist()), columns[axis][None]
        # until its start a line holds a zero, or at an infinite coordinate a
        # NaN (numpy warns of it), which the start overwrites
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


def old_grid(self, center=None, start=0, stop=None):
    U, W = _unit_grid(self.nodes_per_axis, self.dim)
    X = U[start:stop] @ self._transform.T
    if center is not None:
        X += np.asarray(center, dtype=float)[None, :]
    return X, W[start:stop]


def old_lebesgue_constant(P):
    """The constant of quadrature.lebesgue_integral, which QuadratureRule.mass
    replaced."""
    P = np.asarray(P, dtype=float)
    n = P.shape[0]
    log_det = float(np.sum(np.log(np.linalg.eigvalsh(P))))
    const = (2.0 * math.pi) ** (n / 2.0) * math.exp(-0.5 * log_det)
    return const


# -- the Gaussian exponent and a term's values -----------------------------------


def signed_zeros(rng, a):
    """a with each zero entry +0 or -0 at random."""
    return np.where(a == 0, rng.choice([0.0, -0.0], a.shape), a)


def sparse(rng, shape, density, kind):
    values = rng.standard_normal(shape) * (rng.random(shape) < density)
    if kind == "complex":
        values = values + 1j * rng.standard_normal(shape) * (rng.random(shape) < density)
    return values


def random_term(rng):
    """A term at n <= 3 whose P and b have random zero entries, either sign,
    real or complex."""
    n = int(rng.integers(1, 4))
    kind = rng.choice(["real", "complex"])
    P = sparse(rng, (n, n), 0.5, kind)
    P = P + P.T
    if kind == "real":
        P = signed_zeros(rng, P)
    b = sparse(rng, n, 0.5, kind)
    gamma = 0.0 if rng.random() < 0.3 else complex(*rng.standard_normal(2))
    coeffs = sparse(rng, tuple(rng.integers(1, 5, n)), 0.7, rng.choice(["real", "complex"]))
    return GaussPoly(Polynomial.from_coeffs(coeffs), P, b, gamma)


def random_rows(rng, n, kind):
    X = signed_zeros(rng, rng.standard_normal((int(rng.integers(1, 20)), n))
                     * (rng.random((1, n)) < 0.8))
    return X + 1j * rng.standard_normal(X.shape) if kind == "complex" else X


NAMED_TERMS = {
    "hermite, P = I, b = 0": hermite_function((3, 2, 4)),
    "a zero row of P, a zero entry of b": GaussPoly(
        Polynomial.from_coeffs(np.arange(1.0, 13.0).reshape(2, 3, 2)),
        [[2.0, 0.0, 0.5], [0.0, 0.0, 0.0], [0.5, 0.0, 1.0]], [0.3, 0.0, -0.2], 0.25),
    "-0 entries": GaussPoly(Polynomial.from_coeffs([[1.0, -2.0], [0.5, 3.0]]),
                            np.array([[1.0, -0.0], [-0.0, 2.0]]), [-0.0, 0.5], -0.0),
    "complex P and b": GaussPoly(Polynomial.from_coeffs([[1.0, 1j], [0.5, 0.0]]),
                                 np.array([[1 + 0.5j, 0.0], [0.0, 2 - 0.1j]]), [0.0, 0.2j], 0.0),
    "P = 0, b != 0": GaussPoly(Polynomial.from_coeffs([0.0, 1.0, -1.0]), [[0.0]], [0.3], 0.1),
    "P = 0, b = 0": GaussPoly(Polynomial.from_coeffs([[1.0, 2.0]]), np.zeros((2, 2)),
                              [0.0, -0.0], 0.5j),
}


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("name", sorted(NAMED_TERMS))
def test_a_sparse_exponent_and_its_term_keep_the_bits_of_every_product(name, kind):
    f = NAMED_TERMS[name]
    X = random_rows(np.random.default_rng(len(name)), f.n, kind)
    assert same_bits(f.exponent_many(X), old_exponent_many(f, X))
    assert same_bits(f.evaluate_many(X), old_evaluate_many(f, X))


def test_random_sparse_exponents_and_terms_keep_the_bits_of_every_product():
    rng = np.random.default_rng(2024)
    for _ in range(400):
        f = random_term(rng)
        X = random_rows(rng, f.n, rng.choice(["real", "complex"]))
        assert same_bits(f.exponent_many(X), old_exponent_many(f, X)), (f, X)
        assert same_bits(f.evaluate_many(X), old_evaluate_many(f, X)), (f, X)


def test_a_value_of_minus_zero_reads_plus_zero():
    f = GaussPoly(Polynomial.from_coeffs([0.0, -1.0]), [[1.0]], [0.0], 0.0)  # -x e^{-x^2/2}
    X = np.array([[0.0], [0.5]])
    assert np.signbit(f.poly.evaluate_many(X)[0].real)  # the product is -0 ...
    got = f.evaluate_many(X)
    assert same_bits(got[0], 0j)  # ... and the value +0
    assert same_bits(got, old_evaluate_many(f, X))


def test_an_exponent_out_of_range_raises_the_same_error():
    f = GaussPoly(Polynomial.constant(2, 1.0), np.diag([-1.0, 0.0]), [0.0, 0.0], 0.0)
    X = np.array([[1.0, 5.0], [40.0, 0.0], [-50.0, 1.0]])
    errors = []
    for evaluate in (GaussPoly.evaluate_many, old_evaluate_many):
        with pytest.raises(RangeOverflowError) as caught:
            evaluate(f, X)
        errors.append(caught.value)
    assert errors[0].payload() == errors[1].payload()
    assert same_bits(errors[0].exponents, errors[1].exponents)


def test_a_coordinate_the_exponent_does_not_read_may_be_non_finite():
    # P = diag(1, 0) and b = (0.5, 0) read x_1 alone: an inf or a NaN in x_2
    # leaves the exponent of x_1, where the product 0 * x_2 made it NaN
    f = GaussPoly(Polynomial.constant(2, 2.0), np.diag([1.0, 0.0]), [0.5, 0.0], 0.0)
    X = np.array([[0.3, np.inf], [0.3, np.nan], [0.3, -np.inf], [0.3, 0.0]])
    want = -0.5 * (0.3 * (1.0 * 0.3)) + 0.5 * 0.3
    assert same_bits(f.exponent_many(X), np.full(4, want))
    with np.errstate(invalid="ignore"):
        assert np.isnan(old_exponent_many(f, X)[:3]).all()
    assert same_bits(f.evaluate_many(X), np.full(4, 2.0 * np.exp(complex(want))))


# -- composition with affine maps -----------------------------------------------


def test_composition_keeps_the_bits_of_the_search_at_every_step():
    rng = np.random.default_rng(31)
    for _ in range(150):
        n = int(rng.integers(1, 4))
        kind = rng.choice(["real", "complex"])
        p = Polynomial.from_coeffs(sparse(rng, tuple(rng.integers(1, 6, n)), 0.4, kind))
        M = sparse(rng, (n, n), 0.7, rng.choice(["real", "complex"]))
        d = [None, np.zeros(n), sparse(rng, n, 0.8, "complex")][int(rng.integers(3))]
        got, want = p.compose_affine(M, d), old_compose_affine(p, M, d)
        assert same_bits(got.coeffs, want.coeffs), (p.coeffs, M, d)


def test_a_hermite_composition_keeps_its_bits():
    rng = np.random.default_rng(6)
    p = hermite_function((6, 6, 6)).poly
    M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    d = rng.standard_normal(3) + 0j
    assert same_bits(p.compose_affine(M, d).coeffs, old_compose_affine(p, M, d).coeffs)


def test_on_a_tie_the_first_factor_stays_the_scalar():
    # equally many nonzeros: the first factor's entries scale the second, whose
    # shifted copies are summed in the first's order
    rng = np.random.default_rng(5)
    ties = 0
    for _ in range(200):
        shape = tuple(rng.integers(1, 4, 2))
        a = sparse(rng, shape, 0.6, "complex")
        b = sparse(rng, tuple(rng.integers(1, 4, 2)), 0.6, "complex")
        ties += np.count_nonzero(a) == np.count_nonzero(b)
        want = old_mul(a, b)
        assert same_bits(_times_form(a[None], b, _terms(b))[0], want)
        product = Polynomial.from_coeffs(a) * Polynomial.from_coeffs(b)
        assert same_bits(product.coeffs, Polynomial.from_coeffs(want).coeffs)
    assert ties > 20
    # acc = 3 + 2x meets the line 0.1 + 0.7x: two nonzeros each
    acc, line = np.array([3.0 + 0.1j, 2.0 - 0.3j]), np.array([0.1 + 1e-3j, 0.7 + 0.2j])
    assert same_bits(_times_form(acc[None], line, _terms(line))[0], old_mul(acc, line))


def test_random_products_keep_the_bits_of_the_shifted_slice_add():
    # Polynomial.__mul__ is one row of _times_form: sparse pairs at n = 1-3,
    # real or complex, some of small integers, each side the sparser
    rng = np.random.default_rng(37)
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        a, b = (sparse(rng, tuple(rng.integers(1, 5, n)), rng.uniform(0.2, 1.0),
                       rng.choice(["real", "complex"])) for _ in range(2))
        if rng.random() < 0.3:
            a, b = np.round(4 * a), np.round(4 * b)
        product = Polynomial.from_coeffs(a) * Polynomial.from_coeffs(b)
        assert same_bits(product.coeffs, Polynomial.from_coeffs(old_mul(a, b)).coeffs), (a, b)


def test_a_non_finite_coefficient_meets_the_zeros_of_the_row_only_from_the_form():
    # each product pairs a nonzero entry of the form with every entry of the
    # row: the shifted-slice add paired the sparser side's nonzeros instead
    zero_row, nan_form = Polynomial.from_coeffs([0.0]), Polynomial.from_coeffs([0.0, np.nan])
    with np.errstate(invalid="ignore"):
        assert np.isnan((zero_row * nan_form).coeffs[1])  # old_mul: 0
        inf_row = Polynomial.from_coeffs([np.inf]) * Polynomial.from_coeffs([0.0, 2.0])
    assert inf_row.coeffs[0] == 0 and np.isinf(inf_row.coeffs[1].real)  # old_mul: nan, inf


@pytest.mark.parametrize("n, alpha", [(1, (0,)), (1, (7,)), (2, (2, 5)), (3, (1, 0, 4)),
                                      (2, np.array([3, 3]))])
def test_a_normalized_monomial_keeps_its_bits(n, alpha):
    got, want = normalized_monomial(n, alpha), old_normalized_monomial(n, alpha)
    for part in ("P", "b", "gamma"):
        assert same_bits(getattr(got, part), getattr(want, part))
    assert same_bits(got.poly.coeffs, want.poly.coeffs)


def affine_forms(rng, n, counts, kind):
    """M and d whose linear forms L_j (row j of M, then d_j) have counts[j]
    nonzero terms at random places."""
    Md = np.zeros((n, n + 1), complex)
    for j, k in enumerate(counts):
        places = rng.choice(n + 1, k, replace=False)
        Md[j, places] = sparse(rng, k, 1.0, kind)
    return Md[:, :n], Md[:, n]


def test_compositions_by_forms_of_one_to_four_terms_keep_their_bits(monkeypatch):
    # the line's rule in both directions, with the tie, in one batch of lines
    # that starts at different powers
    orders, mul = Counter(), old_mul

    def counted(a, b):
        orders[int(np.sign(np.count_nonzero(a) - np.count_nonzero(b)))] += 1
        return mul(a, b)

    monkeypatch.setattr(sys.modules[__name__], "old_mul", counted)
    rng = np.random.default_rng(33)
    for _ in range(160):
        n = int(rng.integers(1, 4))
        counts = rng.integers(1, n + 2, n)
        M, d = affine_forms(rng, n, counts, rng.choice(["real", "complex"]))
        p = Polynomial.from_coeffs(sparse(rng, tuple(rng.integers(1, 6, n)), 0.5,
                                          rng.choice(["real", "complex"])))
        got, want = p.compose_affine(M, d), old_compose_affine(p, M, d)
        assert same_bits(got.coeffs, want.coeffs), (p.coeffs, M, d)
    assert min(orders[-1], orders[0], orders[1]) > 50, orders


SIGNED = np.array([[-0.0, 1.0, -0.0], [0.0, -0.0, 0.0], [2.5, -0.0, -1.0]])
ZERO_LINES = np.arange(60.0).reshape(3, 4, 5) - 30
ZERO_LINES[1] = ZERO_LINES[0, 2] = ZERO_LINES[2, 1] = ZERO_LINES[2, :, 3:] = 0
COMPOSITIONS = {
    "-0 entries in p, M and d": (Polynomial.from_coeffs(SIGNED), np.array([[-0.0, 1.5], [2.0, -0.0]]),
                                 np.array([-0.0, 0.5])),
    "-0 parts of complex entries": (Polynomial.from_coeffs(SIGNED + 1j * SIGNED[::-1]),
                                    np.array([[1 - 0j, complex(-0.0, 2)], [0.5j, -1]]),
                                    np.array([complex(0.3, -0.0), 0])),
    "all-zero lines and slabs": (Polynomial.from_coeffs(ZERO_LINES),
                                 np.array([[0.2, 0, 1], [0, 1.5, 0], [1, 0, -0.7]]), None),
    "an all-zero array": (Polynomial(3), np.ones((3, 3)), np.ones(3)),
    "zero forms": (Polynomial.from_coeffs([[1.0, 2.0], [3.0, 4.0]]), np.zeros((2, 2)), None),
    "one zero form": (Polynomial.from_coeffs([[1.0, 2.0], [3.0, 4.0]]), np.array([[0, 0], [1, 2]]),
                      np.array([0, 0.5])),
    "real, identity": (Polynomial.from_coeffs(np.arange(24.0).reshape(2, 3, 4) - 11), None,
                       np.array([0.5, -1.0, 2.0])),
    "complex, dense": (Polynomial.from_coeffs(np.arange(24.0).reshape(2, 3, 4) * (1 - 0.5j)),
                       np.arange(9.0).reshape(3, 3) * (0.3 + 0.2j) - 1, np.ones(3) * 1j),
}


@pytest.mark.parametrize("name", sorted(COMPOSITIONS))
def test_a_named_composition_keeps_its_bits(name):
    p, M, d = COMPOSITIONS[name]
    assert same_bits(p.compose_affine(M, d).coeffs, old_compose_affine(p, M, d).coeffs)


def ladder_context(rng, n):
    R, T = rng.standard_normal((2, n, n))
    return build_context(RealLinearMap.from_blocks(R @ R.T + 0.5 * np.eye(n), T @ T.T / 3))


@pytest.mark.parametrize("n, degree", [(1, 10), (2, 6), (3, 4), (3, 6)])
def test_the_ladder_compositions_keep_their_bits(monkeypatch, n, degree):
    # every composition of the transform and the lift of a Hermite input: the
    # smoothed polynomial under the stationary point's affine map, and the
    # input under sqrt(H)
    calls = []
    compose = Polynomial.compose_affine

    def recorded(p, M, d=None):
        calls.append((p, M, d))
        return compose(p, M, d)

    monkeypatch.setattr(Polynomial, "compose_affine", recorded)
    ctx, f = ladder_context(np.random.default_rng(degree * n), n), hermite_function((degree,) * n)
    segal_bargmann_fn(ctx, f)
    classical_to_weighted(ctx, f)
    monkeypatch.undo()
    assert len(calls) == 2 and calls[0][2] is not None
    for p, M, d in calls:
        assert same_bits(p.compose_affine(M, d).coeffs, old_compose_affine(p, M, d).coeffs)


# -- a few rows, without the start overwrites of the first axis -----------------


def assert_few_rows_keep_their_bits(c, X):
    """_horner at the rows X, as a batch and one row at a time, against the
    old few-row evaluator."""
    assert c.ndim > 1 and c.size * len(X) <= _HORNER_VALUES  # the path under test
    with np.errstate(all="ignore"):
        assert same_bits(_horner(c, list(X.T)), old_few_row_horner(c, list(X.T))), (c, X)
        for row in X:
            columns = [np.array([x]) for x in row]
            assert same_bits(_horner(c, columns), old_few_row_horner(c, columns)), (c, row)


# -x y^2 - y z at x = 0, y < 0, z = 0: the line of y's first power is
# -1 * 0 + (-0) = -0 in z, and for x^0 y's line starts there, below its top
# power.  Its start reads +0 where -0 * y + (-0) would be -0, and the value
# is -0 only through it.
INNER_ZERO = np.zeros((2, 3, 2))
INNER_ZERO[1, 2, 0] = INNER_ZERO[0, 1, 1] = -1.0


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_a_line_that_starts_at_an_exact_zero_keeps_the_sign_of_its_start(kind):
    p = Polynomial.from_coeffs(INNER_ZERO)
    X = np.array([[0.0, -1.0, 0.0], [0.0, -2.0, 0.0], [1.0, -1.0, 0.5], [0.0, -0.5, -0.0]])
    c = p._real if kind == "real" else p.coeffs
    if kind == "complex":
        X = X + 0j
    assert np.signbit(np.real(old_few_row_horner(c, [x[:1] for x in X.T]))).all()
    assert_few_rows_keep_their_bits(c, X)


def test_a_start_value_with_a_part_of_minus_zero_keeps_its_overwrite():
    # conj(1 + i x_1), a raw array with imaginary parts of -0, at conj(0, -1):
    # along x_2 the line of x_1^0 starts below its top at 1 - 0i.  Its prefix
    # there has an imaginary part of -0, which would keep that -0; the
    # overwrite, 1 - 0i plus +0, drops it, and so does the value
    c, X = np.conj([[1, 0], [1j, 0]]), np.conj([[0j, -1 + 0j]])
    assert same_bits(old_few_row_horner(c, list(X.T)), [1 + 0j])
    assert_few_rows_keep_their_bits(c, X)


def test_random_few_row_evaluations_keep_their_bits():
    # stored coefficients, real and complex, and raw arrays whose conjugate
    # has imaginary parts of -0, at rows of zeros of either sign, negative
    # coordinates, infinities and NaN
    rng = np.random.default_rng(27)
    coords = [0.0, -0.0, 1.0, -1.0, -2.0, 0.5, np.inf, -np.inf, np.nan]
    for _ in range(300):
        n = int(rng.integers(2, 5))
        shape = tuple(rng.integers(1, 5, n))
        p = Polynomial.from_coeffs(rng.choice([0.0, 0.0, 1.0, -1.0, -0.5], shape)
                                   * rng.choice([1.0, 1 - 1j, 1j]))
        X = rng.choice(coords, (int(rng.integers(1, 7)), n))
        if p._real is not None:
            assert_few_rows_keep_their_bits(p._real, X)
        Z = X.astype(complex)
        Z.imag = rng.choice(coords[:6], X.shape)  # keeps a real inf or NaN as it is
        assert_few_rows_keep_their_bits(p.coeffs, Z)
        assert_few_rows_keep_their_bits(np.conj(p.coeffs), Z)


@pytest.mark.parametrize("n, degree", [(2, 6), (3, 4), (3, 6)])
def test_the_ladder_images_keep_their_bits_at_a_point(n, degree):
    rng = np.random.default_rng(n + degree)
    ctx, f = ladder_context(rng, n), hermite_function((degree,) * n)
    Z = rng.standard_normal((8, n)) + 1j * rng.standard_normal((8, n))
    for F in (segal_bargmann_fn(ctx, f), classical_to_weighted(ctx, f)):
        for z in Z:
            columns = [np.array([x]) for x in z]
            assert same_bits(_horner(F.poly.coeffs, columns),
                             old_few_row_horner(F.poly.coeffs, columns))
        assert_few_rows_keep_their_bits(F.poly.coeffs, Z[:2])


ROW_COUNTS = [*range(1, 17), 24, 31, 32, 33, 63, 64, 65, 100, 128, 255, 256]


def both_paths(monkeypatch, c, columns):
    """_horner slab by slab, then one axis at a time, at any block and rows,
    each as an (m,) array (a path may return a constant as a scalar)."""
    out = []
    for values in (0, 10**12):
        monkeypatch.setattr(symbolic, "_HORNER_VALUES", values)
        out.append(np.broadcast_to(_horner(c, columns), columns[0].shape))
    monkeypatch.undo()
    return out


@pytest.mark.parametrize("n, degree", [(2, 6), (3, 4), (3, 6)])
def test_both_horner_paths_keep_their_bits_at_one_to_256_rows(monkeypatch, n, degree):
    rng = np.random.default_rng(10 * n + degree)
    ctx, f = ladder_context(rng, n), hermite_function((degree,) * n)
    blocks = [segal_bargmann_fn(ctx, f).poly.coeffs, f.poly._real]
    for m in ROW_COUNTS:
        X = rng.standard_normal((m, n))
        for c, rows in ((blocks[0], X + 1j * rng.standard_normal((m, n))), (blocks[1], X)):
            slabs, axes = both_paths(monkeypatch, c, list(rows.T))
            assert same_bits(slabs, axes), (n, degree, m)


def test_random_blocks_keep_their_bits_on_both_horner_paths(monkeypatch):
    rng = np.random.default_rng(41)
    coords = [0.0, -0.0, 1.0, -1.0, 0.5, np.inf, np.nan]
    for m in ROW_COUNTS:
        n = int(rng.integers(2, 5))
        p = Polynomial.from_coeffs(sparse(rng, tuple(rng.integers(1, 7, n)), 0.5,
                                          rng.choice(["real", "complex"])))
        X = np.where(rng.random((m, n)) < 0.1, rng.choice(coords, (m, n)),
                     rng.standard_normal((m, n)))
        with np.errstate(all="ignore"):
            for c, rows in ((p.coeffs, X + 1j * rng.standard_normal((m, n))), (p._real, X)):
                if c is not None:
                    slabs, axes = both_paths(monkeypatch, c, list(rows.T))
                    assert same_bits(slabs, axes), (c, rows)


# -- grid rows ---------------------------------------------------------------------


@pytest.mark.parametrize("dim, k", [(1, 370), (2, 143), (3, 40), (4, 13)])
@pytest.mark.parametrize("centred", [False, True])
def test_grid_rows_shifted_column_by_column_keep_the_bits_of_the_broadcast(dim, k, centred):
    rng = np.random.default_rng(dim * k)
    M = rng.standard_normal((dim, dim))
    rule = QuadratureRule(dim, k, scaling=M @ M.T + dim * np.eye(dim))
    center = signed_zeros(rng, rng.standard_normal(dim) * (rng.random(dim) < 0.7)) \
        if centred else None
    size = rule.size
    ranges = [(0, None), (0, min(CHUNK, size)), (CHUNK - 5, CHUNK + 7), (size - 3, size),
              (size // 2, size // 2 + 1)]
    for start, stop in ranges:
        got, want = rule.grid(center, start, stop), old_grid(rule, center, start, stop)
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1]), (start, stop)


# -- a rule's Lebesgue mass ----------------------------------------------------


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_a_rules_mass_keeps_the_bits_of_the_lebesgue_constant(dim):
    rng = np.random.default_rng(70 + dim)
    for _ in range(40):
        M = rng.standard_normal((dim, dim)) * rng.uniform(0.1, 3.0)
        P = M @ M.T + rng.uniform(0.01, 2.0) * np.eye(dim)
        assert same_bits(QuadratureRule(dim, 3, scaling=P).mass, old_lebesgue_constant(P))


# -- the grid reduction: finiteness from the block sums ------------------------


def old_sampled(f, *args, where="node", start=0):
    with np.errstate(all="ignore"):
        values = np.asarray(f(*args), dtype=complex)
    _require_finite(values, where, start)
    return values


def old_block_sums(x):
    whole = x.size - x.size % BLOCK
    return [*x[:whole].reshape(-1, BLOCK).sum(axis=1).tolist(), float(x[whole:].sum())]


def old_grid_sums(rule, center, integrands):
    size = rule.size
    bounds = [0, *range(CHUNK, size - BLOCK + 1, CHUNK), size]
    sums = defaultdict(lambda: ([], []))  # integrand -> real and imaginary block sums
    for start, stop in zip(bounds, bounds[1:]):
        X, W = rule.grid(center, start, stop)
        for k, values in enumerate(integrands(X, start)):
            prods = values * W
            for parts, x in zip(sums[k], (prods.real, prods.imag)):
                blocks = old_block_sums(x)
                parts += blocks if stop == size else blocks[:-1]  # only the last has a tail
    return [complex(math.fsum(re), math.fsum(im)) for re, im in sums.values()]


def old_integrate(rule, f):
    return old_grid_sums(rule, None, lambda rows, start: [old_sampled(f, rows, start=start)])[0]


def old_integrate_shifted(rule, center, f, phase=None):
    center = _real_vector(center, rule.dim, "center")
    phase = None if phase is None else _real_vector(phase, rule.dim, "phase")
    oscillation = None if phase is None else _tensor_phase(rule, phase)

    def values(X, start):
        if oscillation is None:
            return f(X)
        return np.multiply(f(X), oscillation(start, start + len(X)))

    return old_grid_sums(rule, center,
                         lambda X, start: [old_sampled(values, X, start, start=start)])[0]


def old_fock_gram(ctx, Fs, Gs, rule):
    def products(rows, start):
        Z = to_complex_coords(rows)
        columns = [np.conj(old_sampled(G.evaluate_many, Z, start=start)) for G in Gs]
        by_id = {id(G): column for G, column in zip(Gs, columns)}
        for F in Fs:
            row = (np.conj(by_id[id(F)]) if id(F) in by_id
                   else old_sampled(F.evaluate_many, Z, start=start))
            for column in columns:
                yield old_sampled(np.multiply, row, column, start=start)

    return np.array(old_grid_sums(rule, None, products), dtype=complex).reshape(len(Fs), len(Gs))


def node_values(rng, m):
    """Complex values at m nodes, each part drawn from normal values, +-0,
    subnormals and values whose product with a weight is subnormal."""
    pool = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e-300, 3e-305])
    def part():
        x = rng.standard_normal(m) * np.exp(rng.uniform(-30, 30, m))
        return np.where(rng.random(m) < 0.3, rng.choice(pool, m), x)
    return part() + 1j * part()


def field_at_nodes(rule, values, center=None):
    """The function that returns ``values`` at the grid nodes, row for row,
    a fresh array each call."""
    X = rule.grid(center)[0]
    index = {row.tobytes(): i for i, row in enumerate(X)}
    return lambda Y: values[[index[row.tobytes()] for row in Y]]


# k^dim nodes: one node; below, at and past a BLOCK; below, at and past a
# CHUNK; a tail that joins its chunk, and one that makes a chunk of its own
GRID_SHAPES = [(1, 1), (2, 1), (3, 1), (4, 1), (1, 5), (1, 370), (2, 63), (2, 64), (2, 65),
               (3, 16), (4, 8), (2, 127), (2, 128), (2, 129), (3, 26), (4, 11), (4, 12),
               (2, 143), (2, 144), (3, 40)]


@pytest.mark.parametrize("dim, k", GRID_SHAPES)
def test_integrals_keep_the_bits_of_the_checked_reduction(dim, k):
    rng = np.random.default_rng(dim * 1000 + k)
    M = rng.standard_normal((dim, dim))
    rule = QuadratureRule(dim, k, scaling=M @ M.T + dim * np.eye(dim))
    center, phase = rng.standard_normal(dim), rng.standard_normal(dim)
    values = node_values(rng, rule.size)
    f = field_at_nodes(rule, values)
    assert same_bits(integrate(rule, f), old_integrate(rule, f))
    shifted = field_at_nodes(rule, values, center)
    for p in (None, phase):
        assert same_bits(integrate_shifted(rule, center, shifted, p),
                         old_integrate_shifted(rule, center, shifted, p))


def gram_context(rng, n):
    R, T = rng.standard_normal((2, n, n))
    return build_context(RealLinearMap.from_blocks(R @ R.T + n * np.eye(n), T @ T.T / 4))


@pytest.mark.parametrize("n, k", [(1, 1), (2, 1), (1, 64), (1, 128), (1, 129), (1, 200),
                                  (2, 11), (2, 12)])
def test_grams_keep_the_bits_of_the_checked_reduction(n, k):
    # an F that is also a G, monomials (a constant exponent), and terms with
    # a complex constant exponent, one of exp(700) and a tiny one
    rng = np.random.default_rng(n * 100 + k)
    ctx = gram_context(rng, n)
    rule = fock_rule(ctx, k)
    w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    section = kernel_section(ctx, 0.3 * w)
    zeros = (np.zeros((n, n)), np.zeros(n))
    constants = [GaussPoly(Polynomial.monomial(n, (1,) * n, 1e-300), *zeros, complex(700.0, 0.3)),
                 GaussPoly(Polynomial.constant(n, 1.0), *zeros, complex(-740.0, 2.0)),
                 GaussPoly(Polynomial.monomial(n, (2,) + (0,) * (n - 1)), *zeros, 0.5 - 1.5j)]
    monomials = [GaussPoly.monomial(n, (a,) + (0,) * (n - 1)) for a in range(4)]
    Fs = [*monomials, section, *constants]
    Gs = [section, monomials[1], constants[2]]
    assert same_bits(fock_gram(ctx, Fs, Gs, rule), old_fock_gram(ctx, Fs, Gs, rule))
    assert same_bits(fock_gram(ctx, Gs, Gs, rule), old_fock_gram(ctx, Gs, Gs, rule))


@pytest.mark.parametrize("gamma", [0.0, 0.5 - 1.5j, complex(-1e3, 7.0), complex(700.0, 0.0),
                                   complex(700.0, -3.0), complex(-0.0, -0.0), complex(0.0, np.pi)])
def test_a_constant_exponent_keeps_the_bits_of_taking_it_per_call(gamma):
    rng = np.random.default_rng(7)
    f = GaussPoly(Polynomial.from_coeffs([[1.0, -2.0j], [0.5, 3.0]]), np.zeros((2, 2)),
                  [0.0, -0.0], gamma)
    assert f._constant_factor is not None  # the path under test
    for m in (1, 2, 3, 64, 5000):
        for X in (rng.standard_normal((m, 2)), rng.standard_normal((m, 2)) * (1 + 1j)):
            assert same_bits(f.evaluate_many(X), old_evaluate_many(f, X)), (gamma, m)


@pytest.mark.parametrize("gamma", [np.nextafter(700.0, np.inf), complex(700.5, 1.0), 1e308])
def test_a_constant_exponent_past_the_bound_raises_with_the_same_exponents(gamma):
    f = GaussPoly(Polynomial.constant(1, 1.0), np.zeros((1, 1)), [0.0], gamma)
    X = np.array([[0.5], [-1.0], [2.0]])
    errors = []
    for evaluate in (GaussPoly.evaluate_many, old_evaluate_many):
        with pytest.raises(RangeOverflowError) as caught:
            evaluate(f, X)
        errors.append(caught.value)
    assert errors[0].payload() == errors[1].payload()
    assert same_bits(errors[0].exponents, errors[1].exponents)


def test_weighting_in_place_keeps_the_bits_of_the_product_at_every_length():
    rng = np.random.default_rng(11)
    W = rng.random(CHUNK + BLOCK) * np.exp(rng.uniform(-700, 0, CHUNK + BLOCK))
    for m in [*range(2, 40), 8191, 8192, 8193, CHUNK - 1, CHUNK + 1, CHUNK + BLOCK - 1]:
        values = node_values(rng, m)
        want = values * W[:m]
        assert same_bits(np.multiply(values, W[:m], out=values), want), m


def test_a_callers_array_is_weighted_out_of_place():
    rule = QuadratureRule(2, 30)
    arr = node_values(np.random.default_rng(3), rule.size)
    kept = arr.copy()
    for integral in (lambda: integrate(rule, lambda X: arr),
                     lambda: integrate_shifted(rule, [0.1, -0.2], lambda X: arr)):
        assert same_bits(integral(), integral())
        assert same_bits(arr, kept)


class _Column:
    """A function of n variables at the grid of a rule: ``value`` at the
    node ``node`` (an index into the whole grid), ``base`` elsewhere."""

    def __init__(self, rule, node, value, base=1.0):
        self.target = to_complex_coords(rule.grid()[0][node])
        self.value, self.base = value, base

    def evaluate_many(self, Z):
        out = np.full(len(Z), self.base, dtype=complex)
        out[(Z == self.target).all(axis=1)] = self.value
        return out


def raised(call):
    with pytest.raises(Exception) as caught:  # noqa: B017 (compared, not assumed)
        call()
    return type(caught.value), str(caught.value)


# 200^2 nodes: chunks [0, 16384), [16384, 32768) and [32768, 40000)
PARITY_NODES = [start + offset for start, stop in ((0, CHUNK), (CHUNK, 2 * CHUNK),
                                                   (2 * CHUNK, 40_000))
                for offset in (0, (stop - start) // 2, stop - start - 1)]


@pytest.mark.parametrize("place", ["column", "row", "product"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_a_non_finite_value_raises_the_checked_error(place, value):
    ctx = build_context(RealLinearMap.identity(1))
    rule = fock_rule(ctx, 200)
    one = GaussPoly.constant(1, 1.0)
    messages = set()
    for node in PARITY_NODES:
        if place == "product":  # finite factors whose product is +-inf, or inf - inf
            big = 1e200 * (1 + 1j if np.isnan(value) else np.sign(value))
            Fs, Gs = [_Column(rule, node, big), one], [one, _Column(rule, node, 1e200)]
        else:
            spike = _Column(rule, node, value)
            Fs, Gs = ([one, spike], [one, one]) if place == "row" else ([one, one], [one, spike])
        got = raised(lambda: fock_gram(ctx, Fs, Gs, rule))
        assert got == raised(lambda: old_fock_gram(ctx, Fs, Gs, rule))
        assert got[0] is EvaluatorError and got[1].endswith(f" at node {node}"), got
        messages.add(got[1])
    assert len(messages) == len(PARITY_NODES)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_a_non_finite_integrand_raises_the_checked_error(value):
    rule = QuadratureRule(2, 200)
    center, phase = np.array([0.3, -0.1]), np.array([0.5, 2.0])
    for node in PARITY_NODES:
        for grid_center, call, old in ((None, lambda f: integrate(rule, f),
                                        lambda f: old_integrate(rule, f)),
                                       (center, lambda f: integrate_shifted(rule, center, f, phase),
                                        lambda f: old_integrate_shifted(rule, center, f, phase))):
            target = rule.grid(grid_center)[0][node]
            f = lambda X: np.where((X == target).all(axis=1), value, 1.0)  # noqa: E731
            got = raised(lambda: call(f))
            assert got == raised(lambda: old(f))
            assert got[0] is EvaluatorError and got[1].endswith(f" at node {node}"), got


def test_an_error_after_a_non_finite_value_in_its_chunk_is_the_checked_error():
    # the unchecked pass meets the out-of-range exponent of the second column
    # first; the checked pass names the NaN of the first column, as before
    ctx = build_context(RealLinearMap.identity(1))
    rule = fock_rule(ctx, 200)
    one = GaussPoly.constant(1, 1.0)
    growing = GaussPoly(Polynomial.constant(1, 1.0), -10 * np.eye(1), [0.0], 0.0)
    with pytest.raises(RangeOverflowError):  # at the outer nodes of the first chunk
        growing.evaluate_many(to_complex_coords(rule.grid(None, 0, CHUNK)[0]))
    Gs = [_Column(rule, 5, np.nan), growing]
    got = raised(lambda: fock_gram(ctx, [one], Gs, rule))
    assert got == raised(lambda: old_fock_gram(ctx, [one], Gs, rule))
    assert got == (EvaluatorError, "integrand produced NaN at node 5")


def test_an_error_of_the_unchecked_pass_stands_if_the_checked_pass_raises_none():
    # an integrand that fails only at its first call: the checked pass runs
    # clean, and the error of the one evaluation a checked reduction made is
    # raised
    def failing_once():
        calls = []

        def f(X):
            calls.append(len(X))
            if len(calls) == 1:
                raise ValueError("first call")
            return np.ones(len(X))
        return f

    rule = QuadratureRule(2, 10)
    got = raised(lambda: integrate(rule, failing_once()))
    assert got == raised(lambda: old_integrate(rule, failing_once())) == (ValueError, "first call")


def test_finite_values_whose_block_sum_overflows_keep_the_result_and_the_warning(caplog):
    # three weights of the largest float sum past it: the unchecked pass
    # leaves an inf block sum, and the checked rerun sums it as before, with
    # numpy's overflow warning
    rule, huge = QuadratureRule(1, 3), np.finfo(float).max
    f = lambda X: np.full(len(X), huge)  # noqa: E731
    with pytest.warns(RuntimeWarning, match="overflow"):
        want = old_integrate(rule, f)
    with caplog.at_level(logging.DEBUG, logger="fockops"), \
            pytest.warns(RuntimeWarning, match="overflow"):
        got = integrate(rule, f)
    assert same_bits(got, want) and got.real == np.inf
    (record,) = [r for r in caplog.records if r.name == "fockops.quadrature"]
    assert record.args[-1] == 1  # one chunk rerun through the checked pass
