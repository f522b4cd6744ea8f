"""Fast paths against the code they replaced, kept here verbatim: the sparse
Gaussian exponent, the in-place +0 of a term's values, the composition one
axis at a time, the few-row evaluation without the start overwrites that
change no bit, and the column-wise grid shift all keep every bit of the old
results."""

import itertools
import sys
from collections import Counter

import numpy as np
import pytest

from fockops import (
    GaussPoly,
    Polynomial,
    QuadratureRule,
    RangeOverflowError,
    RealLinearMap,
    build_context,
    classical_to_weighted,
    hermite_function,
    segal_bargmann_fn,
)
from fockops.quadrature import CHUNK, _unit_grid
from fockops.symbolic import (
    _HORNER_VALUES,
    _as_complex_vector,
    _horner,
    _mul,
    _padded_add,
    _rows,
    _terms,
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
    d = np.zeros(n) if d is None else _as_complex_vector(d, n)
    lines = [Polynomial(n, {(0,) * n: d[j], **dict(zip(map(tuple, unit), M[j]))}).coeffs
             for j in range(n)]
    return Polynomial.from_coeffs(old_compose(self.coeffs, lines))


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
        assert same_bits(_mul(a, b, _terms(b)), want)
        product = Polynomial.from_coeffs(a) * Polynomial.from_coeffs(b)
        assert same_bits(product.coeffs, Polynomial.from_coeffs(want).coeffs)
    assert ties > 20
    # acc = 3 + 2x meets the line 0.1 + 0.7x: two nonzeros each
    acc, line = np.array([3.0 + 0.1j, 2.0 - 0.3j]), np.array([0.1 + 1e-3j, 0.7 + 0.2j])
    assert same_bits(_mul(acc, line, _terms(line)), old_mul(acc, line))


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
