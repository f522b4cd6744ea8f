"""Fast paths against the code they replaced, kept here verbatim: the sparse
Gaussian exponent, the in-place +0 of a term's values, the composition that
reads each linear form's nonzero terms once and the column-wise grid shift
all keep every bit of the old results."""

import numpy as np
import pytest

from fockops import GaussPoly, Polynomial, QuadratureRule, RangeOverflowError, hermite_function
from fockops.quadrature import CHUNK, _unit_grid
from fockops.symbolic import (
    _as_complex_vector,
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
