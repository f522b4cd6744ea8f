"""Exactness of the polynomial-times-Gaussian calculus.

Closed forms are checked against brute-force numerical integration on
fine grids, which stays independent of the completing-the-square path.
"""

import itertools
import re
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from numpy.polynomial.hermite_e import hermegauss

from fockops import (
    CallableField,
    ConfigError,
    DimensionMismatchError,
    DivergenceError,
    EvaluatorError,
    GaussPoly,
    Polynomial,
    RangeOverflowError,
    RealLinearMap,
    UnsupportedFormError,
    build_context,
    convolve_gaussian,
    gaussian_integral,
    hermite_function,
    integrate_gausspoly,
    l2_inner_product,
    normalized_monomial,
    segal_bargmann,
    segal_bargmann_fn,
)
from numpy.polynomial.polynomial import polyder

from fockops.quadrature import QuadratureRule
from fockops.symbolic import _HORNER_VALUES, _derivative, _horner, _padded_add, _smoothed


def brute_integral_1d(f, half_width=12.0, m=60001):
    xs = np.linspace(-half_width, half_width, m)
    return np.trapezoid(f(xs), xs)


def brute_integral_2d(f, half_width=9.0, m=701):
    xs = np.linspace(-half_width, half_width, m)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    vals = f(X, Y)
    return np.trapezoid(np.trapezoid(vals, xs, axis=1), xs)


def test_polynomial_arithmetic_and_eval():
    p = Polynomial(2, {(1, 0): 2.0, (0, 2): 1.0})
    q = Polynomial(2, {(1, 1): 1.0})
    prod = p * q
    z = np.array([1.5, -2.0 + 1.0j])
    assert prod.evaluate(z) == pytest.approx(p.evaluate(z) * q.evaluate(z), rel=1e-14)
    assert (p + q).evaluate(z) == pytest.approx(p.evaluate(z) + q.evaluate(z), rel=1e-14)
    assert p.degree() == 2


def test_polynomial_compose_affine_matches_pointwise():
    rng = np.random.default_rng(0)
    p = Polynomial(2, {(2, 1): 1.0 + 0.5j, (0, 3): -2.0, (1, 0): 3.0})
    M = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    d = rng.standard_normal(2)
    q = p.compose_affine(M, d)
    for _ in range(5):
        w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert q.evaluate(w) == pytest.approx(p.evaluate(M @ w + d), rel=1e-12)


def test_exp_quadratic_shift_and_compose():
    rng = np.random.default_rng(1)
    Q = rng.standard_normal((2, 2))
    Q = Q + Q.T + 1j * np.eye(2) * 0.3
    e = GaussPoly.gaussian(-Q, rng.standard_normal(2), 0.2 - 0.1j)
    d = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    M = rng.standard_normal((2, 2))
    for _ in range(5):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert e.shifted(d).evaluate(z) == pytest.approx(e.evaluate(z + d), rel=1e-12)
        assert e.compose_linear(M).evaluate(z) == pytest.approx(
            e.evaluate(M @ z), rel=1e-12
        )


def test_gaussian_integral_normalization_1d():
    # integral of exp(-q x^2 / 2) dx = sqrt(2 pi / q)
    one = Polynomial.constant(1, 1.0)
    for q in (0.5, 1.0, 3.0):
        val = gaussian_integral(one, np.array([[q]]), np.zeros(1))
        assert val == pytest.approx(np.sqrt(2 * np.pi / q), rel=1e-14)


def test_gaussian_integral_polynomial_moments_vs_brute_force():
    poly = Polynomial(1, {(4,): 1.0, (2,): -0.5, (1,): 1.0, (0,): 2.0})
    q, b = 1.7, 0.4
    val = gaussian_integral(poly, np.array([[q]]), np.array([b]))
    brute = brute_integral_1d(
        lambda x: (x**4 - 0.5 * x**2 + x + 2.0) * np.exp(-0.5 * q * x**2 + b * x)
    )
    assert val == pytest.approx(brute, rel=1e-9)


def test_gaussian_integral_complex_shift_vs_brute_force():
    poly = Polynomial(1, {(2,): 1.0})
    q = 1.2 + 0.4j
    b = 0.3 - 0.7j
    val = gaussian_integral(poly, np.array([[q]]), np.array([b]))
    brute = brute_integral_1d(lambda x: x**2 * np.exp(-0.5 * q * x**2 + b * x))
    assert val == pytest.approx(brute, rel=1e-9)


def test_gaussian_integral_2d_cross_terms_vs_brute_force():
    poly = Polynomial(2, {(2, 1): 1.0, (0, 0): 1.0})
    Q = np.array([[2.0, 0.6], [0.6, 1.1]])
    b = np.array([0.2, -0.1])
    val = gaussian_integral(poly, Q, b)
    brute = brute_integral_2d(
        lambda x, y: (x**2 * y + 1.0)
        * np.exp(-0.5 * (2.0 * x**2 + 1.2 * x * y + 1.1 * y**2) + 0.2 * x - 0.1 * y)
    )
    assert val == pytest.approx(brute, rel=1e-7)


def test_gaussian_integral_divergence_detected():
    with pytest.raises(DivergenceError):
        gaussian_integral(Polynomial.constant(1, 1.0), np.array([[-1.0]]), np.zeros(1))


def test_gausspoly_integral_and_inner_product():
    # normalized Gaussian integrates to one; <f, f> matches brute force
    n = 1
    dens = GaussPoly.gaussian(np.array([[2.0]]), coeff=np.sqrt(2.0 / (2 * np.pi)))
    assert integrate_gausspoly(dens) == pytest.approx(1.0, rel=1e-14)

    f = GaussPoly(Polynomial(1, {(1,): 1.0}), np.array([[1.0]]), np.array([0.5j]), 0.0)
    ip = l2_inner_product(f, f)
    brute = brute_integral_1d(
        lambda x: np.abs(x * np.exp(-0.5 * x**2 + 0.5j * x)) ** 2
    )
    assert ip.real == pytest.approx(brute, rel=1e-10)
    assert abs(ip.imag) < 1e-12


def test_convolution_closed_form_matches_direct_integral():
    rng = np.random.default_rng(2)
    h = GaussPoly(
        Polynomial(1, {(3,): 0.7, (0,): 1.0}),
        np.array([[1.3]]),
        np.array([0.2]),
        0.1,
    )
    G = np.array([[0.9]])
    conv = convolve_gaussian(1.0, G, h)
    for z in (0.0, 0.8, -1.2 + 0.5j):
        direct = brute_integral_1d(
            lambda x: np.exp(-0.45 * (z - x) ** 2)
            * (0.7 * x**3 + 1.0)
            * np.exp(-0.65 * x**2 + 0.2 * x + 0.1)
        )
        assert conv.evaluate(np.array([z])) == pytest.approx(direct, rel=1e-9)


def test_convolution_2d_matches_brute_force():
    h = GaussPoly(
        Polynomial(2, {(1, 1): 1.0, (0, 0): 0.5}),
        np.array([[1.5, 0.2], [0.2, 1.0]]),
        np.array([0.1, -0.3]),
        0.0,
    )
    G = np.array([[1.0, 0.3], [0.3, 0.8]])
    conv = convolve_gaussian(2.0, G, h)
    z = np.array([0.4, -0.6])

    def integrand(x, y):
        dx, dy = z[0] - x, z[1] - y
        ker = 2.0 * np.exp(-0.5 * (dx**2 + 0.6 * dx * dy + 0.8 * dy**2))
        val = (x * y + 0.5) * np.exp(
            -0.5 * (1.5 * x**2 + 0.4 * x * y + y**2) + 0.1 * x - 0.3 * y
        )
        return ker * val

    assert conv.evaluate(z) == pytest.approx(brute_integral_2d(integrand), rel=1e-7)


def test_convolution_divergence_guard():
    wide = GaussPoly.gaussian(np.array([[-2.0]]))
    with pytest.raises(DivergenceError):
        convolve_gaussian(1.0, np.array([[1.0]]), wide)


def test_overflow_guard_raises_structured_error():
    e = GaussPoly.gaussian(np.array([[-2.0]]))
    with pytest.raises(RangeOverflowError) as err:
        e.evaluate(np.array([40.0]))
    assert err.value.exponent > 700


def test_as_polynomial_requires_trivial_exponential():
    F = GaussPoly.from_polynomial(Polynomial(1, {(1,): 2.0}))
    assert F.as_polynomial().terms == {(1,): 2.0}
    G = F * GaussPoly.gaussian(np.array([[-0.5]]))
    with pytest.raises(Exception):
        G.as_polynomial()


def test_pure_polynomial_evaluation_skips_the_exponent_bit_for_bit():
    rng = np.random.default_rng(17)
    poly = Polynomial(2, {(0, 0): 0.5 - 1j, (2, 1): 1.5, (0, 3): -0.25j})
    gamma = 0.3 - 0.7j
    g = GaussPoly(poly, np.zeros((2, 2)), np.zeros(2), gamma)
    X = rng.standard_normal((500, 2)) + 1j * rng.standard_normal((500, 2))
    got = g.evaluate_many(X)
    np.testing.assert_array_equal(got, poly.evaluate_many(X) * np.exp(gamma))
    # the general route with its zero quadratic form gives the same bits
    expo = -0.5 * np.einsum("ij,jk,ik->i", X, g.P, X) + X @ g.b + g.gamma
    np.testing.assert_array_equal(got, poly.evaluate_many(X) * np.exp(expo))
    with pytest.raises(RangeOverflowError):
        GaussPoly(poly, np.zeros((2, 2)), np.zeros(2), 800.0).evaluate_many(X)


# -- properties of the dense coefficient algebra --------------------------------

COEFF = st.one_of(
    st.just(0j),
    st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
)
PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)


@st.composite
def polynomials(draw, n=None):
    n = draw(st.integers(1, 3)) if n is None else n
    shape = tuple(draw(st.lists(st.integers(1, 7), min_size=n, max_size=n)))
    return Polynomial.from_coeffs(draw(arrays(complex, shape, elements=COEFF)))


def complex_arrays(shape):
    return arrays(complex, shape, elements=st.complex_numbers(
        max_magnitude=1.5, allow_nan=False, allow_infinity=False))


def magnitude(p, Z):
    """|p| with every coefficient replaced by its modulus, at |Z|: a bound on
    the terms whose rounding the evaluated value carries."""
    return Polynomial.from_coeffs(np.abs(p.coeffs)).evaluate_many(np.abs(Z)).real + 1e-300


@PROPERTY
@given(data=st.data())
def test_compose_affine_matches_pointwise_property(data):
    p = data.draw(polynomials())
    n = p.n
    M = data.draw(complex_arrays((n, n)))
    d = data.draw(complex_arrays((n,)))
    W = data.draw(complex_arrays((4, n)))
    X = W @ M.T + d
    got = p.compose_affine(M, d).evaluate_many(W)
    assert np.all(np.abs(got - p.evaluate_many(X)) <= 1e-11 * magnitude(p, X))


@PROPERTY
@given(data=st.data())
def test_product_matches_pointwise_property(data):
    p = data.draw(polynomials())
    q = data.draw(polynomials(p.n))
    Z = data.draw(complex_arrays((4, p.n)))
    scale = magnitude(p, Z) * magnitude(q, Z)
    assert np.all(np.abs((p * q).evaluate_many(Z) - p.evaluate_many(Z) * q.evaluate_many(Z))
                  <= 1e-12 * scale)


@PROPERTY
@given(data=st.data())
def test_smoothed_matches_gauss_hermite_expectation_property(data):
    p = data.draw(polynomials())
    n = p.n
    B = data.draw(arrays(float, (n, n), elements=st.floats(-1.0, 1.0)))
    C = B @ B.T + 0.2 * np.eye(n)
    y = data.draw(complex_arrays((n,)))
    # E[p(y + L xi)] with xi standard normal, C = L L^T; 10 nodes per axis
    # integrate total degree 18 exactly
    nodes, weights = hermegauss(10)
    xi = np.stack(np.meshgrid(*[nodes] * n, indexing="ij"), -1).reshape(-1, n)
    w = np.prod(np.stack(np.meshgrid(*[weights] * n, indexing="ij"), -1).reshape(-1, n), 1)
    w = w / np.sqrt(2.0 * np.pi) ** n
    X = y + xi @ np.linalg.cholesky(C).T
    want = np.dot(w, p.evaluate_many(X))
    got = _smoothed(p, C).evaluate(y)
    assert abs(got - want) <= 1e-11 * np.dot(w, magnitude(p, X))


def all_pairs_smoothed(poly, cov):
    """The heat series summed over every covariance pair (i, j), zero or not:
    the reference that the series leaving out zero pairs must match."""
    term = out = poly.coeffs.astype(np.clongdouble)
    cov, axes = np.asarray(cov).astype(np.clongdouble), range(poly.n)
    for k in range(1, poly.degree() // 2 + 1):
        firsts = [_derivative(term, i) for i in axes]
        term = reduce(_padded_add, [cov[i, j] / (2 * k) * _derivative(firsts[i], j)
                                    for i in axes for j in axes])
        out = _padded_add(out, term)
    return Polynomial.from_coeffs(out.astype(complex))


def _covariance(kind, rng, n):
    M = rng.standard_normal((n, n))
    dense = M @ M.T + 0.5 * np.eye(n)
    diagonal = np.diag(rng.uniform(0.2, 2.0, n))
    if kind == "dense":
        return dense
    if kind == "complex-dense":
        return dense + 0.3j * (M + M.T)
    if kind == "diagonal":
        return diagonal
    if kind == "negative-zero":  # -0.0 off the diagonal and in one dense entry pair
        cov = diagonal.copy()
        cov[~np.eye(n, dtype=bool)] = -0.0
        return cov
    if kind == "dense-negative-zero":
        cov = dense.copy()
        cov[0, -1] = cov[-1, 0] = -0.0
        return cov
    if kind in ("zero-first-diagonal-entry", "zero-last-diagonal-entry"):
        cov = dense.copy()
        cov[(0, 0) if kind == "zero-first-diagonal-entry" else (-1, -1)] = 0.0
        return cov
    return np.zeros((n, n))


def _smoothing_inputs(rng, n):
    """Hermite products, as l2_inner_product takes them, a monomial, whose
    size is checked before the series runs (a zero variance must not warn),
    and random polynomials with zero, -0.0 and complex coefficients."""
    yield Polynomial.monomial(n, (4,) * n, -1.5)
    for degree in (2, 5 if n < 4 else 3):
        f = hermite_function((degree,) * n)
        yield (f * f.conjugated()).poly
    for _ in range(6):
        shape = tuple(rng.integers(1, 6, size=n).tolist())
        c = rng.standard_normal(shape) * (rng.random(shape) < 0.6)
        c[rng.random(shape) < 0.2] = -0.0
        yield Polynomial.from_coeffs(c)
        yield Polynomial.from_coeffs(c + 1j * rng.standard_normal(shape) * (rng.random(shape) < .3))


@pytest.mark.parametrize("kind", [
    "diagonal", "negative-zero", "zero-first-diagonal-entry", "zero-last-diagonal-entry",
    "dense", "complex-dense", "dense-negative-zero", "zero"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_smoothing_leaves_out_zero_pairs_with_the_bits_of_every_pair(kind, n):
    rng = np.random.default_rng(n)
    for p in _smoothing_inputs(rng, n):
        cov = _covariance(kind, rng, n)
        got, want = _smoothed(p, cov).coeffs, all_pairs_smoothed(p, cov).coeffs
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (kind, p.coeffs)


def test_smoothing_a_hermite_product_on_a_diagonal_covariance_takes_the_diagonal_pairs(
        monkeypatch):
    import fockops.symbolic as symbolic

    f = hermite_function((6, 6, 6))
    p = (f * f.conjugated()).poly
    calls = []
    monkeypatch.setattr(symbolic, "_derivative", lambda c, axis: calls.append(axis) or
                        _derivative(c, axis))
    _smoothed(p, 0.5 * np.eye(3))
    # two derivatives along each of the three axes per step, not 3 + 9
    assert len(calls) == 6 * (p.degree() // 2)
    calls.clear()
    # a -0 coefficient takes the same two pairs, not a second series over all four
    _smoothed(Polynomial.from_coeffs([[-0.0, 0.4, -1.8]]), np.diag([0.1, -0.8]))
    assert len(calls) == 4


# variance -> the first degree d at which smoothing y^d leaves the float range:
# 1/4 is the weighted transform of x^d exp(-x^2/2) at R = 1, T = 2
SMOOTHING_OVERFLOWS_AT = {1.0 / 6.0: 412, 0.25: 380, 0.5: 334}


@pytest.mark.parametrize("var", sorted(SMOOTHING_OVERFLOWS_AT))
def test_smoothing_is_refused_exactly_where_its_series_leaves_the_float_range(
        var, monkeypatch):
    import fockops.symbolic as symbolic

    first = SMOOTHING_OVERFLOWS_AT[var]
    cov = np.array([[var]])
    for degree in range(first - 4, first + 5):
        p = Polynomial.monomial(1, (degree,))
        if degree < first:
            assert np.isfinite(_smoothed(p, cov).coeffs).all()
            continue
        with pytest.raises(ConfigError, match="past the largest float"):
            _smoothed(p, cov)
        with monkeypatch.context() as unchecked, np.errstate(over="ignore", invalid="ignore"):
            unchecked.setattr(symbolic, "_require_smoothable", lambda poly, cov: None)
            assert not np.isfinite(_smoothed(p, cov).coeffs).all()
    assert np.isfinite(_smoothed(Polynomial.monomial(1, (150,)), cov).coeffs).all()


@PROPERTY
@given(p=polynomials())
def test_terms_view_rebuilds_the_polynomial_property(p):
    again = Polynomial(p.n, p.terms)
    np.testing.assert_array_equal(bits(again.coeffs), bits(p.coeffs))
    assert all(type(a) is int for alpha in p.terms for a in alpha)
    with pytest.raises(TypeError):
        p.terms[(0,) * p.n] = 1.0
    with pytest.raises(ValueError):
        p.coeffs[(0,) * p.n] = 1.0


def test_a_polynomial_stores_its_zeros_as_plus_zero_and_keeps_every_other_bit():
    rng = np.random.default_rng(8)
    pool = [0.0, -0.0, 1.5, -2.5, 1e-300, -np.inf]
    for _ in range(200):
        shape = tuple(rng.integers(1, 5, size=rng.integers(1, 4)).tolist())
        c = np.empty(shape, complex)
        c.real, c.imag = rng.choice(pool, size=shape), rng.choice(pool, size=shape)
        p = Polynomial.from_coeffs(c)
        raw = c[tuple(map(slice, p.coeffs.shape))]
        for part in (np.real, np.imag):
            stored, given = part(p.coeffs), part(raw)
            assert not np.signbit(stored[stored == 0]).any()
            assert np.array_equal(bits(stored[given != 0]), bits(given[given != 0]))
        assert np.array_equal(bits(Polynomial(p.n, p.terms).coeffs), bits(p.coeffs))
    f = hermite_function((3, 4))
    conj = f.conjugated().poly.coeffs
    parts = conj.view(float)
    assert not f.poly.coeffs.imag.any() and not np.signbit(parts[parts == 0]).any()
    assert np.array_equal(bits(conj), bits(f.poly.coeffs))


# -- real terms at real points: float64 arithmetic, complex bits ----------------

REAL = st.one_of(st.just(0.0), st.floats(-2.0, 2.0))


def bits(values: np.ndarray) -> np.ndarray:
    """The raw bits of a complex array, both parts: -0 is not +0 here."""
    return values.view(np.uint64)


@st.composite
def real_terms(draw):
    """A real term at n <= 3, each axis of degree <= 6, with SPD P, and real
    points to evaluate it at."""
    n = draw(st.integers(1, 3))
    shape = tuple(draw(st.lists(st.integers(1, 7), min_size=n, max_size=n)))
    coeffs = draw(arrays(float, shape, elements=REAL))
    B = draw(arrays(float, (n, n), elements=st.floats(-1.0, 1.0)))
    b = draw(arrays(float, (n,), elements=REAL))
    term = GaussPoly(Polynomial.from_coeffs(coeffs), B @ B.T + 0.2 * np.eye(n), b,
                     draw(REAL))
    X = draw(arrays(float, (draw(st.integers(1, 8)), n), elements=st.floats(-3.0, 3.0)))
    return term, X


@PROPERTY
@given(case=real_terms())
def test_real_term_at_real_points_has_the_bits_of_the_complex_route_property(case):
    f, X = case
    got = f.evaluate_many(X)
    assert got.dtype == complex
    np.testing.assert_array_equal(bits(got), bits(f.evaluate_many(X.astype(complex))))
    np.testing.assert_array_equal(
        bits(got), bits(np.array([f.evaluate(x) for x in X], dtype=complex)))
    # the polynomial alone keeps the bits of its real parts, and its
    # imaginary parts are zero
    p = f.poly.evaluate_many(X)
    np.testing.assert_array_equal(bits(p.real), bits(f.poly.evaluate_many(X.astype(complex)).real))
    assert not p.imag.any()


@PROPERTY
@given(case=real_terms(), part=st.sampled_from(["coeff", "P", "b", "gamma"]),
       imag=st.floats(0.01, 1.0))
def test_complex_data_at_real_points_keeps_the_complex_route_property(case, part, imag):
    f, X = case
    poly, P, b, gamma = f.poly.coeffs.copy(), f.P.copy(), f.b.copy(), f.gamma
    if part == "coeff":
        poly[(0,) * f.n] += 1j * imag
    elif part == "P":
        P = P + 1j * imag * np.eye(f.n)
    elif part == "b":
        b[0] += 1j * imag
    else:
        gamma += 1j * imag
    g = GaussPoly(Polynomial.from_coeffs(poly), P, b, gamma)
    np.testing.assert_array_equal(bits(g.evaluate_many(X)),
                                  bits(g.evaluate_many(X.astype(complex))))


@pytest.mark.parametrize("n, degree", [(1, 10), (2, 6), (3, 4), (3, 6)])
def test_float64_horner_has_the_same_bits_on_contiguous_and_strided_columns(n, degree):
    # the ladder's rungs: a Hermite function on a 40-node rule in each axis
    rng = np.random.default_rng(degree)
    M = rng.standard_normal((n, n))
    X, _ = QuadratureRule(n, 40, scaling=M @ M.T + n * np.eye(n)).grid(rng.standard_normal(n))
    c = hermite_function((degree,) * n).poly.coeffs.real
    strided = _horner(c, list(X.T))
    contiguous = _horner(c, list(np.ascontiguousarray(X.T)))
    assert strided.dtype == np.float64 and strided.shape == (40**n,)
    np.testing.assert_array_equal(strided.view(np.uint64), contiguous.view(np.uint64))


# -- the evaluator's two halves against the slab-by-slab recursion -------------

def horner_oracle(c: np.ndarray, columns: list):
    """Nested Horner along the first axis for every block, skipping all-zero
    slabs: the reference whose bits ``_horner`` keeps at every size."""
    leaf, acc = c.ndim == 1, 0j if np.iscomplexobj(c) else 0.0
    for slab in (c.tolist() if leaf else c)[::-1]:
        if isinstance(acc, np.ndarray) and acc.size > 1:
            acc *= columns[0]
        elif isinstance(acc, np.ndarray) or acc:
            acc = acc * columns[0]
        if slab if leaf else slab.any():
            acc += slab if leaf else horner_oracle(slab, columns[1:])
    return acc


def row_bits(out, rows: int, dtype) -> np.ndarray:
    """The raw bits of an evaluator's result, a scalar read as every row's."""
    return np.array(np.broadcast_to(out, (rows,)), dtype=dtype).view(np.uint64).reshape(rows, -1)


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("shape", [(9,), (1, 13), (13, 1), (5, 6), (1, 1, 9), (2, 1, 9),
                                   (4, 5, 3), (7, 7, 7), (3, 2, 4, 3)])
def test_horner_has_the_bits_of_the_slab_recursion_at_every_batch_size(shape, kind):
    rng = np.random.default_rng(sum(shape) + len(kind))
    c = rng.standard_normal(shape)
    if kind == "complex":  # raw arrays with imaginary parts of -0: _horner takes any array
        c = c + 1j * rng.standard_normal(shape)
        c.imag[rng.random(shape) < 0.2] = -0.0
    c[rng.random(shape) < 0.4] = 0
    budget_rows = _HORNER_VALUES // c.size
    for rows in (1, 2, budget_rows, budget_rows + 1, 20_000):
        X = 1.5 * rng.standard_normal((rows, len(shape)))
        if kind == "complex":
            X = X + 1j * rng.standard_normal(X.shape)
        want = row_bits(horner_oracle(c, list(X.T)), rows, c.dtype)
        for columns in (list(X.T), list(np.ascontiguousarray(X.T))):
            np.testing.assert_array_equal(row_bits(_horner(c, columns), rows, c.dtype), want,
                                          err_msg=f"{rows} rows")
        for i in {0, rows // 2, rows - 1, *rng.integers(0, rows, 3).tolist()}:
            one = _horner(c, [x[i:i + 1] for x in X.T])
            np.testing.assert_array_equal(row_bits(one, 1, c.dtype)[0], want[i],
                                          err_msg=f"row {i} of {rows}")


@pytest.mark.parametrize("route", ["real", "complex", "complex conjugated"])
@pytest.mark.parametrize("coeffs", ["hermite (6, 6, 6)", "signed zeros"])
def test_horner_edge_rows_have_the_bits_of_the_slab_recursion(coeffs, route):
    # Powers past the float range, inf coordinates and signed zeros: the
    # evaluator multiplies all-zero slabs that the recursion skips, where
    # 0 * inf would show, and lines of the second array start below their
    # top power.  Real points on the complex route leave signed-zero
    # imaginary parts.  A NaN coordinate is left out: the sign of a NaN it
    # carries through differs between numpy's loops.
    X = np.array([[1e60, 1, 1], [1, 1e60, 1], [1, 1, 1e60], [-1e60, 1e60, 1], [np.inf, 1, 1],
                  [1, -np.inf, 0.5], [0.5, -1, np.inf], *itertools.product([0.0, -0.0, 1, -2], repeat=3)])
    if coeffs == "signed zeros":
        # no term without x_1, so rows with x_1 = +-0 give zeros of either sign
        rng = np.random.default_rng(5)
        c = rng.choice([0.0, -0.0, 1.0, -0.5], (5, 4, 6)) * (1 - 1j)
        c[rng.random(c.shape) < 0.3] = 0
        c[0] = 0
    else:
        c = hermite_function((6, 6, 6)).poly.coeffs
    if route == "real":
        c = c.real.copy()
    else:
        X = X.astype(complex)
        X.imag[::2] = -0.0
        c = np.conj(c) if route == "complex conjugated" else c
    with np.errstate(all="ignore"):
        want = row_bits(horner_oracle(c, list(X.T)), len(X), c.dtype)
        assert not np.isfinite(want.view(c.dtype)).all()
        assert coeffs != "signed zeros" or np.signbit(want.view(float)[want.view(float) == 0]).any()
        np.testing.assert_array_equal(row_bits(_horner(c, list(X.T)), len(X), c.dtype), want)
        for i, row in enumerate(X):
            one = _horner(c, [np.array([x]) for x in row])
            np.testing.assert_array_equal(row_bits(one, 1, c.dtype)[0], want[i], err_msg=f"row {i}")


def signed_arrays(shape, kind: str, parts):
    """Arrays of the values ``parts``; complex ones with parts of their own."""
    real = arrays(float, shape, elements=st.sampled_from(parts))
    if kind == "real":
        return real

    def pair(re, im):
        z = re.astype(complex)
        z.imag = im  # keeps an imaginary -0, which 1j * im would not
        return z

    return st.builds(pair, real, arrays(float, shape, elements=st.sampled_from(parts[:4])))


@st.composite
def signed_cases(draw):
    """Coefficients of zeros of either sign and +-1, and rows of those, 2
    and infinities."""
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)))
    kind = draw(st.sampled_from(["real", "complex"]))
    c = draw(signed_arrays(shape, kind, [0.0, -0.0, 1.0, -1.0, 0.5]))
    rows = draw(st.integers(1, 30))
    return c, draw(signed_arrays((rows, len(shape)), kind,
                                 [0.0, -0.0, 1.0, -1.0, 2.0, np.inf, -np.inf]))


# Each line's first term is 0 + v_t, which drops an imaginary -0 of v_t: on
# the first line at its top power, then on one that starts below it.  At
# these rows the sign of a zero result shows whether it was dropped.  In the
# third, 2 x_1 + x_2 + 1 at x_2 = inf, the line 2 x_1 starts below its top
# power in x_2: taken from x_2's first power it would read 0 * inf, a NaN.
@PROPERTY
@given(case=signed_cases())
@example(case=(np.array([[1.0, 1.0], [2.0, 0.0]]), np.array([[1.0, np.inf]])))
@example(case=(np.array([[-0.0, complex(-1, -0.0)], [1 + 1j, 0]]),
               np.array([[complex(-0.0, 0.0), 0j]])))
@example(case=(np.array([[complex(-1, -0.0), 1 + 1j, 0], [-0.0, -0.0, 0]]),
               np.array([[0j, complex(-0.0, -0.0)]])))
def test_horner_has_the_bits_of_the_slab_recursion_at_zeros_and_infinities_property(case):
    # Lines that start below their top power, zero terms of either sign and
    # infinite coordinates, where a step the recursion skips would show
    c, X = case
    rows = len(X)
    with np.errstate(all="ignore"):
        want = row_bits(horner_oracle(c, list(X.T)), rows, c.dtype)
        np.testing.assert_array_equal(row_bits(_horner(c, list(X.T)), rows, c.dtype), want)
        for i in range(rows):
            one = _horner(c, [x[i:i + 1] for x in X.T])
            np.testing.assert_array_equal(row_bits(one, 1, c.dtype)[0], want[i], err_msg=f"row {i}")


def test_one_point_of_a_degree_18_image_enters_the_evaluator_once_per_axis(monkeypatch):
    # The benchmark ladder's top rung: the Segal-Bargmann image of a (6, 6, 6)
    # Hermite function is a 19x19x19 block with 715 terms.  Slab by slab, one
    # call per nonzero slab, a point enters the evaluator 210 times.
    rng = np.random.default_rng(36)
    R, T = rng.standard_normal((2, 3, 3))
    ctx = build_context(RealLinearMap.from_blocks(R @ R.T + 0.5 * np.eye(3), T @ T.T / 3))
    F = segal_bargmann_fn(ctx, hermite_function((6, 6, 6)))
    assert F.poly.coeffs.shape == (19, 19, 19)
    calls = []

    def counted(c, columns):
        calls.append(c.shape)
        return _horner(c, columns)

    monkeypatch.setattr("fockops.symbolic._horner", counted)
    F.evaluate(rng.standard_normal(3) + 1j * rng.standard_normal(3))
    assert len(calls) <= 3


def test_overflowing_real_polynomial_on_the_quadrature_route_is_an_evaluator_failure():
    # 1e308 x^4 overflows at the outer nodes.  The real route's inf times
    # the complex exponential has a NaN imaginary part, as the complex
    # route's own products do: both name NaN at the same node.  The
    # integrand runs under np.errstate, so no numpy warning comes first.
    ctx = build_context(RealLinearMap.from_blocks(np.eye(1), 2.0 * np.eye(1)))
    f = GaussPoly(Polynomial.monomial(1, (4,), 1e308), np.eye(1), np.zeros(1), 0.0)
    fields = [CallableField(1, f.evaluate_many),
              CallableField(1, lambda X: f.evaluate_many(X.astype(complex)))]
    for field in fields:
        with pytest.raises(EvaluatorError, match="integrand produced NaN at node 0$"):
            segal_bargmann(ctx, field, np.array([0.3 + 0.1j]))


# The benchmark's ladder rung (1, 10) at seed 10: a block weight and eight
# complex points.  The image of H_10 exp(-x^2/2) has monomial coefficients
# of alternating sign far larger than its values, the hardest rung for the
# closed route's rounding.
LADDER_R, LADDER_T = 0.6269934709788463, 0.5599967114160922
LADDER_POINTS = [
    0.4361917635960086 + 0.5224696478276091j, 0.16821240526378267 + 0.0904031917728084j,
    -0.08232945561879673 - 0.3651508009176074j, -0.5376904557935829 + 0.061363079647822165j,
    -0.3142203221254905 + 0.016192595624466632j, 0.49253639132762134 + 0.33591145009309614j,
    1.2712073009549056 + 0.14135697635295108j, 0.12492681648824613 + 0.7818961743612741j,
]


def test_segal_bargmann_of_hermite_10_against_mpmath():
    """The weighted transform s exp(R z^2/2) int exp(-(R+T)(z-x)^2/2) h(x) dx
    with s = (2/pi)^(1/4) ((R+T)/2)^(3/4) (RT)^(-1/4), by 50-digit quadrature.

    The bound is the error of the dict-of-monomials implementation this
    calculus replaced (2.49e-11 at the second point)."""
    import mpmath
    ctx = build_context(RealLinearMap.from_blocks(np.array([[LADDER_R]]),
                                                  np.array([[LADDER_T]])))
    F = segal_bargmann_fn(ctx, hermite_function((10,)))
    h10 = [1024, 0, -23040, 0, 161280, 0, -403200, 0, 302400, 0, -30240]
    with mpmath.workdps(50):
        R, T = mpmath.mpf(LADDER_R), mpmath.mpf(LADDER_T)
        s = (2 / mpmath.pi) ** 0.25 * ((R + T) / 2) ** 0.75 * (R * T) ** -0.25
        worst = 0.0
        for z0 in LADDER_POINTS:
            z = mpmath.mpc(z0)
            # beyond |x| = 16 the integrand is below 1e-95
            integral = mpmath.quad(
                lambda x: mpmath.exp(-(R + T) * (z - x) ** 2 / 2 - x**2 / 2)
                * mpmath.polyval(h10, x),
                [-16, -8, 0, 8, 16],
            )
            want = s * mpmath.exp(R * z**2 / 2) * integral
            got = mpmath.mpc(F.evaluate(np.array([z0])))
            worst = max(worst, float(abs(got - want) / abs(want)))
    assert worst <= 2.5e-11


def test_derivative_is_polyder_to_the_bit():
    # numpy's polyder loops over the degree in Python; _derivative must give
    # the same long-double values, the signs of zeros and shapes included
    rng = np.random.default_rng(4)
    pool = [0.0, -0.0, 1.5, -2.5, 1e300]
    for _ in range(300):
        shape = tuple(rng.integers(1, 5, size=rng.integers(1, 4)))
        c = np.empty(shape, dtype=np.clongdouble)
        c.real, c.imag = rng.choice(pool, size=shape), rng.choice(pool, size=shape)
        axis = int(rng.integers(0, len(shape)))
        got, want = _derivative(c, axis), polyder(c, axis=axis)
        assert got.shape == want.shape
        for part in (np.real, np.imag):
            assert np.array_equal(part(got), part(want))
            assert np.array_equal(np.signbit(part(got)), np.signbit(part(want)))


@pytest.mark.parametrize("build, match", [
    (lambda: Polynomial(2, {(1,): 1.0}), r"bad multi-index \(1,\) for n=2"),
    (lambda: Polynomial(1, {(-1,): 1.0}), r"bad multi-index \(-1,\) for n=1"),
    # normalized_monomial ended in math.factorial's ValueError
    (lambda: normalized_monomial(1, (-1,)), r"^bad multi-index \(-1,\) for n=1$"),
])
def test_malformed_symbolic_terms_are_unsupported_forms(build, match):
    with pytest.raises(UnsupportedFormError, match=match):
        build()


@pytest.mark.parametrize("build, match", [
    # these four were UnsupportedFormErrors
    (lambda: GaussPoly(Polynomial.constant(2, 1.0), np.eye(1), np.zeros(2), 0.0),
     r"P must be a matrix of shape \(2, 2\), got \(1, 1\)"),
    (lambda: GaussPoly(Polynomial.constant(1, 1.0), np.eye(1), np.zeros(2), 0.0),
     r"b must be a vector of shape \(1,\), got \(2,\)"),
    (lambda: GaussPoly.constant(2, 1.0).shifted([1.0]),
     r"d must be a vector of shape \(2,\), got \(1,\)"),
    (lambda: convolve_gaussian(1.0, np.eye(2), GaussPoly.constant(1, 1.0)),
     r"G must be a matrix of shape \(1, 1\), got \(2, 2\)"),
    # a 1 x 2 P at n = 2 was broadcast to the 2 x 2 matrix of ones
    (lambda: GaussPoly(Polynomial.constant(2, 1.0), np.ones((1, 2)), np.zeros(2), 0.0),
     r"P must be a matrix of shape \(2, 2\), got \(1, 2\)"),
    # a row one coordinate too wide was read as its first two
    (lambda: hermite_function((3, 2)).evaluate_many([[0.3, -0.4, 5.0]]),
     r"batches of shape \(m, 2\), one m for all; got \(1, 3\)$"),
    (lambda: GaussPoly(Polynomial(2), np.eye(2), np.zeros(2), 0.0).evaluate_many(np.ones((4, 3))),
     r"batches of shape \(m, 2\), one m for all; got \(4, 3\)$"),
    (lambda: Polynomial.from_coeffs(np.ones((2, 2))).evaluate_many(np.ones((3, 1))),
     r"batches of shape \(m, 2\), one m for all; got \(3, 1\)$"),
    (lambda: Polynomial.from_coeffs(np.ones((2, 2))).evaluate_many(np.ones(2)),
     r"batches of shape \(m, 2\), one m for all; got \(2,\)$"),
    # a 3 x 3 map at n = 2 gave the result of its leading 2 x 2 block
    (lambda: Polynomial.from_coeffs(np.ones((2, 2))).compose_affine(np.eye(3)),
     r"M must be a matrix of shape \(2, 2\), got \(3, 3\)"),
    (lambda: hermite_function((3, 2)).compose_linear(np.eye(3)),
     r"M must be a matrix of shape \(2, 2\), got \(3, 3\)"),
    (lambda: Polynomial.from_coeffs(np.ones(3)).compose_affine(np.ones((1, 2))),
     r"got \(1, 2\)"),
    (lambda: l2_inner_product(hermite_function((3, 2)), hermite_function((1,))),
     "polynomials in 2 and 1 variables"),
    (lambda: hermite_function((3, 2)) * hermite_function((1,)), "polynomials in 2 and 1 variables"),
    (lambda: Polynomial.from_coeffs(np.ones(3)) + Polynomial.from_coeffs(np.ones((2, 2))),
     "polynomials in 1 and 2 variables"),
])
def test_dimension_faults_are_dimension_mismatch_errors(build, match):
    with pytest.raises(DimensionMismatchError, match=match):
        build()


@pytest.mark.parametrize("f", [hermite_function((3, 2)), GaussPoly.monomial(2, (1, 2))],
                         ids=["hermite", "pure-polynomial"])
def test_exponent_of_rows_of_another_width_is_a_dimension_mismatch(f):
    # the Hermite exponent of [0.3, -0.4, 5.0] at n = 2 was -0.125, its third
    # coordinate unread
    for X in ([[0.3, -0.4, 5.0]], [0.3, -0.4], np.ones((2, 1))):
        with pytest.raises(DimensionMismatchError,
                           match=re.escape(f"(m, 2), one m for all; got {np.shape(X)}")):
            f.exponent_many(X)


def test_zero_term_collapses_to_the_zero_polynomial_whatever_its_gaussian():
    zero = GaussPoly(Polynomial(2), 3.0 * np.eye(2), np.ones(2), 1.0)
    assert zero.as_polynomial().is_zero()
