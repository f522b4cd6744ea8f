"""Exactness of the polynomial-times-Gaussian calculus.

Closed forms are checked against brute-force numerical integration on
fine grids, which stays independent of the completing-the-square path.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from numpy.polynomial.hermite_e import hermegauss

from fockops import (
    CallableField,
    ConfigError,
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
    segal_bargmann,
    segal_bargmann_fn,
)
from numpy.polynomial.polynomial import polyder

from fockops.symbolic import _derivative, _smoothed


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
    np.testing.assert_array_equal(again.coeffs, p.coeffs)
    assert all(type(a) is int for alpha in p.terms for a in alpha)
    with pytest.raises(TypeError):
        p.terms[(0,) * p.n] = 1.0
    with pytest.raises(ValueError):
        p.coeffs[(0,) * p.n] = 1.0


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
    (lambda: GaussPoly(Polynomial.constant(2, 1.0), np.eye(1), np.zeros(2), 0.0),
     "GaussPoly dimensions disagree"),
    (lambda: GaussPoly(Polynomial.constant(1, 1.0), np.eye(1), np.zeros(2), 0.0),
     "GaussPoly dimensions disagree"),
    (lambda: GaussPoly.constant(2, 1.0).shifted([1.0]), r"expected a vector of length 2, got \(1,\)"),
    (lambda: convolve_gaussian(1.0, np.eye(2), GaussPoly.constant(1, 1.0)),
     "kernel and function dimensions disagree"),
])
def test_malformed_symbolic_terms_are_unsupported_forms(build, match):
    with pytest.raises(UnsupportedFormError, match=match):
        build()


def test_zero_term_collapses_to_the_zero_polynomial_whatever_its_gaussian():
    zero = GaussPoly(Polynomial(2), 3.0 * np.eye(2), np.ones(2), 1.0)
    assert zero.as_polynomial().is_zero()
