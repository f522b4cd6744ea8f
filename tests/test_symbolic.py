"""Exactness of the polynomial-times-Gaussian calculus.

Closed forms are checked against brute-force numerical integration on
fine grids, which stays independent of the completing-the-square path.
"""

import numpy as np
import pytest

from fockops import (
    DivergenceError,
    GaussPoly,
    HolomorphicFunction,
    Polynomial,
    RangeOverflowError,
    convolve_gaussian,
    gaussian_integral,
    integrate_gausspoly,
    l2_inner_product,
)


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


def test_holomorphic_sum_product_eval():
    p = Polynomial(1, {(2,): 1.0})
    e = GaussPoly.gaussian(np.array([[0.5]]), np.array([0.3]))
    term = GaussPoly(p, e.P, e.b, e.gamma)
    F = HolomorphicFunction(1, [term]) + HolomorphicFunction.constant(1, 2.0)
    z = np.array([0.7 + 0.2j])
    expected = p.evaluate(z) * e.evaluate(z) + 2.0
    assert F.evaluate(z) == pytest.approx(expected, rel=1e-14)


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
    F = HolomorphicFunction.from_polynomial(Polynomial(1, {(1,): 2.0}))
    assert F.as_polynomial().terms == {(1,): 2.0}
    G = F.times_exp(GaussPoly.gaussian(np.array([[-0.5]])))
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
