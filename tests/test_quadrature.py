"""Tensor Gauss-Hermite rules and the Monte Carlo fallback."""

import math

import numpy as np
import pytest

from fockops import (
    ConfigError,
    EvaluatorError,
    GaussPoly,
    NodeBudgetError,
    Polynomial,
    QuadratureRule,
    integrate,
    integrate_shifted,
    mc_integrate,
)
from fockops.quadrature import BLOCK, _block_sum


def gaussian_moment(m):
    # integral of u^{2m} e^{-u^2} du = sqrt(pi) (2m)! / (4^m m!)
    return math.sqrt(math.pi) * math.factorial(2 * m) / (4**m * math.factorial(m))


@pytest.mark.parametrize("k", [5, 13, 40, 60])
def test_one_dimensional_exactness_to_degree_2k_minus_1(k):
    u, w = QuadratureRule(dim=1, nodes_per_axis=k).nodes_1d()
    for m in range(k):
        raw = float(np.sum(w * u ** (2 * m)))
        assert raw == pytest.approx(gaussian_moment(m), rel=1e-13)
        if 2 * m + 1 <= 2 * k - 1:
            assert abs(float(np.sum(w * u ** (2 * m + 1)))) <= 1e-13 * gaussian_moment(m)


def test_raw_weight_sum_is_sqrt_pi_and_normalized_unit():
    rule = QuadratureRule(dim=1, nodes_per_axis=17)
    _, w = rule.nodes_1d()
    assert float(np.sum(w)) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    assert integrate(rule, lambda X: np.ones(X.shape[0])) == pytest.approx(1.0, rel=1e-14)


def test_standard_normal_second_moment():
    rule = QuadratureRule(dim=1, nodes_per_axis=40)
    val = integrate(rule, lambda X: X[:, 0] ** 2)
    assert val == pytest.approx(1.0, rel=1e-13)


def test_scaled_two_dimensional_normalization():
    rule = QuadratureRule(dim=2, nodes_per_axis=20, scaling=np.diag([4.0, 1.0]))
    val = integrate(rule, lambda X: np.ones(X.shape[0]))
    assert val == pytest.approx(1.0, rel=1e-13)
    # precision diag(4, 1) means variances (1/4, 1)
    second = integrate(rule, lambda X: X[:, 0] ** 2 + X[:, 1] ** 2)
    assert second == pytest.approx(0.25 + 1.0, rel=1e-12)


def test_polynomial_exactness_against_closed_moments():
    P = np.array([[2.0, 0.5], [0.5, 1.5]])
    rule = QuadratureRule(dim=2, nodes_per_axis=12, scaling=P)
    cov = np.linalg.inv(P)
    # degree-4 mixed moment of a centered Gaussian via Wick pairs
    want = 3 * cov[0, 0] * cov[0, 1]
    got = integrate(rule, lambda X: X[:, 0] ** 3 * X[:, 1])
    assert got == pytest.approx(want, rel=1e-12)


def test_scaling_covariance_change_of_variables():
    rng = np.random.default_rng(5)
    P = np.array([[1.8, 0.4], [0.4, 1.1]])
    sqrtP = np.linalg.cholesky(P) @ np.eye(2)  # any square root works here
    coeffs = rng.standard_normal(5)

    def f(X):
        x, y = X[:, 0], X[:, 1]
        return coeffs[0] + coeffs[1] * x + coeffs[2] * y + coeffs[3] * x * y + coeffs[4] * x**2

    # E_{N(0, I)}[f(sqrtP u)] = E_{N(0, P)}[f] = E under precision P^{-1}
    lhs = integrate(
        QuadratureRule(dim=2, nodes_per_axis=20), lambda U: f(U @ sqrtP.T)
    )
    rhs = integrate(
        QuadratureRule(dim=2, nodes_per_axis=20, scaling=np.linalg.inv(P)), f
    )
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_shifted_rule_recenters_the_weight():
    rule = QuadratureRule(dim=1, nodes_per_axis=40)
    val = integrate_shifted(rule, np.array([2.0]), lambda X: X[:, 0])
    assert val == pytest.approx(2.0, rel=1e-13)


def test_budget_rejected():
    with pytest.raises(NodeBudgetError):
        QuadratureRule(dim=6, nodes_per_axis=40)


@pytest.mark.parametrize("k", [371, 400])
def test_hermite_rules_past_the_float_range_rejected(k):
    # numpy's 371-node weights are all zero and from 380 nodes NaN; 370 is the last good rule
    QuadratureRule(dim=1, nodes_per_axis=370)
    with pytest.raises(ConfigError, match=f"{k} nodes per axis is beyond the float range"):
        QuadratureRule(dim=1, nodes_per_axis=k)


@pytest.mark.parametrize("kwargs, message", [
    (dict(dim=2, nodes_per_axis=0), "must be positive"),
    (dict(dim=2, nodes_per_axis=5, scaling=np.eye(3)), "scaling must be 2x2"),
], ids=["zero-nodes", "scaling-shape"])
def test_malformed_rule_is_config_error(kwargs, message):
    with pytest.raises(ConfigError, match=message):
        QuadratureRule(**kwargs)


def test_nan_propagates_as_structured_error():
    rule = QuadratureRule(dim=1, nodes_per_axis=5)

    def bad(X):
        out = np.ones(X.shape[0])
        out[2] = np.nan
        return out

    with pytest.raises(EvaluatorError):
        integrate(rule, bad)


def test_infinite_integrand_is_named_as_inf():
    rule = QuadratureRule(dim=1, nodes_per_axis=5)
    with pytest.raises(EvaluatorError, match="inf at node 0"):
        integrate(rule, lambda X: np.full(X.shape[0], np.inf))

    def late_nan(X):
        out = np.full(X.shape[0], np.inf)
        out[0] = 1.0
        out[1] = np.nan
        return out

    with pytest.raises(EvaluatorError, match="NaN at node 1"):
        integrate(rule, late_nan)


def test_mc_rejects_infinite_samples():
    def spike(X):
        out = np.ones(X.shape[0])
        out[3] = -np.inf
        return out

    with pytest.raises(EvaluatorError, match="inf at sample 3"):
        mc_integrate(5, 1000, np.eye(1), spike)


# 1e308 x^4 exp(-x^2/2) overflows at the outer nodes and at some samples
_HUGE = GaussPoly(Polynomial.monomial(1, (4,), 1e308), np.eye(1), np.zeros(1), 0.0)


@pytest.mark.parametrize("call", [
    lambda: integrate(QuadratureRule(1, 40), _HUGE.evaluate_many),
    lambda: integrate_shifted(QuadratureRule(1, 40), [0.5], _HUGE.evaluate_many),
    lambda: mc_integrate(3, 1000, np.eye(1), _HUGE.evaluate_many),
], ids=["integrate", "integrate_shifted", "mc_integrate"])
def test_an_integrand_that_overflows_is_an_evaluator_failure(call):
    # tier-1 turns RuntimeWarning into an error: numpy's overflow warning
    # must not come before the structured error
    with pytest.raises(EvaluatorError, match="integrand produced"):
        call()


def test_mc_sample_budget_is_checked_before_drawing():
    # 10^14 two-dimensional samples would take 1.6 PB
    with pytest.raises(NodeBudgetError, match="exceeds the budget"):
        mc_integrate(0, 10**14, np.eye(2), lambda X: X[:, 0])


def test_integrate_deterministic_bitwise():
    rule = QuadratureRule(dim=2, nodes_per_axis=25, scaling=np.diag([2.0, 3.0]))

    def f(X):
        return np.exp(-0.1 * X[:, 0] ** 2) * (X[:, 1] ** 4 + 0.3 * X[:, 0])

    first = integrate(rule, f)
    for _ in range(3):
        assert integrate(rule, f) == first


def test_mc_constant_is_exact():
    est, se = mc_integrate(123, 1000, np.eye(2), lambda X: np.ones(X.shape[0]))
    assert est == 1.0 + 0.0j
    assert se == 0.0


def test_mc_matches_moment_within_three_sigma():
    est, se = mc_integrate(7, 100_000, np.eye(1), lambda X: X[:, 0] ** 2)
    assert abs(est.real - 1.0) <= 3 * se


def test_mc_cross_checks_tensor_rule_on_degree_four():
    P = np.diag([1.5, 0.8])

    def f(X):
        return X[:, 0] ** 4 + X[:, 0] ** 2 * X[:, 1] ** 2

    exact = integrate(QuadratureRule(dim=2, nodes_per_axis=15, scaling=P), f)
    est, se = mc_integrate(99, 200_000, P, f)
    assert abs(est.real - exact.real) <= 3 * se


def test_mc_rejects_tiny_sample_counts():
    with pytest.raises(ConfigError):
        mc_integrate(1, 10, np.eye(1), lambda X: np.ones(X.shape[0]))


def test_mc_reproducible_for_same_seed():
    f = lambda X: np.tanh(X[:, 0])
    a, _ = mc_integrate(42, 5000, np.eye(1), f)
    b, _ = mc_integrate(42, 5000, np.eye(1), f)
    assert a == b


def _wide_range(rng, size):
    signs = rng.choice([-1.0, 1.0], size=size)
    return signs * 10.0 ** rng.uniform(-12.0, 12.0, size=size)


def _cancelling(rng, size):
    half = rng.standard_normal(size // 2) * 1e6
    noise = rng.standard_normal(size // 2)
    return rng.permutation(np.concatenate([half, -half + noise]))


@pytest.mark.parametrize("make", [_wide_range, _cancelling])
def test_block_sum_agrees_with_fsum(make):
    rng = np.random.default_rng(11)
    x = make(rng, 160_000)
    got = _block_sum(x)
    assert abs(got - math.fsum(x)) <= 1e-15 * float(np.sum(np.abs(x)))
    assert _block_sum(x).hex() == got.hex()
    # the real part of a complex array is a strided view; same order, same bits
    z = x + 1j * rng.standard_normal(x.size)
    assert _block_sum(z.real).hex() == got.hex()


def test_block_sum_short_and_tail_inputs():
    assert _block_sum(np.zeros(0)) == 0.0
    # shorter than one block: the tail alone, summed pairwise
    short = np.array([0.1, 0.2, 0.3])
    assert _block_sum(short) == float(np.sum(short))
    x = np.full(2 * BLOCK + 5, 0.5)
    assert _block_sum(x) == 0.5 * x.size
