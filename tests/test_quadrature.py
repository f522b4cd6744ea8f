"""Tensor Gauss-Hermite rules and the Monte Carlo fallback."""

import math
import re
from functools import reduce

import numpy as np
import pytest

from fockops import (
    ConfigError,
    DimensionMismatchError,
    EvaluatorError,
    GaussPoly,
    NodeBudgetError,
    Polynomial,
    QuadratureRule,
    build_context,
    fock_gram,
    fock_rule,
    integrate,
    integrate_shifted,
    kernel_section,
    mc_integrate,
)
import fockops.quadrature as quadrature
from fockops.quadrature import BLOCK, CHUNK, _block_sum, _block_sums, _tensor_phase, _unit_grid
from fockops.testing import random_real_preserving_map

from conftest import same_bits


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
    (dict(dim=1, nodes_per_axis=True), "^nodes_per_axis must be an integer, got True$"),
    (dict(dim=1, nodes_per_axis=2.5), "^nodes_per_axis must be an integer, got 2.5$"),
    (dict(dim=True, nodes_per_axis=5), "^dim must be an integer, got True$"),
    (dict(dim=2.0, nodes_per_axis=5), "^dim must be an integer, got 2.0$"),
], ids=["zero-nodes", "bool-nodes", "float-nodes", "bool-dim", "float-dim"])
def test_malformed_rule_is_config_error(kwargs, message):
    # a bool built a rule of one node or one axis, a float node count ended in
    # numpy's TypeError
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


@pytest.mark.parametrize("value, kind", [(np.nan, "NaN"), (np.inf, "inf")])
def test_a_non_finite_value_in_a_later_chunk_is_named_by_its_grid_node(value, kind):
    rule = QuadratureRule(dim=3, nodes_per_axis=40)  # 64,000 nodes, four chunks
    node = rule.grid()[0][20_000]
    with pytest.raises(EvaluatorError, match=f"{kind} at node 20000$"):
        integrate(rule, lambda X: np.where((X == node).all(axis=1), value, 1.0))


# an integrand at m rows must return shape (m,): one value short, a column
# of pairs, and a scalar
WRONG_SHAPES = {"one short": lambda X: np.ones(len(X) - 1),
                "(m, 2)": lambda X: np.ones((len(X), 2)),
                "a scalar": lambda X: 1.0}
WANT_SHAPES = {"one short": r"\(24,\)", "(m, 2)": r"\(25, 2\)", "a scalar": r"\(\)"}


@pytest.mark.parametrize("name", sorted(WRONG_SHAPES))
def test_an_integrand_of_the_wrong_shape_is_a_dimension_mismatch(name):
    rule = QuadratureRule(2, 5)
    f = WRONG_SHAPES[name]
    match = rf"at 25 nodes must return 25 values, shape \(25,\), got shape {WANT_SHAPES[name]}$"
    with pytest.raises(DimensionMismatchError, match=match):
        integrate(rule, f)


@pytest.mark.parametrize("phase", [None, [0.5, -1.0]], ids=["plain", "phase"])
@pytest.mark.parametrize("name", sorted(WRONG_SHAPES))
def test_a_shifted_integrand_of_the_wrong_shape_is_a_dimension_mismatch(name, phase):
    match = rf"at 25 nodes must return 25 values, shape \(25,\), got shape {WANT_SHAPES[name]}$"
    with pytest.raises(DimensionMismatchError, match=match):
        integrate_shifted(QuadratureRule(2, 5), [0.1, 0.2], WRONG_SHAPES[name], phase)


@pytest.mark.parametrize("f, shape", [(lambda X: np.ones(5), r"\(5,\)"),
                                      (lambda X: np.ones((1000, 2)), r"\(1000, 2\)"),
                                      (lambda X: 1.0, r"\(\)")],
                         ids=["five values", "pairs", "a scalar"])
def test_a_monte_carlo_integrand_of_the_wrong_shape_is_a_dimension_mismatch(f, shape):
    # five values summed and divided by 1,000 samples read 0.005
    with pytest.raises(DimensionMismatchError,
                       match=rf"at 1000 samples must return 1000 values, .*got shape {shape}$"):
        mc_integrate(1, 1000, np.eye(2), f)


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


def test_mc_standard_error_beyond_the_float_range_is_an_evaluator_failure():
    # finite samples near 1e200 square past the float range: numpy's
    # overflow warning, or an inf standard error without the warning filter
    with pytest.raises(EvaluatorError, match="standard error"):
        mc_integrate(3, 1000, np.eye(1), lambda X: 1e200 * X[:, 0])


@pytest.mark.parametrize("samples, value", [(1000, 1e306), (2 * BLOCK, 4e304)],
                         ids=["in-a-block", "across-blocks"])
def test_mc_sum_beyond_the_float_range_is_an_evaluator_failure(samples, value):
    # finite samples whose sum passes the float maximum: numpy's overflow
    # warning in one block's sum, or fsum's OverflowError across blocks,
    # before the division by the sample count
    with pytest.raises(EvaluatorError, match="sum or standard error"):
        mc_integrate(3, samples, np.eye(1), lambda X: value * np.ones(len(X)))


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


@pytest.mark.parametrize("samples", [1000.5, np.float64(2000), 2000.0, True],
                         ids=["float", "numpy-float", "integral-float", "bool"])
def test_mc_sample_count_that_is_no_integer_is_config_error(samples):
    # a float count ended in numpy's TypeError from standard_normal
    message = f"^samples must be an integer, got {re.escape(repr(samples))}$"
    with pytest.raises(ConfigError, match=message):
        mc_integrate(1, samples, np.eye(1), lambda X: np.ones(X.shape[0]))


def test_mc_takes_a_numpy_integer_sample_count():
    est, _ = mc_integrate(1, np.int64(1000), np.eye(1), lambda X: np.ones(X.shape[0]))
    assert est == 1.0


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


@pytest.mark.parametrize("nodes", [4095, 4096, 4225, 16_384, 16_641, 20_480, 64_000, 160_000])
def test_chunked_reduction_has_the_bits_of_the_whole_array_block_sum(nodes, monkeypatch):
    # random grids of these node counts: a tail alone; one block; a block and
    # a tail; one chunk; a chunk joined by a tail; a chunk and a last chunk of
    # one block; the ladder's 40^3 and verify's 20^4 grids
    rng = np.random.default_rng(nodes)
    X = rng.standard_normal((nodes, 2))
    W = rng.uniform(0.0, 2.0 / nodes, nodes)
    center = np.array([0.25, -0.5])
    monkeypatch.setattr(QuadratureRule, "size", nodes)
    monkeypatch.setattr(QuadratureRule, "grid", lambda self, center=None, start=0, stop=None: (
        (X if center is None else X + center)[start:stop], W[start:stop]))

    def f(X):
        return np.exp(2.0 * X[:, 0]) * np.exp(3j * X[:, 1]) - 1e3 * X[:, 1]

    def whole(X):
        prods = f(X) * W
        return complex(_block_sum(prods.real), _block_sum(prods.imag))

    rule = QuadratureRule(dim=2, nodes_per_axis=2)
    for got, want in ((integrate(rule, f), whole(X)),
                      (integrate_shifted(rule, center, f), whole(X + center))):
        assert same_bits(got, want)


def whole_grid_oracle(rule, center=None):
    """The whole grid in one piece, the reference every chunk must match:
    every node index, the weights' outer product, one product with the
    transform and the centre added to a copy."""
    u, w = rule.nodes_1d()
    k, dim = rule.nodes_per_axis, rule.dim
    U = u[np.indices((k,) * dim).reshape(dim, -1).T]
    W = reduce(np.multiply.outer, [w] * dim).ravel() / math.pi ** (dim / 2.0)
    X = U @ rule._transform.T
    if center is not None:
        X = X + np.asarray(center, dtype=float)[None, :]
    return X, W


@pytest.mark.parametrize("k, dim", [
    (370, 1),  # less than one block
    (64, 2), (16, 3), (8, 4),  # one block exactly
    (143, 2),  # a chunk joined by a tail of 4,065 nodes
    (200, 2),  # 40,000: two chunks and a last one of 7,232
    (40, 3),  # the ladder's grid
    (20, 4),  # verify's grid
])
@pytest.mark.parametrize("centred", [False, True])
def test_each_chunk_of_the_grid_has_the_bits_of_the_whole_grid(k, dim, centred, monkeypatch):
    rng = np.random.default_rng(k * dim)
    M = rng.standard_normal((dim, dim))
    rule = QuadratureRule(dim, k, scaling=M @ M.T + dim * np.eye(dim))
    center = rng.standard_normal(dim) if centred else None
    X, W = whole_grid_oracle(rule, center)
    got = rule.grid(center)
    assert same_bits(got[0], X) and same_bits(got[1], W)
    # every chunk the reduction asks for, then ranges of 4,095, 4,096,
    # 20,479 and 40,000 rows from the first node and from node 4,097
    chunks, grid = [], QuadratureRule.grid
    monkeypatch.setattr(QuadratureRule, "grid", lambda self, *args: (
        chunks.append(args[1:]) or grid(self, *args)))
    if centred:
        integrate_shifted(rule, center, lambda X: np.ones(len(X)))
    else:
        integrate(rule, lambda X: np.ones(len(X)))
    monkeypatch.undo()
    assert chunks[0][0] == 0 and chunks[-1][1] == rule.size
    ranges = chunks + [(start, start + rows) for start in (0, 4097)
                       for rows in (4095, 4096, 20_479, 40_000) if start + rows <= rule.size]
    for start, stop in ranges:
        got = rule.grid(center, start, stop)
        assert same_bits(got[0], X[start:stop]) and same_bits(got[1], W[start:stop])


def test_the_unit_grid_keeps_one_read_only_shape():
    for dim, k in ((2, 30), (3, 12), (2, 30)):
        rule = QuadratureRule(dim, k)
        assert integrate(rule, lambda X: np.ones(len(X))) == pytest.approx(1.0, rel=1e-13)
        assert _unit_grid.cache_info().currsize == 1
        U, W = _unit_grid(k, dim)
        assert U.shape == (k**dim, dim) and W.shape == (k**dim,)
        # the layout the chunk products are fast on (see _unit_grid)
        assert U.flags.f_contiguous and not U.flags.c_contiguous
        for a in (U, W):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            rule.grid()[1][0] = 1.0


@pytest.mark.parametrize("shifted", [False, True])
def test_an_integrand_that_writes_into_its_rows_leaves_the_next_integration_unchanged(shifted):
    rule = QuadratureRule(3, 40, scaling=np.diag([1.0, 2.0, 0.5]))  # four chunks
    center = np.array([0.5, -1.0, 2.0])

    def run(f):
        return integrate_shifted(rule, center, f) if shifted else integrate(rule, f)

    def f(X):
        return np.exp(1j * X[:, 0]) * X[:, 1] ** 2 + X[:, 2]

    def scribble(X):
        values = f(X)
        X[:] = 1e6
        return values

    want = run(f)
    assert run(scribble) == want
    assert run(f) == want
    assert np.array_equal(center, [0.5, -1.0, 2.0])


def whole_grid_phase(rule, phase):
    """exp(i phase.(X - center)) on the whole grid in one piece: the outer
    product of the one-axis factors, the reference every range must match."""
    u, _ = rule.nodes_1d()
    c = rule._transform.T @ np.asarray(phase, float)
    return reduce(np.multiply.outer, [np.exp(1j * (v * u)) for v in c.tolist()]).ravel()


@pytest.mark.parametrize("k, dim", [
    (1, 1), (1, 2), (1, 3), (1, 4),  # one node: the scalar loop of a complex product
    (2, 4), (3, 3),  # a range of one row of the leading product is 2 or 3 values
    (370, 1), (143, 2), (29, 3), (13, 4),  # 20,449, 24,389 and 28,561 nodes
    (40, 3), (20, 4),  # the ladder's and verify's grids
])
def test_each_chunk_of_the_phase_has_the_bits_of_the_whole_outer_product(k, dim):
    rng = np.random.default_rng(7 * k + dim)
    M = rng.standard_normal((dim, dim))
    rule = QuadratureRule(dim, k, scaling=M @ M.T + dim * np.eye(dim))
    phase, center = rng.standard_normal(dim), rng.standard_normal(dim)
    whole = whole_grid_phase(rule, phase)
    rows = _tensor_phase(rule, phase)
    # every chunk the reduction asks for, then single rows, ranges across a
    # row of the leading product and ranges that start and stop off its rows
    lengths = []
    integrate_shifted(rule, center, lambda X: lengths.append(len(X)) or np.ones(len(X)), phase)
    starts = np.cumsum([0, *lengths]).tolist()
    size = rule.size
    assert starts[-1] == size
    ranges = [*zip(starts, starts[1:]), (0, 1), (size - 1, size), (0, size)]
    for start in {1, k - 1, k + 1, 3 * k // 2, 4097, size // 2}:
        for rows_wanted in (1, 2, k, k + 1, 5000, 40_000):
            if 0 <= start < start + rows_wanted <= size:
                ranges.append((start, start + rows_wanted))
    for start, stop in ranges:
        assert same_bits(rows(start, stop), whole[start:stop]), (start, stop)


@pytest.mark.parametrize("k, dim", [(40, 1), (40, 2), (40, 3), (20, 4)])
def test_the_phase_is_the_dense_oscillating_factor(k, dim):
    # the ladder's kernels G = R + T, R and T with eigenvalues in [0.5, 2.5],
    # at points z of scale 0.5: the factor exp(-i (a - X).G Im z), a = Re z
    rng = np.random.default_rng(dim)
    for _ in range(4):
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        G = (q * rng.uniform(1.0, 5.0, dim)) @ q.T
        G = 0.5 * (G + G.T)
        z = 0.5 * (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        rule = QuadratureRule(dim, k, scaling=G)
        X, _ = rule.grid(z.real)
        dense = np.exp(-1j * ((z.real - X) @ (G @ z.imag)))
        assert np.max(np.abs(_tensor_phase(rule, G @ z.imag)(0, rule.size) - dense)) <= 1e-14


@pytest.mark.parametrize("k, dim", [(1, 2), (370, 1), (143, 2), (40, 3)])
def test_a_phased_integral_has_the_bits_of_the_whole_array_sum(k, dim):
    rng = np.random.default_rng(k + dim)
    rule = QuadratureRule(dim, k, scaling=np.diag(rng.uniform(0.5, 2.5, dim)))
    phase, center = rng.standard_normal(dim), rng.standard_normal(dim)

    def f(X):
        return X[:, 0] ** 2 + 1j * X[:, -1] - 0.5

    X, W = rule.grid(center)
    prods = f(X) * whole_grid_phase(rule, phase) * W
    want = complex(_block_sum(prods.real), _block_sum(prods.imag))
    got = integrate_shifted(rule, center, f, phase)
    assert same_bits(got, want)


def test_a_phased_lebesgue_integral_is_the_gaussian_fourier_transform():
    # int exp(-(x-c).P(x-c)/2) exp(i t.(x-c)) dx = (2 pi)^{n/2} det(P)^{-1/2} exp(-t.P^{-1}t/2)
    P = np.array([[1.5, 0.3, 0.0], [0.3, 0.8, -0.2], [0.0, -0.2, 2.0]])
    t, c = np.array([0.7, -1.1, 0.4]), np.array([0.2, -0.3, 0.5])
    want = (2 * math.pi) ** 1.5 / math.sqrt(np.linalg.det(P)) * math.exp(
        -0.5 * t @ np.linalg.solve(P, t))
    rule = QuadratureRule(3, 40, scaling=P)
    got = rule.mass * integrate_shifted(rule, c, lambda X: np.ones(len(X)), t)
    assert got == pytest.approx(want, rel=1e-13, abs=1e-14 * want)


def test_a_non_finite_integrand_under_a_phase_is_named_by_its_grid_node():
    rule = QuadratureRule(dim=3, nodes_per_axis=40)
    node = rule.grid(np.ones(3))[0][20_000]
    with pytest.raises(EvaluatorError, match="NaN at node 20000$"):
        integrate_shifted(rule, np.ones(3), lambda X: np.where((X == node).all(axis=1), np.nan, 1),
                          np.array([0.5, 0.1, -0.2]))


# a centre or a phase that is not a finite real vector of length dim, with the
# error each call raises and the text it shows of the value
MALFORMED = {
    "a short center": ({"center": [0.1]}, DimensionMismatchError,
                       r"^center must be a vector of shape \(2,\), got \(1,\)$"),
    "a center of 3 values": ({"center": [0.1, 0.2, 0.3]}, DimensionMismatchError,
                             r"^center must be a vector of shape \(2,\), got \(3,\)$"),
    "a 2-D center": ({"center": [[0.1, 0.2]]}, DimensionMismatchError,
                     r"^center must be a vector of shape \(2,\), got \(1, 2\)$"),
    "a phase of the wrong length": ({"phase": [1.0]}, DimensionMismatchError,
                                    r"^phase must be a vector of shape \(2,\), got \(1,\)$"),
    "a complex center": ({"center": [0.1 + 0.5j, 0.0]}, ConfigError,
                         r"center must be real, got \[0\.1\+0\.5j, "),
    "a complex phase": ({"phase": np.array([1.0, 2j])}, ConfigError, r"phase must be real"),
    "a non-finite center": ({"center": [0.1, np.nan]}, ConfigError,
                            r"center must be finite, got \[0\.1, nan\]"),
    "a non-finite phase": ({"phase": [np.inf, 0.0]}, ConfigError,
                           r"phase must be finite, got \[inf,  0\.\]"),
}


@pytest.mark.parametrize("case, entry", [
    (case, entry) for case in sorted(MALFORMED)
    for entry in ("grid", "integrate_shifted")
    if not (entry == "grid" and "phase" in MALFORMED[case][0])])  # grid takes no phase
def test_a_malformed_center_or_phase_is_refused_before_any_node(case, entry):
    given, error, text = MALFORMED[case]
    rule, calls = QuadratureRule(2, 5), []

    def f(X):
        calls.append(len(X))
        return np.ones(len(X))

    args = {"center": [0.1, 0.2], "phase": None, **given}
    with pytest.raises(error, match=text):
        if entry == "grid":
            rule.grid(args["center"])
        else:
            integrate_shifted(rule, args["center"], f, args["phase"])
    assert not calls


def _buffered_chunk_sums(integrands, X, W, start, sample):
    """The chunk pass with every product casting the float weights through
    numpy's buffer, as it did before a Gram's weights were cast once."""
    parts = []
    for values, owned in integrands(X, start, sample):
        prods = np.multiply(values, W, out=values) if owned and values.size > 1 else values * W
        parts += [_block_sums(prods.real), _block_sums(prods.imag)]
    return parts


@pytest.mark.parametrize("rows", [1, 2, BLOCK - 1, BLOCK + 1, CHUNK, CHUNK + BLOCK - 1])
def test_a_grams_weights_cast_once_have_the_bits_of_the_buffered_cast(rows):
    # products near underflow: out of place, numpy's product with a complex
    # operand rounds some of them to a zero of the other sign
    rng = np.random.default_rng(rows)
    W = rng.uniform(0.0, 1.0, rows) * 10.0 ** rng.integers(-323, 1, rows)
    W[::97] = 0.0
    columns = [(rng.standard_normal(rows) + 1j * rng.standard_normal(rows))
               * 10.0 ** rng.integers(-300, 300, rows) for _ in range(5)]
    columns[3][::13] = complex(-0.0, 0.0)

    def integrands(X, start, sample):
        # the fourth is a caller's array, weighted out of place
        return ((values.copy(), k != 3) for k, values in enumerate(columns))

    with np.errstate(all="ignore"):
        got = quadrature._chunk_sums(integrands, None, W, 0, None)
        want = _buffered_chunk_sums(integrands, None, W, 0, None)
    assert same_bits(np.array(got), np.array(want))


def test_a_fock_gram_has_the_bits_of_the_buffered_weighting(monkeypatch):
    ctx = build_context(random_real_preserving_map(np.random.default_rng(3), 2, 0.5, 2.5))
    rule = fock_rule(ctx, 12)  # 20,736 nodes: a whole chunk and a tail
    Fs = [GaussPoly.monomial(2, alpha) for alpha in ((0, 0), (1, 0), (2, 1), (0, 3))]
    Gs = [kernel_section(ctx, [0.3 - 0.2j, -0.1 + 0.4j]), Fs[2]]
    got = fock_gram(ctx, Fs, Gs, rule)
    monkeypatch.setattr(quadrature, "_chunk_sums", _buffered_chunk_sums)
    assert same_bits(got, fock_gram(ctx, Fs, Gs, rule))
