"""Measure, reproducing kernel, the classical-to-weighted unitary, and
the determinant identities."""

import logging
import math
import re

import numpy as np
import pytest

from fockops import (
    ConfigError,
    DimensionMismatchError,
    EvaluatorError,
    GaussPoly,
    QuadratureRule,
    Polynomial,
    RangeOverflowError,
    RealLinearMap,
    build_context,
    classical_to_weighted,
    eval_functional_norm,
    fock_gram,
    fock_inner_product,
    fock_norm,
    fock_rule,
    kernel,
    kernel_section,
    measure_density,
    normalized_monomial,
    weighted_to_classical,
)
from fockops.testing import random_real_preserving_map, random_spd_map
from fockops.verification import (
    VerifyConfig,
    check_constant_identities,
    check_determinant_identities,
)


def diag_ctx(r=4.0, t=1.0):
    return build_context(RealLinearMap.from_blocks(np.array([[r]]), np.array([[t]])))


def identity_ctx(n=1):
    return build_context(RealLinearMap.identity(n))


def test_measure_density_values():
    ctx = diag_ctx()
    assert measure_density(ctx, [0.0]) == pytest.approx(2 / math.pi, rel=1e-14)
    ctx1 = identity_ctx()
    assert measure_density(ctx1, [0.0]) == pytest.approx(1 / math.pi, rel=1e-14)
    assert measure_density(ctx1, [1.0]) == pytest.approx(np.exp(-1) / math.pi, rel=1e-14)


def test_kernel_classical_reduces_to_exponential():
    ctx = identity_ctx()
    assert kernel(ctx, [0.0], [0.0]) == pytest.approx(1.0, abs=1e-15)
    z, w = 0.3 + 0.4j, -0.2 + 0.9j
    assert kernel(ctx, [z], [w]) == pytest.approx(np.exp(z * np.conj(w)), rel=1e-14)


def test_kernel_diagonal_weight_goldens():
    ctx = diag_ctx()
    assert kernel(ctx, [0.0], [0.0]) == pytest.approx(1.25, abs=1e-14)
    # exponent at z = w = 1 splits as 3/4 + 5/2 + 3/4 = 4
    assert kernel(ctx, [1.0], [1.0]) == pytest.approx(1.25 * np.exp(4.0), rel=1e-13)


def test_kernel_hermitian_symmetry_and_diagonal_positive():
    rng = np.random.default_rng(17)
    for _ in range(25):
        ctx = build_context(random_spd_map(rng, 2))
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        kzw = kernel(ctx, z, w)
        kwz = kernel(ctx, w, z)
        assert kzw == pytest.approx(np.conj(kwz), rel=1e-13)
        diag = kernel(ctx, z, z)
        quad = np.dot(ctx.A(z), np.conj(z)).real
        assert diag.imag == pytest.approx(0.0, abs=1e-12 * abs(diag))
        assert diag.real == pytest.approx(ctx.c_a**-2 * np.exp(quad), rel=1e-12)


def test_kernel_overflow_is_structured():
    ctx = diag_ctx()
    with pytest.raises(RangeOverflowError):
        kernel(ctx, [30.0], [30.0])


def test_kernel_section_matches_pointwise_kernel():
    rng = np.random.default_rng(23)
    ctx = build_context(random_spd_map(rng, 2))
    w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    section = kernel_section(ctx, w)
    for _ in range(6):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert section.evaluate(z) == pytest.approx(kernel(ctx, z, w), rel=1e-14)


def test_kernel_section_is_holomorphic_cauchy_riemann():
    # finite-difference d/d(conj z) on each coordinate must vanish, even
    # when the conjugate-linear part has complex entries
    rng = np.random.default_rng(29)
    from fockops.testing import rotated_weight

    base = RealLinearMap.from_blocks(np.diag([3.0, 0.8]), np.diag([1.2, 2.0]))
    ctx = build_context(rotated_weight(base, 0.7, axis=1))
    w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    section = kernel_section(ctx, w)
    h = 1e-5
    for _ in range(4):
        z = 0.5 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        for j in range(2):
            ej = np.zeros(2)
            ej[j] = 1.0
            fx = (section.evaluate(z + h * ej) - section.evaluate(z - h * ej)) / (2 * h)
            fy = (section.evaluate(z + 1j * h * ej) - section.evaluate(z - 1j * h * ej)) / (2 * h)
            dbar = 0.5 * (fx + 1j * fy)
            scale = max(1.0, abs(fx), abs(fy))
            assert abs(dbar) <= 1e-6 * scale


def test_gram_matrices_positive_semidefinite():
    rng = np.random.default_rng(31)
    for _ in range(10):
        ctx = build_context(random_spd_map(rng, 2))
        pts = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
        gram = np.array([[kernel(ctx, zi, zj) for zj in pts] for zi in pts])
        vals = np.linalg.eigvalsh(gram)
        assert vals[0] >= -1e-10 * np.trace(gram).real


def test_eval_functional_norm():
    ctx = identity_ctx()
    z = 0.6 - 0.8j
    assert eval_functional_norm(ctx, [z]) == pytest.approx(np.exp(0.5 * abs(z) ** 2), rel=1e-13)
    ctxd = diag_ctx()
    assert eval_functional_norm(ctxd, [0.0]) == pytest.approx(1.25**0.5, rel=1e-14)
    assert eval_functional_norm(ctxd, [1.0]) == pytest.approx(
        math.sqrt(1.25 * np.exp(4.0)), rel=1e-13
    )


def test_unit_function_has_unit_norm_any_weight():
    rng = np.random.default_rng(41)
    one = GaussPoly.constant(1, 1.0)
    for _ in range(4):
        ctx = build_context(random_spd_map(rng, 1))
        assert fock_norm(ctx, one, fock_rule(ctx, 40)) == pytest.approx(1.0, rel=1e-10)
    ctx2 = build_context(random_real_preserving_map(rng, 2))
    one2 = GaussPoly.constant(2, 1.0)
    assert fock_norm(ctx2, one2, fock_rule(ctx2, 20)) == pytest.approx(1.0, rel=1e-9)


def test_monomial_norms_match_factorials_with_radial_oracle():
    # independent oracle: |z|^{2k} e^{-|z|^2} integrates radially to k!
    def radial(k):
        r = np.linspace(0.0, 12.0, 200_001)
        return np.trapezoid(r ** (2 * k) * np.exp(-(r**2)) * 2 * r, r)

    ctx = identity_ctx()
    rule = fock_rule(ctx, 40)
    z = GaussPoly.monomial(1, (1,))
    z2 = GaussPoly.monomial(1, (2,))
    assert radial(1) == pytest.approx(1.0, rel=1e-10)
    assert radial(2) == pytest.approx(2.0, rel=1e-10)
    assert fock_inner_product(ctx, z, z, rule).real == pytest.approx(1.0, rel=1e-12)
    assert fock_inner_product(ctx, z2, z2, rule).real == pytest.approx(2.0, rel=1e-12)
    assert abs(fock_inner_product(ctx, z2, z, rule)) < 1e-13


def test_normalized_monomials_orthonormal():
    ctx = identity_ctx()
    rule = fock_rule(ctx, 40)
    fams = [normalized_monomial(1, (k,)) for k in range(5)]
    for i, f in enumerate(fams):
        for j, g in enumerate(fams):
            want = 1.0 if i == j else 0.0
            assert fock_inner_product(ctx, f, g, rule) == pytest.approx(want, abs=1e-12)


def test_reproducing_property_quadrature():
    rng = np.random.default_rng(53)
    ctx = build_context(random_real_preserving_map(rng, 1))
    rule = fock_rule(ctx, 40)
    w = rng.standard_normal(1) + 1j * rng.standard_normal(1)
    w = w / max(1.0, np.linalg.norm(w))
    section = kernel_section(ctx, w)
    for alpha in [(0,), (1,), (2,), (3,), (4,)]:
        F = GaussPoly.monomial(1, alpha)
        lhs = fock_inner_product(ctx, F, section, rule)
        rhs = F.evaluate(w)
        assert abs(lhs - rhs) <= 1e-6 * (1 + abs(rhs))


def test_fock_rule_for_another_gaussian_is_rejected():
    # an identity-scaled rule would weight the integrand by the wrong
    # Gaussian and return 1.414 for a norm of 0.791
    ctx = diag_ctx()
    z = GaussPoly.monomial(1, (1,))
    with pytest.raises(ConfigError):
        fock_norm(ctx, z, QuadratureRule(dim=2, nodes_per_axis=40))
    with pytest.raises(ConfigError):
        fock_inner_product(ctx, z, z, fock_rule(diag_ctx(2.0, 1.0), 40))
    with pytest.raises(DimensionMismatchError, match="does not match 2n = 2"):
        fock_gram(ctx, [z], [z], fock_rule(identity_ctx(2), 5))
    assert fock_norm(ctx, z, fock_rule(ctx, 40)) == pytest.approx(0.7905694150420949, rel=1e-8)



@pytest.mark.parametrize("n, nodes", [(1, 40), (2, 12), (2, 20)])  # 20^4 nodes: ten chunks
def test_fock_gram_entries_equal_single_inner_products_bit_for_bit(n, nodes):
    rng = np.random.default_rng(61 + n)
    ctx = build_context(random_real_preserving_map(rng, n))
    rule = fock_rule(ctx, nodes)
    w = 0.5 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    Fs = [
        GaussPoly.monomial(n, (1,) + (0,) * (n - 1)),
        kernel_section(ctx, w),
        classical_to_weighted(ctx, normalized_monomial(n, (2,) * n)),
    ]
    Gs = [kernel_section(ctx, -w), GaussPoly.constant(n, 0.5 - 1j)]
    gram = fock_gram(ctx, Fs, Gs, rule)
    assert gram.shape == (3, 2)
    for i, F in enumerate(Fs):
        for j, G in enumerate(Gs):
            assert fock_inner_product(ctx, F, G, rule) == gram[i, j]


class _Spike:
    """Ones on the grid except one value at one node."""

    def __init__(self, node, value):
        self.node, self.value = node, value

    def evaluate_many(self, Z):
        out = np.ones(Z.shape[0], dtype=complex)
        out[self.node] = self.value
        return out


@pytest.mark.parametrize("value, kind", [(np.nan, "NaN"), (np.inf, "inf"), (-np.inf, "inf")])
def test_fock_gram_names_a_non_finite_column_value(value, kind):
    ctx = diag_ctx()
    one = GaussPoly.constant(1, 1.0)
    with pytest.raises(EvaluatorError, match=f"{kind} at node 7"):
        fock_gram(ctx, [one, one], [one, _Spike(7, value)], fock_rule(ctx, 10))
    with pytest.raises(EvaluatorError, match=f"{kind} at node 7"):
        fock_gram(ctx, [_Spike(7, value)], [one], fock_rule(ctx, 10))


class _Values:
    """A function whose evaluation returns ``shape(m)`` ones at m rows."""

    def __init__(self, shape):
        self.shape = shape

    def evaluate_many(self, Z):
        return np.ones(self.shape(len(Z)))


@pytest.mark.parametrize("shape, got", [(lambda m: m - 1, r"\(99,\)"),
                                        (lambda m: (m, 2), r"\(100, 2\)"),
                                        (lambda m: (), r"\(\)")],
                         ids=["one short", "pairs", "a scalar"])
def test_fock_gram_refuses_a_function_of_the_wrong_shape(shape, got):
    ctx = diag_ctx()
    one = GaussPoly.constant(1, 1.0)
    match = rf"at 100 nodes must return 100 values, shape \(100,\), got shape {got}$"
    with pytest.raises(DimensionMismatchError, match=match):
        fock_gram(ctx, [one], [_Values(shape)], fock_rule(ctx, 10))
    with pytest.raises(DimensionMismatchError, match=match):
        fock_gram(ctx, [_Values(shape)], [one], fock_rule(ctx, 10))


@pytest.mark.parametrize("f", [
    GaussPoly(Polynomial.monomial(1, (4,), 1e308), np.eye(1), np.zeros(1), 0.0),
    GaussPoly.constant(1, 1e200),  # finite values whose product overflows
], ids=["value", "product"])
def test_fock_norm_that_overflows_is_an_evaluator_failure(f):
    # under tier-1's -W error::RuntimeWarning a numpy warning would come first
    ctx = diag_ctx()
    with pytest.raises(EvaluatorError, match="integrand produced"):
        fock_norm(ctx, f, fock_rule(ctx, 40))


def test_fock_gram_evaluates_a_function_given_as_row_and_column_once(monkeypatch):
    ctx = diag_ctx()
    rule = fock_rule(ctx, 20)
    fams = [normalized_monomial(1, (k,)) for k in range(3)]
    copies = [normalized_monomial(1, (k,)) for k in range(3)]
    want = fock_gram(ctx, fams, copies, rule)
    calls = []
    evaluate_many = GaussPoly.evaluate_many
    monkeypatch.setattr(GaussPoly, "evaluate_many",
                        lambda self, Z: calls.append(self) or evaluate_many(self, Z))
    gram = fock_gram(ctx, fams, fams, rule)
    assert len(calls) == 3
    assert np.array_equal(gram, want)
    assert fock_norm(ctx, fams[1], rule) == math.sqrt(want[1, 1].real)
    assert len(calls) == 4


def test_fock_gram_logs_one_debug_line_per_call(caplog):
    # the grid reduction's line: dim, nodes, chunks and seconds
    ctx = diag_ctx()
    fams = [normalized_monomial(1, (k,)) for k in range(3)]
    with caplog.at_level(logging.DEBUG, logger="fockops"):
        fock_gram(ctx, fams, fams[:2], fock_rule(ctx, 30))
    records = [r for r in caplog.records if r.name.startswith("fockops")]
    assert len(records) == 1
    assert records[0].name == "fockops.quadrature"
    assert records[0].levelno == logging.DEBUG
    assert records[0].args[:3] == (2, 900, 1)
    assert records[0].args[3] >= 0.0


def test_classical_to_weighted_identity_weight_is_identity_map():
    ctx = identity_ctx()
    F = GaussPoly.monomial(1, (3,), 2.0)
    G = classical_to_weighted(ctx, F)
    for z in (0.0, 0.5 + 0.5j, -1.0j):
        assert G.evaluate([z]) == pytest.approx(F.evaluate([z]), rel=1e-14)


def test_direction_constants_at_origin():
    # the damping direction picks up c_a at the origin, the inverse 1/c_a
    ctx = diag_ctx()
    one = GaussPoly.constant(1, 1.0)
    assert weighted_to_classical(ctx, one).evaluate([0.0]) == pytest.approx(
        ctx.c_a, rel=1e-14
    )
    assert classical_to_weighted(ctx, one).evaluate([0.0]) == pytest.approx(
        1.0 / ctx.c_a, rel=1e-14
    )


def test_weighted_roundtrip_is_symbolic_identity():
    rng = np.random.default_rng(61)
    for n in (1, 2):
        ctx = build_context(random_spd_map(rng, n))
        poly_terms = {
            tuple(rng.integers(0, 3, size=n)): complex(rng.standard_normal(), rng.standard_normal())
            for _ in range(4)
        }
        F = GaussPoly.from_polynomial(Polynomial(n, poly_terms))
        back = weighted_to_classical(ctx, classical_to_weighted(ctx, F))
        got = back.as_polynomial(tol=1e-12)
        want = F.as_polynomial()
        keys = set(got.terms) | set(want.terms)
        for key in keys:
            assert got.terms.get(key, 0) == pytest.approx(want.terms.get(key, 0), abs=1e-12)


def test_weighted_map_is_isometry_on_monomials():
    rng = np.random.default_rng(71)
    ctx = build_context(random_real_preserving_map(rng, 1))
    ctx_classical = identity_ctx()
    for k in range(4):
        F = normalized_monomial(1, (k,))
        lhs = fock_norm(ctx, classical_to_weighted(ctx, F), fock_rule(ctx, 40))
        rhs = fock_norm(ctx_classical, F, fock_rule(ctx_classical, 40))
        assert abs(lhs - rhs) <= 1e-6


def test_determinant_groups_pass_at_another_seed():
    cfg = VerifyConfig(seed=83)
    checks = check_constant_identities(cfg) + check_determinant_identities(cfg)
    assert [c.name for c in checks if not c.passed] == []
    # det R det T / det((R+T)/2)^2 = det(I + (D - D^-1)^2 / 2)^-2 = 0.64 at R = 4, T = 1
    D = diag_ctx().D[0, 0]
    assert (1.0 + (D - 1.0 / D) ** 2 / 2.0) ** -2 == pytest.approx(0.64, abs=1e-12)


@pytest.mark.parametrize("z_shape, w_shape", [((3, 2), (2, 2)), ((3, 2), (3, 3)), ((2, 3), (2, 3))])
def test_kernel_of_batches_of_other_shapes_is_a_dimension_mismatch(z_shape, w_shape):
    # 3 rows of z against 2 of w were a broadcast ValueError; rows of width 3
    # at n = 2 were read as their first two coordinates
    ctx = build_context(RealLinearMap.from_blocks(np.diag([4.0, 2.0]), np.diag([1.0, 0.5])))
    with pytest.raises(DimensionMismatchError, match=re.escape(
            f"batches of shape (m, 2), one m for all; got {z_shape} and {w_shape}")):
        kernel(ctx, np.ones(z_shape), np.ones(w_shape))


def test_measure_density_of_rows_of_another_width_is_a_dimension_mismatch():
    # a row of 3 coordinates at n = 2 was read as its first two
    ctx = build_context(RealLinearMap.from_blocks(np.diag([4.0, 2.0]), np.diag([1.0, 0.5])))
    for z in (np.array([0.3 + 0.1j, -0.2 + 0.4j, 5 + 5j]), np.ones((4, 3)), np.ones((4, 1))):
        with pytest.raises(DimensionMismatchError,
                           match=rf"\(m, 2\), one m for all; got \(\d, {z.shape[-1]}\)$"):
            measure_density(ctx, z)


def test_kernel_section_at_a_w_of_another_length_is_a_dimension_mismatch():
    # w of length 3 at n = 2 ended in numpy's matmul ValueError
    ctx = build_context(RealLinearMap.from_blocks(np.diag([4.0, 2.0]), np.diag([1.0, 0.5])))
    for w in (np.ones(3), np.ones(1), np.ones((1, 2))):
        with pytest.raises(DimensionMismatchError,
                           match=re.escape(f"w must be a vector of shape (2,), got {w.shape}")):
            kernel_section(ctx, w)
