"""Translation, restriction, heat semigroup, and the three transforms."""

import inspect
import math
from operator import attrgetter

import numpy as np
import pytest

from fockops import (
    CallableField,
    ConfigError,
    GaussPoly,
    NotPositiveDefiniteError,
    coherent_state_fn,
    Polynomial,
    QuadratureRule,
    RangeOverflowError,
    RealFormError,
    RealLinearMap,
    build_context,
    classical_to_weighted,
    coherent_inner,
    coherent_state,
    fock_inner_product,
    fock_norm,
    fock_rule,
    ground_state,
    heat_convolve,
    heat_kernel,
    hermite_function,
    kernel,
    kernel_from_densities,
    l2_inner_product,
    multiplier,
    normalized_monomial,
    phase_factor,
    restrict,
    restrict_adjoint,
    restriction_modulus,
    sb_eigenfunction,
    segal_bargmann,
    segal_bargmann_classical_fn,
    segal_bargmann_fn,
    segal_bargmann_gaussian_fn,
    translate,
    weighted_ground_state,
)
from fockops import transforms
from fockops.symbolic import integrate_gausspoly as _gp_integral
from fockops.report import make_relative_check
from fockops.transforms import (
    _adjoint_kernel,
    _classical_kernel,
    _gaussian_kernel,
    _modulus_kernel,
    _quadrature,
    _sb_kernel,
    density_s,
)
from fockops.testing import (
    random_real_preserving_map,
    random_spd_map,
    random_spd_matrix,
    rotated_weight,
)

from conftest import same_bits


def diag_ctx(r=4.0, t=1.0):
    return build_context(RealLinearMap.from_blocks(np.array([[r]]), np.array([[t]])))


def identity_ctx(n=1):
    return build_context(RealLinearMap.identity(n))


# -- multiplier and translation -------------------------------------------------


def test_multiplier_at_zero_shift_is_one():
    rng = np.random.default_rng(0)
    ctx = build_context(random_spd_map(rng, 2))
    for _ in range(5):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert multiplier(ctx, np.zeros(2), z) == pytest.approx(1.0, abs=1e-15)


def test_multiplier_diagonal_golden():
    assert multiplier(diag_ctx(), [1.0], [0.0]) == pytest.approx(np.exp(-2.0), rel=1e-14)


def random_cocycle_ctx(rng, n):
    """Weights satisfying the multiplier hypotheses: the complex-linear
    part must preserve the real subspace.  Half the draws are block
    diagonal; the rest rotate scalar blocks, keeping H real while making
    the conjugate-linear part complex."""
    if rng.uniform() < 0.5:
        return build_context(random_real_preserving_map(rng, n))
    r, t = rng.uniform(0.3, 4.0, size=2)
    A = RealLinearMap.from_blocks(r * np.eye(n), t * np.eye(n))
    return build_context(
        rotated_weight(A, rng.uniform(0.1, np.pi), axis=int(rng.integers(n)))
    )


def test_multiplier_cocycle_random_triples():
    rng = np.random.default_rng(1)
    for trial in range(100):
        n = 1 + trial % 2
        ctx = random_cocycle_ctx(rng, n)
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        lhs = multiplier(ctx, x, z) * multiplier(ctx, y, z - x)
        rhs = multiplier(ctx, x + y, z)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))


def test_multiplier_modulus_for_real_preserving_weights():
    rng = np.random.default_rng(2)
    ctx = build_context(random_real_preserving_map(rng, 2))
    for _ in range(10):
        x = rng.standard_normal(2)
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        az = ctx.A(z)
        ax = ctx.A(x.astype(complex))
        want = np.exp(np.dot(az, x).real - 0.5 * np.dot(ax, x).real)
        assert abs(multiplier(ctx, x, z)) == pytest.approx(want, rel=1e-12)


def test_translate_by_zero_is_identity():
    ctx = diag_ctx()
    F = GaussPoly.monomial(1, (2,), 1.5)
    G = translate(ctx, [0.0], F)
    for z in (0.0, 1.0 - 0.5j):
        assert G.evaluate([z]) == pytest.approx(F.evaluate([z]), rel=1e-14)


def test_translate_classical_constant_golden():
    # identity weight sends 1 to exp(z x - |x|^2/2)
    ctx = identity_ctx()
    x = np.array([0.8])
    G = translate(ctx, x, GaussPoly.constant(1, 1.0))
    for z in (0.0, 0.5 + 0.25j, -1.0):
        assert G.evaluate([z]) == pytest.approx(np.exp(z * 0.8 - 0.32), rel=1e-13)


def test_translate_composes_additively():
    rng = np.random.default_rng(3)
    ctx = build_context(random_spd_map(rng, 1))
    F = GaussPoly.from_polynomial(Polynomial(1, {(1,): 1.0, (0,): 0.3}))
    x, y = rng.standard_normal(1), rng.standard_normal(1)
    lhs = translate(ctx, x, translate(ctx, y, F))
    rhs = translate(ctx, x + y, F)
    for _ in range(5):
        z = rng.standard_normal(1) + 1j * rng.standard_normal(1)
        assert lhs.evaluate(z) == pytest.approx(rhs.evaluate(z), rel=1e-12)


def test_translate_preserves_norm_when_real_preserving():
    ctx = diag_ctx()
    rule = fock_rule(ctx, 40)
    for F in (GaussPoly.constant(1, 1.0), GaussPoly.monomial(1, (1,))):
        base = fock_norm(ctx, F, rule)
        shifted = fock_norm(ctx, translate(ctx, [0.7], F), rule)
        assert abs(shifted - base) <= 1e-6 * max(1.0, base)


def test_translate_norm_changes_without_real_form():
    ctx = build_context(rotated_weight(RealLinearMap.from_blocks(
        np.array([[4.0]]), np.array([[1.0]])), np.pi / 4))
    rule = fock_rule(ctx, 60)
    F = GaussPoly.constant(1, 1.0)
    base = fock_norm(ctx, F, rule)
    moved = fock_norm(ctx, translate(ctx, [0.7], F), rule)
    assert abs(moved - base) > 1e-3


# -- restriction and its adjoint --------------------------------------------------


def test_restrict_classical_weight_profile():
    ctx = identity_ctx()
    rf = restrict(ctx, GaussPoly.constant(1, 1.0))
    for x in (0.0, 0.7, -1.3):
        want = (2 * math.pi) ** -0.25 * math.exp(-0.5 * x * x)
        assert rf.evaluate([x]) == pytest.approx(want, rel=1e-14)


def test_restrict_diagonal_constant_at_origin():
    ctx = diag_ctx()
    rf = restrict(ctx, GaussPoly.constant(1, 1.0))
    assert rf.evaluate([0.0]) == pytest.approx(ctx.c_restriction, rel=1e-14)


def test_restrict_requires_real_form():
    ctx = build_context(rotated_weight(RealLinearMap.from_blocks(
        np.array([[4.0]]), np.array([[1.0]])), np.pi / 4))
    with pytest.raises(RealFormError):
        restrict(ctx, GaussPoly.constant(1, 1.0))


def test_restriction_intertwines_translation():
    rng = np.random.default_rng(5)
    ctx = build_context(random_real_preserving_map(rng, 2))
    F = GaussPoly.from_polynomial(Polynomial(2, {(1, 1): 1.0, (0, 0): 0.5}))
    y = rng.standard_normal(2)
    lhs = restrict(ctx, translate(ctx, y, F))
    plain = restrict(ctx, F)
    for _ in range(6):
        x = rng.standard_normal(2)
        want = plain.evaluate(x - y)
        assert lhs.evaluate(x) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_restrict_adjoint_classical_formula():
    # identity weight: adjoint equals (2 pi)^{n/4} e^{z^2/2} (g * heat kernel)(z)
    ctx = identity_ctx()
    g = GaussPoly(Polynomial(1, {(1,): 1.0, (0,): 0.5}), np.array([[1.2]]), np.zeros(1), 0.0)
    conv = heat_convolve(np.eye(1), 1.0, g)
    for z in (0.0, 0.6, 0.3 - 0.8j):
        want = (2 * math.pi) ** 0.25 * np.exp(0.5 * z * z) * conv.evaluate([z])
        got = restrict_adjoint(ctx, g).evaluate([z])
        assert got == pytest.approx(want, rel=1e-13)


def test_restrict_adjoint_dual_paths_agree():
    ctx = diag_ctx()
    Hn = 0.5 * (ctx.R + ctx.T)
    phi_h = heat_kernel(Hn, 1.0)
    callable_version = CallableField(1, lambda X: phi_h.evaluate_many(X))
    for z in ([0.0], [0.45], [0.2 - 0.3j]):
        closed = restrict_adjoint(ctx, phi_h).evaluate(z)
        quad = _quadrature(_adjoint_kernel(ctx), callable_version, z)
        assert abs(closed - quad) <= 1e-8 * max(1.0, abs(closed))


def test_restrict_adjoint_annihilates_zero():
    ctx = diag_ctx()
    zero = GaussPoly(Polynomial(1, {}), np.eye(1), np.zeros(1), 0.0)
    assert restrict_adjoint(ctx, zero).evaluate([0.3]) == 0.0


def test_restrict_adjoint_divergence_guard():
    from fockops import DivergenceError

    ctx = diag_ctx()
    growing = GaussPoly.gaussian(-3.0 * np.eye(1))  # outruns the kernel decay
    with pytest.raises(DivergenceError):
        restrict_adjoint(ctx, growing)


# -- heat family ------------------------------------------------------------------


def test_heat_kernel_normalization_closed_form():
    for P, t in ((np.eye(1), 0.7), (np.diag([4.0, 1.0]), 2.3)):
        assert _gp_integral(heat_kernel(P, t)) == pytest.approx(1.0, rel=1e-13)


def test_heat_density_standard_value():
    density = heat_kernel(np.eye(1), 1.0).evaluate_many(np.zeros((1, 1))).real
    assert density.tolist() == pytest.approx([(2 * math.pi) ** -0.5], rel=1e-14)


HEAT_BUILDS = {
    "heat_kernel": lambda P, t: heat_kernel(P, t).evaluate_many(np.zeros((1, len(P)))),
    "heat_convolve": lambda P, t: heat_convolve(P, t, GaussPoly.constant(len(P), 1.0)),
}


@pytest.mark.parametrize("build", HEAT_BUILDS.values(), ids=HEAT_BUILDS)
@pytest.mark.parametrize("t", [0.0, -1.0, math.inf, math.nan])
def test_a_heat_time_that_is_not_positive_and_finite_is_a_config_error(build, t):
    # a time of -1 gave nan+nanj with only a RuntimeWarning from log, 0 a
    # division by zero
    with pytest.raises(ConfigError, match=f"time must be positive and finite, got {t}$"):
        build(np.eye(1), t)


@pytest.mark.parametrize("build", HEAT_BUILDS.values(), ids=HEAT_BUILDS)
def test_a_heat_precision_that_is_not_spd_names_its_smallest_eigenvalue(build):
    # [[1, 2], [2, 1]] has eigenvalues -1 and 3: the constant was nan+nanj
    with pytest.raises(NotPositiveDefiniteError, match=r"\(min eigenvalue -1\.000e\+00\)$") as err:
        build(np.array([[1.0, 2.0], [2.0, 1.0]]), 1.0)
    assert err.value.min_eigenvalue == pytest.approx(-1.0, rel=1e-14)


def semigroup_check(P, t: float, s: float, points):
    """(kernel_t * kernel_s) against kernel_{t+s} on points, within 1e-12."""
    X = np.array(points)
    composed = heat_convolve(P, t, heat_kernel(P, s)).evaluate_many(X).tolist()
    target = heat_kernel(P, t + s).evaluate_many(X).real.tolist()
    return make_relative_check("heat_semigroup", composed, target, 1e-12)


def test_semigroup_property_closed_form():
    pts = [np.array([0.3, -0.2]), np.array([1.1, 0.4]), np.zeros(2)]
    assert semigroup_check(np.diag([4.0, 1.0]), 1.0, 1.0, pts).passed
    rng = np.random.default_rng(8)
    M = rng.standard_normal((2, 2))
    P = M @ M.T + 0.5 * np.eye(2)
    assert semigroup_check(P, 0.6, 1.7, [rng.standard_normal(2)]).passed


# -- phase factor ------------------------------------------------------------------


def phase_factor_from_weight(ctx, x) -> complex:
    """The phase computed from the full weight, exp(i Im <x, Ax>)."""
    x = np.asarray(x, dtype=float)
    inner = complex(np.dot(x, np.conj(ctx.A(x.astype(complex)))))
    return complex(np.exp(1j * inner.imag))


def test_phase_trivial_for_real_preserving():
    ctx = diag_ctx()
    assert phase_factor(ctx, [0.9]) == 1.0 + 0.0j


def test_phase_preserves_modulus():
    ctx = build_context(rotated_weight(RealLinearMap.from_blocks(
        np.array([[4.0]]), np.array([[1.0]])), np.pi / 4))
    h = heat_kernel(np.eye(1), 1.0)
    for x in ([0.0], [0.8], [-1.4]):
        assert abs(phase_factor(ctx, x) * h.evaluate(x)) == pytest.approx(
            abs(h.evaluate(x)), rel=1e-15
        )


def test_phase_from_conjugate_part_matches_weight_route():
    rng = np.random.default_rng(9)
    ctx = build_context(rotated_weight(random_real_preserving_map(rng, 2), 0.6, axis=1))
    for _ in range(8):
        x = rng.standard_normal(2)
        assert phase_factor(ctx, x) == pytest.approx(
            phase_factor_from_weight(ctx, x), rel=1e-13
        )


# -- Gram operator and modulus -----------------------------------------------------


def test_gram_classical_is_heat_convolution():
    ctx = identity_ctx()
    g = GaussPoly(Polynomial(1, {(2,): 1.0, (0,): 1.0}), np.array([[1.5]]), np.zeros(1), 0.0)
    conv = heat_convolve(np.eye(1), 1.0, g)
    for x in ([0.0], [0.5], [-1.1]):
        assert restrict(ctx, restrict_adjoint(ctx, g)).evaluate(x) == pytest.approx(
            conv.evaluate(x), rel=1e-12
        )


def test_modulus_fixes_constants():
    ctx = diag_ctx()
    one = GaussPoly.constant(1, 1.0)
    out = restriction_modulus(ctx, one)
    for x in ([0.0], [1.2]):
        assert out.evaluate(x) == pytest.approx(1.0, rel=1e-13)


def test_modulus_squares_to_gram():
    ctx = diag_ctx()
    h = GaussPoly(Polynomial(1, {(1,): 0.6, (0,): 1.0}), np.array([[2.0]]), np.zeros(1), 0.0)
    twice = restriction_modulus(ctx, restriction_modulus(ctx, h))
    gram = restrict(ctx, restrict_adjoint(ctx, h))
    for x in ([0.0], [0.4], [-0.9]):
        assert twice.evaluate(x) == pytest.approx(gram.evaluate(x), rel=1e-6)


def test_modulus_quadrature_path_matches_closed_form():
    ctx = diag_ctx()
    h = heat_kernel(np.eye(1) * 1.3, 1.0)
    callable_version = CallableField(1, lambda X: h.evaluate_many(X))
    for x in ([0.0], [0.7]):
        closed = restriction_modulus(ctx, h).evaluate(x)
        quad = _quadrature(_modulus_kernel(ctx), callable_version, x)
        assert abs(closed - quad) <= 1e-8 * max(1.0, abs(closed))


# -- classical transform -----------------------------------------------------------


def test_classical_transform_of_ground_state_is_one():
    g0 = ground_state(1)
    fn = segal_bargmann_classical_fn(g0)
    for z in (0.0, 1.0, 0.4 + 1.1j, -2.0j, 3.0):
        assert fn.evaluate([z]) == pytest.approx(1.0, rel=1e-12)
    # quadrature route for the callable version
    callable_version = CallableField(1, lambda X: g0.evaluate_many(X))
    for z in (0.0, 0.7 - 0.2j):
        got = _quadrature(_classical_kernel(1), callable_version, [z])
        assert got == pytest.approx(1.0, rel=1e-8)


def test_classical_transform_value_at_origin():
    g = GaussPoly(Polynomial(1, {(2,): 1.0}), np.array([[2.4]]), np.zeros(1), 0.0)
    want = (2 / math.pi) ** 0.25 * _gp_integral(
        g * GaussPoly.gaussian(2.0 * np.eye(1))
    )
    assert segal_bargmann_classical_fn(g).evaluate([0.0]) == pytest.approx(want, rel=1e-13)


def test_classical_transform_sends_eigenfunctions_to_monomials():
    for k in range(4):
        psi = sb_eigenfunction((k,))
        assert l2_inner_product(psi, psi) == pytest.approx(1.0, rel=1e-12)
        image = segal_bargmann_classical_fn(psi).as_polynomial(tol=1e-10)
        want = normalized_monomial(1, (k,)).as_polynomial()
        keys = set(image.terms) | set(want.terms)
        for key in keys:
            assert image.terms.get(key, 0) == pytest.approx(
                want.terms.get(key, 0), abs=1e-10
            )


def test_classical_transform_preserves_orthogonality():
    g0, g1 = sb_eigenfunction((0,)), sb_eigenfunction((1,))
    source = l2_inner_product(g0, g1)
    ctx = identity_ctx()
    image = fock_inner_product(
        ctx, segal_bargmann_classical_fn(g0), segal_bargmann_classical_fn(g1), fock_rule(ctx, 40)
    )
    assert abs(source) <= 1e-12
    assert abs(image) <= 1e-6


# -- weighted transform ------------------------------------------------------------


def test_weighted_transform_reduces_to_classical_at_identity():
    ctx = identity_ctx()
    f = GaussPoly(Polynomial(1, {(1,): 0.5, (0,): 1.0}), np.array([[1.8]]), np.zeros(1), 0.1)
    grid = [0.0, 0.5, -0.8, 0.3 + 0.6j, 1.0 - 1.0j]
    for z in grid:
        lhs = segal_bargmann(ctx, f, [z])
        rhs = segal_bargmann_classical_fn(f).evaluate([z])
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_weighted_transform_of_matched_gaussian_closed_form():
    # completing the square by hand: the matched Gaussian maps to
    # sqrt(det H) (det_V A)^{-1/4} exp(z.(R-T)z/4)
    ctx = diag_ctx()
    f0 = weighted_ground_state(ctx)
    const = math.sqrt(ctx.det_h) * ctx.det_v_a ** -0.25
    for z in (0.0, 0.4, 0.3 - 0.5j):
        want = const * np.exp(0.75 * z * z)  # (R - T)/4 = 3/4 here
        assert segal_bargmann(ctx, f0, [z]) == pytest.approx(want, rel=1e-12)


def test_weighted_transform_at_origin_matches_plain_integral():
    ctx = diag_ctx()
    f = GaussPoly(Polynomial(1, {(2,): 1.0, (0,): 0.3}), np.array([[1.1]]), np.zeros(1), 0.0)
    Hn = 0.5 * (ctx.R + ctx.T)
    pref = (2 / math.pi) ** 0.25 * ctx.det_h**0.75 * ctx.det_v_a**-0.25
    want = pref * _gp_integral(f * GaussPoly.gaussian(2.0 * Hn))
    assert segal_bargmann(ctx, f, [0.0]) == pytest.approx(want, rel=1e-13)


def test_weighted_transform_requires_real_form():
    ctx = build_context(rotated_weight(RealLinearMap.from_blocks(
        np.array([[4.0]]), np.array([[1.0]])), np.pi / 4))
    with pytest.raises(RealFormError):
        segal_bargmann(ctx, GaussPoly.constant(1, 1.0), [0.0])


# A point of the real subspace, a complex point and a function, in n = 2.
_X, _Z, _F = np.array([0.3, -0.2]), np.array([0.4 + 0.1j, -0.5 + 0.3j]), GaussPoly.constant(2, 1.0)

# Everything that reads a real block of the weight, by the name it is known by.
NEEDS_REAL_FORM = {
    "restrict": lambda ctx: restrict(ctx, _F),
    "restrict_adjoint": lambda ctx: restrict_adjoint(ctx, _F),
    "restriction_modulus": lambda ctx: restriction_modulus(ctx, _F),
    "segal_bargmann_fn": lambda ctx: segal_bargmann_fn(ctx, _F),
    "segal_bargmann": lambda ctx: segal_bargmann(ctx, _F, _Z),
    "segal_bargmann_gaussian_fn": lambda ctx: segal_bargmann_gaussian_fn(ctx, _F),
    "density_s": density_s,
    "coherent_state_fn": lambda ctx: coherent_state_fn(ctx, _Z),
    "coherent_state": lambda ctx: coherent_state(ctx, _X, _Z),
    "coherent_inner": lambda ctx: coherent_inner(ctx, _Z, _Z),
    "kernel_from_densities": lambda ctx: kernel_from_densities(ctx, _Z, _Z),
    "weighted_ground_state": weighted_ground_state,
    **{f"ctx.{name}": attrgetter(name) for name in
       ("R", "T", "S", "L", "M", "D", "det_r", "det_t", "det_s")},
}

# What every weight has, real form or not.
NEEDS_NO_REAL_FORM = {
    "kernel": lambda ctx: kernel(ctx, _Z, _Z),
    "multiplier": lambda ctx: multiplier(ctx, _X, _Z),
    "translate": lambda ctx: translate(ctx, _X, _F),
    "phase_factor": lambda ctx: phase_factor(ctx, _X),
    "classical_to_weighted": lambda ctx: classical_to_weighted(ctx, _F),
    "summary": lambda ctx: ctx.summary(),
}


def _rotated_ctx():
    rng = np.random.default_rng(9)
    return build_context(rotated_weight(random_real_preserving_map(rng, 2), 0.6, axis=1))


@pytest.mark.parametrize("name", NEEDS_REAL_FORM)
def test_what_reads_a_real_block_refuses_a_rotated_weight(name):
    ctx = _rotated_ctx()
    assert not ctx.real_preserving
    with pytest.raises(RealFormError, match="preserves the real subspace"):
        NEEDS_REAL_FORM[name](ctx)


@pytest.mark.parametrize("name", NEEDS_NO_REAL_FORM)
def test_what_needs_no_real_block_works_on_a_rotated_weight(name):
    ctx = _rotated_ctx()
    NEEDS_NO_REAL_FORM[name](ctx)
    assert not any(block in vars(ctx) for block in "RTSLMD")


def test_weighted_transform_unitary_on_gram_matrix():
    rng = np.random.default_rng(12)
    ctx = build_context(random_real_preserving_map(rng, 1))
    rule = fock_rule(ctx, 60)
    fams = [
        weighted_ground_state(ctx),
        GaussPoly(Polynomial(1, {(1,): 1.0}), np.array([[1.0]]), np.zeros(1), 0.0),
        GaussPoly(Polynomial(1, {(0,): 1.0}), np.array([[2.6]]), np.array([0.4]), 0.0),
        GaussPoly(Polynomial(1, {(2,): 1.0, (0,): -0.5}), np.array([[1.8]]), np.zeros(1), 0.0),
    ]
    images = [segal_bargmann_fn(ctx, f) for f in fams]
    for i in range(4):
        for j in range(4):
            src = l2_inner_product(fams[i], fams[j])
            img = fock_inner_product(ctx, images[i], images[j], rule)
            assert abs(src - img) <= 1e-6 * max(1.0, abs(src))


# -- Gaussian-measure transform and coherent states ---------------------------------


def test_gaussian_transform_fixes_constants_on_real_points():
    ctx = diag_ctx()
    one = GaussPoly.constant(1, 1.0)
    for z in (0.0, 0.9, -1.7):
        assert segal_bargmann_gaussian_fn(ctx, one).evaluate([z]) == pytest.approx(1.0, rel=1e-13)


def test_coherent_state_golden_values():
    ctx = diag_ctx()
    assert coherent_state(ctx, [0.0], [0.0]) == pytest.approx(
        math.sqrt(1.0 / 1.6), rel=1e-12
    )
    assert coherent_inner(ctx, [0.0], [0.0]) == pytest.approx(1.25, rel=1e-12)


def test_gaussian_transform_of_coherent_state_is_kernel_section():
    rng = np.random.default_rng(14)
    for trial in range(4):
        n = 1 + trial % 2
        ctx = build_context(random_real_preserving_map(rng, n))
        w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        state = coherent_state_fn(ctx, w)
        for _ in range(3):
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            got = segal_bargmann_gaussian_fn(ctx, state).evaluate(z)
            want = kernel(ctx, z, np.conj(w))
            assert abs(got - want) <= 1e-8 * max(1.0, abs(want))


def test_gaussian_transform_kernel_identity_dimension_three():
    # pure closed-form route, so higher dimensions cost nothing
    rng = np.random.default_rng(77)
    ctx = build_context(random_real_preserving_map(rng, 3))
    w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    state = coherent_state_fn(ctx, w)
    got = segal_bargmann_gaussian_fn(ctx, state).evaluate(z)
    want = kernel(ctx, z, np.conj(w))
    assert abs(got - want) <= 1e-8 * max(1.0, abs(want))
    lhs = coherent_inner(ctx, w, z)
    rhs = kernel(ctx, w, z)
    assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))


def test_kernel_from_density_integral_quadrature():
    rng = np.random.default_rng(15)
    ctx = diag_ctx()
    for _ in range(4):
        z = rng.standard_normal(1) + 1j * rng.standard_normal(1)
        w = rng.standard_normal(1) + 1j * rng.standard_normal(1)
        got = kernel_from_densities(ctx, z, w)
        want = kernel(ctx, z, w)
        assert abs(got - want) <= 1e-6 * max(1.0, abs(want))


@pytest.mark.parametrize("k", range(1, 7))
def test_kernel_from_densities_far_off_the_real_axis(k):
    # a rule centred at the real part of the stationary point missed by 1.9e4
    # relative at k = 3: the imaginary part oscillated across its nodes
    ctx = diag_ctx(r=1.0, t=2.0)
    z, w = np.array([0.3 + 1j * k]), np.array([-0.2 - 1j * k])
    want = kernel(ctx, z, w)
    assert abs(kernel_from_densities(ctx, z, w) - want) <= 1e-12 * abs(want)


def test_kernel_from_densities_over_seeded_weights_with_large_imaginary_parts():
    # imaginary parts up to 3 sigma; over seeds 0-12 of this sweep the worst
    # relative error measured was 8.3e-13, at seed 25 5.2e-14
    rng = np.random.default_rng(25)
    for i in range(60):
        n = 1 + i % 2
        ctx = build_context(random_real_preserving_map(rng, n))
        z, w = (rng.standard_normal(n) + 3j * rng.standard_normal(n) for _ in range(2))
        want = kernel(ctx, z, w)
        assert abs(kernel_from_densities(ctx, z, w) - want) <= 1e-12 * abs(want)


def test_coherent_gram_matches_kernel_gram():
    rng = np.random.default_rng(16)
    ctx = build_context(random_real_preserving_map(rng, 1))
    pts = [rng.standard_normal(1) + 1j * rng.standard_normal(1) for _ in range(3)]
    for w in pts:
        for z in pts:
            lhs = coherent_inner(ctx, w, z)
            rhs = kernel(ctx, w, z)
            assert abs(lhs - rhs) <= 1e-6 * max(1.0, abs(rhs))


def test_gaussian_transform_unitary_from_weighted_l2():
    ctx = diag_ctx()
    rule = fock_rule(ctx, 40)
    rho_s = density_s(ctx)
    fams = [
        GaussPoly.constant(1, 1.0),
        coherent_state_fn(ctx, np.array([0.4 + 0.2j])),
        GaussPoly(Polynomial(1, {(1,): 1.0}), np.array([[0.5]]), np.zeros(1), 0.0),
        GaussPoly(Polynomial(1, {(2,): 0.7, (0,): 0.2}), np.array([[0.9]]), np.zeros(1), 0.0),
    ]
    images = [segal_bargmann_gaussian_fn(ctx, f) for f in fams]
    for i in range(4):
        for j in range(4):
            src = l2_inner_product(fams[i], fams[j], weight=rho_s)
            img = fock_inner_product(ctx, images[i], images[j], rule)
            assert abs(src - img) <= 1e-6 * max(1.0, abs(src))


# -- both routes of every transform ----------------------------------------------


# map -> its closed entry point and the kernel of its quadrature route; the
# modulus is read at the real part of each point
ROUTES = {
    "restrict_adjoint": (restrict_adjoint, _adjoint_kernel),
    "restriction_modulus_at": (restriction_modulus, _modulus_kernel),
    "segal_bargmann_classical": (lambda ctx, f: segal_bargmann_classical_fn(f),
                                 lambda ctx: _classical_kernel(ctx.n)),
    "segal_bargmann": (segal_bargmann_fn, _sb_kernel),
    "segal_bargmann_gaussian": (segal_bargmann_gaussian_fn, _gaussian_kernel),
}


def _points(name, Z):
    return Z.real.astype(complex) if name == "restriction_modulus_at" else Z


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("name", sorted(ROUTES))
def test_closed_and_quadrature_routes_agree(name, n):
    closed, kernel = ROUTES[name]
    rng = np.random.default_rng(30 + n)
    ctx = build_context(random_real_preserving_map(rng, n, 0.5, 2.5))
    Z = _points(name, np.array([0.6 * rng.standard_normal(n) + 0.4j * rng.standard_normal(n)
                                for _ in range(3)]))
    # odd degrees and degree > 2 per axis reach odd Wick moments and
    # higher-order cross-covariance terms
    inputs = [hermite_function((2,) * n)] + ([hermite_function((5, 3))] if n == 2 else [])
    for f in inputs:
        image = closed(ctx, f)
        field = CallableField(n, f.evaluate_many)
        for z in Z:
            want = image.evaluate(z)
            got = _quadrature(kernel(ctx), field, z)
            assert abs(want - got) <= 1e-8 * max(1.0, abs(want))


@pytest.mark.parametrize("name", sorted(ROUTES))
def test_batch_of_points_matches_single_point_calls(name):
    # a point is the one-row batch: a batch has the bits of single calls,
    # on both routes
    closed, kernel = ROUTES[name]
    rng = np.random.default_rng(41)
    ctx = build_context(random_real_preserving_map(rng, 1, 0.5, 2.5))
    Z = _points(name, 0.6 * rng.standard_normal((4, 1)) + 0.4j * rng.standard_normal((4, 1)))
    f = hermite_function((3,))
    image, field = closed(ctx, f), CallableField(1, f.evaluate_many)
    for batch, single in ((image.evaluate_many(Z), image.evaluate),
                          (_quadrature(kernel(ctx), field, Z),
                           lambda z: _quadrature(kernel(ctx), field, z))):
        assert batch.shape == (4,)
        for z, value in zip(Z, batch):
            one = single(z)
            assert (value.real, value.imag) == (one.real, one.imag)


@pytest.mark.parametrize("name", sorted(ROUTES))
def test_the_quadrature_route_builds_one_rule_for_a_batch(monkeypatch, name):
    # the rule is scaled to the kernel's G, which no row changes: one rule
    # and its mass serve the batch, and each row keeps the bits of its
    # one-row call
    _, kernel = ROUTES[name]
    rng = np.random.default_rng(43)
    ctx = build_context(random_real_preserving_map(rng, 2, 0.5, 2.5))
    Z = _points(name, 0.6 * rng.standard_normal((4, 2)) + 0.4j * rng.standard_normal((4, 2)))
    field = CallableField(2, hermite_function((3, 1)).evaluate_many)
    singles = [_quadrature(kernel(ctx), field, z) for z in Z]
    rules = []
    monkeypatch.setattr(transforms, "QuadratureRule",
                        lambda *args, **kwargs: rules.append(QuadratureRule(*args, **kwargs))
                        or rules[-1])
    batch = _quadrature(kernel(ctx), field, Z)
    assert len(rules) == 1
    assert same_bits(batch, np.array(singles))


def test_quadrature_route_refuses_a_point_whose_shift_leaves_the_range():
    # exp(Im z.G Im z/2) overflowed outside np.errstate: numpy's warning, or
    # nan+nanj without the warning filter.  With the envelope it is one
    # exponent, a.Ra/2 + b.Tb/2 at z = a + ib, checked like any other
    ctx = build_context(RealLinearMap.from_blocks(np.eye(1), 2.0 * np.eye(1)))
    field = CallableField(1, hermite_function((2,)).evaluate_many)
    Z = np.array([[0.3 + 30j], [0.3 + 0.2j]])
    with pytest.raises(RangeOverflowError) as err:
        segal_bargmann(ctx, field, Z)
    assert err.value.exponent == pytest.approx(0.5 * 0.3**2 + 30.0**2)
    assert np.isnan(err.value.exponents).tolist() == [False, True]
    with pytest.raises(RangeOverflowError):
        segal_bargmann(ctx, field, Z[0])


# the modulus is taken at real points, with no shift and no envelope to overflow
@pytest.mark.parametrize("name", sorted(set(ROUTES) - {"restriction_modulus_at"}))
def test_quadrature_route_integrates_nothing_of_a_batch_that_leaves_the_range(name):
    # the batch error carries only the exponents: the row left in range is
    # not integrated either, so the field is never called
    _, kernel = ROUTES[name]
    ctx = build_context(RealLinearMap.from_blocks(np.eye(1), 2.0 * np.eye(1)))
    calls = []
    f = hermite_function((2,))
    field = CallableField(1, lambda X: calls.append(len(X)) or f.evaluate_many(X))
    Z = _points(name, np.array([[0.3 + 0.2j], [60.0 + 60j]]))
    with pytest.raises(RangeOverflowError):
        _quadrature(kernel(ctx), field, Z)
    assert calls == []
    _quadrature(kernel(ctx), field, Z[:1])
    assert calls


@pytest.mark.parametrize("fn", [
    restrict_adjoint, segal_bargmann, kernel_from_densities, _quadrature,
])
def test_transforms_take_no_quadrature_rule(fn):
    # the rule is built from the kernel; a caller's rule could only be wrong
    assert "rule" not in inspect.signature(fn).parameters


# -- reference functions -------------------------------------------------------------


def test_hermite_functions_match_derivative_definition():
    import mpmath

    for k in range(4):
        h = hermite_function((k,))
        for x in (0.0, 0.6, -1.3):
            want = float(
                (-1) ** k
                * mpmath.diff(lambda u: mpmath.e ** (-(u**2)), x, k)
                * mpmath.e ** (x**2 / 2)
            )
            assert h.evaluate([x]).real == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_hermite_functions_orthogonal():
    h0, h2 = hermite_function((0,)), hermite_function((2,))
    assert abs(l2_inner_product(h0, h2)) <= 1e-13
    norm = l2_inner_product(h2, h2).real
    assert norm == pytest.approx(2**2 * math.factorial(2) * math.sqrt(math.pi), rel=1e-12)


def _mp_hermite_rule(m):
    """The m-node Gauss rule of the standard normal weight at the working
    precision: numpy's nodes polished as roots of He_m, and their weights
    m! / (m^2 He_{m-1}(x)^2)."""
    import mpmath
    from numpy.polynomial.hermite_e import hermegauss

    def he(d, t):
        return 2 ** (-mpmath.mpf(d) / 2) * mpmath.hermite(d, t / mpmath.sqrt(2))

    nodes = [mpmath.findroot(lambda t: he(m, t), mpmath.mpf(x)) for x in hermegauss(m)[0].tolist()]
    return [(t, mpmath.factorial(m) / (m**2 * he(m - 1, t) ** 2)) for t in nodes]


def _mp_hermite_transform(R, T, degree, z):
    """The weighted transform of prod_i H_degree(x_i) exp(-|x|^2/2) at z to the
    working precision: s exp(z.Rz/2) int exp(-(z-x).G(z-x)/2 - |x|^2/2) p(x) dx,
    G = R + T, the square completed around mu = Q^-1 G z, Q = G + I, and the
    Gaussian mean of p taken by a tensor Gauss rule exact to its degree."""
    import itertools

    import mpmath
    n = len(z)
    G = R + T
    Q = G + mpmath.eye(n)
    s = ((2 / mpmath.pi) ** (mpmath.mpf(n) / 4) * mpmath.det(G / 2) ** mpmath.mpf(0.75)
         * (mpmath.det(R) * mpmath.det(T)) ** mpmath.mpf(-0.25))
    mu = mpmath.lu_solve(Q, G * mpmath.matrix(z))
    lift = mpmath.inverse(mpmath.cholesky(Q).T)
    mean = 0
    for nodes in itertools.product(_mp_hermite_rule(n * degree // 2 + 1), repeat=n):
        x = lift * mpmath.matrix([u for u, _ in nodes]) + mu
        mean += mpmath.fprod([w for _, w in nodes] + [mpmath.hermite(degree, v) for v in x])

    def form(u, M, v):
        return mpmath.fsum(u[j] * M[j, k] * v[k] for j in range(n) for k in range(n))

    return (s * mpmath.exp(form(z, R, z) / 2 + form(mu, Q, mu) / 2 - form(z, G, z) / 2)
            * (2 * mpmath.pi) ** (mpmath.mpf(n) / 2) / mpmath.sqrt(mpmath.det(Q)) * mean)


@pytest.mark.parametrize("n, degree, to_mpmath, to_closed", [
    (1, 10, 1.836e-14, 1.828e-14),
    (2, 6, 8.905e-15, 1.297e-14),
], ids=["1-10", "2-6"])
def test_quadrature_route_against_mpmath_and_the_closed_form(n, degree, to_mpmath, to_closed):
    """The largest relative errors of the quadrature route at eight ladder-like
    points, against 50 digits and against the closed form, stay within 5% of
    those of the route that took exp(-i (a - X).G Im z) node by node, given
    here: the tensor phase moves each value by a few roundings, so either
    figure may move by a few per cent either way."""
    import mpmath
    rng = np.random.default_rng(100 + n)
    R, T = (random_spd_matrix(rng, n, 0.5, 2.5) for _ in range(2))
    ctx = build_context(RealLinearMap.from_blocks(R, T))
    f = hermite_function((degree,) * n)
    Z = 0.5 * (rng.standard_normal((8, n)) + 1j * rng.standard_normal((8, n)))
    quad = _quadrature(_sb_kernel(ctx), CallableField(n, f.evaluate_many), Z)
    closed = segal_bargmann(ctx, f, Z)
    assert np.max(np.abs(quad - closed) / np.abs(closed)) <= 1.05 * to_closed
    with mpmath.workdps(50):
        Rm, Tm = mpmath.matrix(R.tolist()), mpmath.matrix(T.tolist())
        worst = max(float(abs(mpmath.mpc(got) - want) / abs(want)) for got, want in zip(
            quad, (_mp_hermite_transform(Rm, Tm, degree, [mpmath.mpc(v) for v in z.tolist()])
                   for z in Z)))
    assert worst <= 1.05 * to_mpmath


@pytest.mark.parametrize("build", [hermite_function, sb_eigenfunction])
@pytest.mark.parametrize("alpha", [(), (2, -1)])
def test_a_multi_index_that_is_empty_or_negative_is_a_config_error(build, alpha):
    # () was a TypeError from reduce; a negative degree read as degree 0
    with pytest.raises(ConfigError, match="multi-index needs one or more entries, none negative"):
        build(alpha)
