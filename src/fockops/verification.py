"""The full numerical check suite behind the ``verify`` command.

Every identity and invariant of the package is exercised here with
seeded inputs and explicit tolerances, grouped by module.  The functions
return :class:`~fockops.report.CheckResult` lists and are deterministic
for a fixed seed, so reports diff cleanly in CI.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from itertools import product as iter_product

import numpy as np

from .kernels import (
    classical_to_weighted,
    fock_gram,
    fock_norm,
    fock_rule,
    kernel,
    kernel_section,
    normalized_monomial,
    weighted_to_classical,
)
from .operators import (
    RealLinearMap,
    build_context,
    decompose,
    decomposition_residuals,
)
from .quadrature import (
    MAX_NODES_PER_AXIS,
    QuadratureRule,
    integrate,
    mc_integrate,
    rule_range_error,
)
from .report import CheckResult, fold, make_bound_check, make_check
from .symbolic import GaussPoly, Polynomial, l2_inner_product
from .testing import random_real_preserving_map, random_spd_map, random_spd_matrix, rotated_weight
from .transforms import (
    coherent_inner,
    coherent_state,
    coherent_state_fn,
    density_s,
    ground_state,
    heat_convolve,
    heat_density,
    heat_kernel,
    kernel_from_densities,
    multiplier,
    restrict,
    restriction_gram,
    restriction_modulus,
    segal_bargmann,
    segal_bargmann_classical_fn,
    segal_bargmann_fn,
    segal_bargmann_gaussian_fn,
    translate,
    weighted_ground_state,
)
from .truncation import TruncationSpec, ca_sequence

__all__ = ["VerifyConfig", "run_verification", "GROUPS"]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class VerifyConfig:
    """The suite's seed and the nodes per axis of its n=1 Fock rules; nodes
    past the last Gauss-Hermite rule in the float range are refused here,
    before any group runs."""

    seed: int = 2024
    nodes: int = 40

    def __post_init__(self):
        if self.nodes > MAX_NODES_PER_AXIS:
            raise rule_range_error(self.nodes)


def _monomials(n: int, max_degree: int):
    return [a for a in iter_product(range(max_degree + 1), repeat=n) if sum(a) <= max_degree]


# -- operator-core -------------------------------------------------------------


def check_operator_core(cfg: VerifyConfig) -> list[CheckResult]:
    rng = np.random.default_rng(cfg.seed)
    worst_sum = worst_commute = worst_anticommute = 0.0
    worst_h_eig = math.inf
    worst_k_sym = worst_sigma_k = 0.0
    for i in range(200):
        n = 1 + i % 3
        A = random_spd_map(rng, n)
        H, K = decompose(A)
        scale = A.norm()
        residuals = decomposition_residuals(A, H, K)
        worst_sum = fold(max, worst_sum, residuals["sum"])
        worst_commute = fold(max, worst_commute, residuals["hCommutes"])
        worst_anticommute = fold(max, worst_anticommute, residuals["kAnticommutes"])
        worst_h_eig = fold(min, worst_h_eig, np.linalg.eigvalsh(H.entries)[0] / scale)
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        lhs = np.dot(K(z), np.conj(w))
        rhs = np.dot(K(w), np.conj(z))
        worst_k_sym = fold(max, worst_k_sym, abs(lhs - rhs) / scale)
        sigma = A.sigma
        worst_sigma_k = fold(
            max,
            worst_sigma_k,
            np.linalg.norm((sigma @ K.entries).T - K.entries @ sigma, 2) / scale,
        )

    checks = [
        make_bound_check("decompose_sum_residual", worst_sum, 0.0, 1e-12),
        make_bound_check("decompose_h_commutes_residual", worst_commute, 0.0, 1e-12),
        make_bound_check("decompose_k_anticommutes_residual", worst_anticommute, 0.0, 1e-12),
        CheckResult("decompose_h_positive", worst_h_eig, 0.0, 0.0, 0.0, worst_h_eig > 0),
        make_bound_check("conjugate_part_symmetric_pairing", worst_k_sym, 0.0, 1e-12),
        make_bound_check("sigma_k_transpose_identity", worst_sigma_k, 0.0, 1e-12),
    ]

    worst_det = worst_two_t = 0.0
    ca_high = 0.0
    for _ in range(40):
        A = random_real_preserving_map(rng, int(rng.integers(1, 4)))
        ctx = build_context(A)
        rebuilt = RealLinearMap.from_blocks(ctx.R, ctx.T)
        if not np.array_equal(rebuilt.entries, A.entries):
            worst_det = math.inf
        worst_det = fold(max, worst_det, abs(ctx.det_s * ctx.det_h - ctx.det_v_a) / ctx.det_v_a)
        lhs = 2.0 * ctx.T - ctx.S
        rhs = ctx.T @ np.linalg.inv(ctx.R) @ ctx.S
        worst_two_t = fold(max, worst_two_t, np.linalg.norm(lhs - rhs, 2) / np.linalg.norm(lhs, 2))
        ca_high = fold(max, ca_high, ctx.c_a)
    checks.append(make_bound_check("det_s_times_det_h_equals_det_v_a", worst_det, 0.0, 1e-12))
    checks.append(make_bound_check("two_t_minus_s_factorization", worst_two_t, 0.0, 1e-12))
    checks.append(make_bound_check("normalization_constant_at_most_one", ca_high, 1.0, 1e-12))

    R = random_spd_matrix(rng, 2)
    equal = build_context(RealLinearMap.from_blocks(R, R.copy()))
    checks.append(
        make_check("normalization_equality_at_matching_blocks", equal.c_a, 1.0, 1e-12)
    )
    unequal = build_context(RealLinearMap.from_blocks(R, R + 0.4 * np.eye(2)))
    checks.append(
        CheckResult(
            "normalization_strictly_below_one_when_blocks_differ",
            unequal.c_a,
            1.0,
            1.0 - unequal.c_a,
            1e-6,
            unequal.c_a < 1.0 - 1e-6,
        )
    )
    return checks


# -- kernel constants and determinant identities ---------------------------------


def check_constant_identities(cfg: VerifyConfig) -> list[CheckResult]:
    rng = np.random.default_rng(cfg.seed + 1)
    worst_lcons = worst_block = worst_dets = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 6))
        R = random_spd_matrix(rng, n)
        T = random_spd_matrix(rng, n)
        ctx = build_context(RealLinearMap.from_blocks(R, T))
        lcons_lhs = ctx.c_a**-2 * ctx.c_restriction**2
        lcons_rhs = math.sqrt(ctx.det_h) / (2.0 * math.pi) ** (n / 2.0)
        worst_lcons = fold(max, worst_lcons, abs(lcons_lhs - lcons_rhs) / lcons_rhs)
        block_rhs = ctx.det_t / (math.sqrt(ctx.det_s) * float(np.linalg.det(ctx.L)))
        worst_block = fold(max, worst_block, abs(ctx.c_a**-2 - block_rhs) / block_rhs)
        worst_dets = fold(max, worst_dets, abs(ctx.det_s - ctx.det_v_a / ctx.det_h) / ctx.det_s)
    golden = build_context(
        RealLinearMap.from_blocks(np.array([[4.0]]), np.array([[1.0]]))
    )
    return [
        make_bound_check("constant_consistency_max_residual", worst_lcons, 0.0, 1e-12),
        make_bound_check("kernel_constant_block_form_max_residual", worst_block, 0.0, 1e-12),
        make_bound_check("det_s_formula_max_residual", worst_dets, 0.0, 1e-12),
        make_check("golden_scalar_kernel_constant", golden.c_a**-2, 1.25, 1e-14),
    ]


def check_determinant_identities(cfg: VerifyConfig) -> list[CheckResult]:
    """det R det T / det((R+T)/2)^2 = det(I + (D - D^{-1})^2 / 2)^{-2} with
    D = (R^{-1/2} T R^{-1/2})^{1/4}, and the arithmetic-geometric bound
    sqrt(det R det T) <= det((R+T)/2), strict unless R = T.  The block form
    of c_a^{-2} and the constant consistency are kernel-constants checks."""
    rng = np.random.default_rng(cfg.seed + 2)
    worst_identity = 0.0
    min_strict_margin = math.inf
    for _ in range(100):
        n = int(rng.integers(1, 6))
        R = random_spd_matrix(rng, n)
        T = random_spd_matrix(rng, n)
        D = build_context(RealLinearMap.from_blocks(R, T)).D
        det_rt = float(np.linalg.det(R)) * float(np.linalg.det(T))
        det_mean = float(np.linalg.det(0.5 * (R + T)))
        inner = (D - np.linalg.inv(D)) / math.sqrt(2.0)
        lhs = det_rt / det_mean**2
        rhs = float(np.linalg.det(np.eye(n) + inner @ inner)) ** -2
        worst_identity = fold(max, worst_identity, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
        if np.linalg.norm(R - T) > 1e-6:
            min_strict_margin = fold(min, min_strict_margin, det_mean - math.sqrt(det_rt))
    R = random_spd_matrix(rng, 3)
    det_r = float(np.linalg.det(R))
    equal = make_check("determinant_inequality_equality_at_matching_blocks",
                       math.sqrt(det_r * det_r), float(np.linalg.det(0.5 * (R + R))), 1e-12)
    return [
        make_bound_check("determinant_identity_max_residual", worst_identity, 0.0, 1e-10),
        CheckResult(
            "determinant_inequality_strict_when_blocks_differ",
            min_strict_margin,
            0.0,
            min_strict_margin,
            0.0,
            min_strict_margin > 0.0,
        ),
        equal,
    ]


def check_kernel_geometry(cfg: VerifyConfig) -> list[CheckResult]:
    rng = np.random.default_rng(cfg.seed + 3)
    worst_herm = 0.0
    worst_gram = 0.0
    for _ in range(20):
        ctx = build_context(random_spd_map(rng, 2))
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        kzw = kernel(ctx, z, w)
        worst_herm = fold(
            max, worst_herm, abs(kzw - np.conj(kernel(ctx, w, z))) / max(1.0, abs(kzw))
        )
        pts = 0.8 * (rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2)))
        # one batch of the 36 pairs (pts[a], pts[b]), row 6a + b
        gram = kernel(ctx, np.repeat(pts, 6, axis=0), np.tile(pts, (6, 1))).reshape(6, 6)
        lowest = np.linalg.eigvalsh(gram)[0]
        worst_gram = fold(max, worst_gram, -lowest / np.trace(gram).real)
    one = GaussPoly.constant(1, 1.0)
    ctx1 = build_context(random_spd_map(rng, 1))
    unit = fock_norm(ctx1, one, fock_rule(ctx1, cfg.nodes))
    return [
        make_bound_check("kernel_hermitian_symmetry_max_residual", worst_herm, 0.0, 1e-13),
        make_bound_check("kernel_gram_negative_eigenvalue_fraction", worst_gram, 0.0, 1e-10),
        make_check("unit_function_norm", unit, 1.0, 1e-8),
    ]


def check_reproducing_property(cfg: VerifyConfig) -> list[CheckResult]:
    rng = np.random.default_rng(cfg.seed + 4)
    checks = []
    for n, count, nodes in ((1, 3, cfg.nodes), (2, 2, 20)):
        worst = 0.0
        for _ in range(count):
            # moderate conditioning keeps the fixed node budget convergent
            ctx = build_context(random_real_preserving_map(rng, n, 0.5, 2.5))
            rule = fock_rule(ctx, nodes)
            w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            norm = np.linalg.norm(w)
            if norm > 1.0:
                w = w / norm
            monomials = [GaussPoly.monomial(n, alpha) for alpha in _monomials(n, 4)]
            gram = fock_gram(ctx, monomials, [kernel_section(ctx, w)], rule)
            for F, lhs in zip(monomials, gram[:, 0].tolist()):
                rhs = F.evaluate(w)
                worst = fold(max, worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
        checks.append(
            make_bound_check(f"reproducing_property_dim{n}_max_residual", worst, 0.0, 1e-6)
        )
    return checks


def check_unitary_between_spaces(cfg: VerifyConfig) -> list[CheckResult]:
    rng = np.random.default_rng(cfg.seed + 5)
    classical_1 = build_context(RealLinearMap.identity(1))
    classical_rule = fock_rule(classical_1, cfg.nodes)
    monomials = [normalized_monomial(1, (k,)) for k in range(5)]
    # the classical side does not depend on the weight: one norm per monomial
    classical_norms = [fock_norm(classical_1, F, classical_rule) for F in monomials]
    worst_iso = 0.0
    for _ in range(3):
        ctx = build_context(random_real_preserving_map(rng, 1, 0.5, 2.5))
        rule = fock_rule(ctx, max(cfg.nodes, 60))
        for F, classical_norm in zip(monomials, classical_norms):
            lifted = classical_to_weighted(ctx, F)
            worst_iso = fold(max, worst_iso, abs(fock_norm(ctx, lifted, rule) - classical_norm))

    worst_round = 0.0
    for n in (1, 2):
        ctx = build_context(random_spd_map(rng, n))
        terms = {
            tuple(rng.integers(0, 3, size=n)): complex(
                rng.standard_normal(), rng.standard_normal()
            )
            for _ in range(4)
        }
        F = GaussPoly.from_polynomial(Polynomial(n, terms))
        back = weighted_to_classical(ctx, classical_to_weighted(ctx, F)).as_polynomial(1e-11)
        fwd = classical_to_weighted(ctx, weighted_to_classical(ctx, F)).as_polynomial(1e-11)
        want = F.as_polynomial()
        for got in (back, fwd):
            diff = (got + want * -1.0).coeffs.ravel().tolist()
            worst_round = fold(max, worst_round, max(map(abs, diff)))
    return [
        make_bound_check("weighting_unitary_isometry_max_residual", worst_iso, 0.0, 1e-6),
        make_bound_check("weighting_unitary_roundtrip_max_residual", worst_round, 0.0, 1e-12),
    ]


# -- transforms -------------------------------------------------------------------


def _cocycle_ctx(rng, n):
    if rng.uniform() < 0.5:
        return build_context(random_real_preserving_map(rng, n))
    r, t = rng.uniform(0.3, 4.0, size=2)
    A = RealLinearMap.from_blocks(r * np.eye(n), t * np.eye(n))
    return build_context(
        rotated_weight(A, rng.uniform(0.1, math.pi), axis=int(rng.integers(n)))
    )


def check_transform_tower(cfg: VerifyConfig) -> list[CheckResult]:
    rng = np.random.default_rng(cfg.seed + 6)
    checks = []

    worst = 0.0
    for i in range(500):
        n = 1 + i % 2
        ctx = _cocycle_ctx(rng, n)
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        lhs = multiplier(ctx, x, z) * multiplier(ctx, y, z - x)
        rhs = multiplier(ctx, x + y, z)
        worst = fold(max, worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
    checks.append(make_bound_check("multiplier_cocycle_max_residual", worst, 0.0, 1e-12))

    worst = 0.0
    for n in (1, 2):
        ctx = build_context(random_real_preserving_map(rng, n))
        F = GaussPoly.from_polynomial(
            Polynomial(n, {tuple(np.eye(1, n, 0, dtype=int)[0]): 1.0, (0,) * n: 0.5})
        )
        y = rng.standard_normal(n)
        moved = restrict(ctx, translate(ctx, y, F))
        plain = restrict(ctx, F)
        for _ in range(6):
            x = rng.standard_normal(n)
            lhs = moved.evaluate(x)
            rhs = plain.evaluate(x - y)
            worst = fold(max, worst, abs(lhs - rhs) / max(1e-9, abs(rhs)))
    checks.append(make_bound_check("restriction_intertwining_max_residual", worst, 0.0, 1e-12))

    ctx = build_context(
        RealLinearMap.from_blocks(np.array([[4.0]]), np.array([[1.0]]))
    )
    rule = fock_rule(ctx, cfg.nodes)
    worst = 0.0
    for F in (GaussPoly.constant(1, 1.0), GaussPoly.monomial(1, (1,))):
        base = fock_norm(ctx, F, rule)
        moved = fock_norm(ctx, translate(ctx, [0.7], F), rule)
        worst = fold(max, worst, abs(moved - base))
    checks.append(make_bound_check("translation_unitary_real_form_max_residual", worst, 0.0, 1e-6))

    mixed = build_context(rotated_weight(ctx.A, math.pi / 4))
    mixed_rule = fock_rule(mixed, max(cfg.nodes, 60))
    one = GaussPoly.constant(1, 1.0)
    change = abs(
        fock_norm(mixed, translate(mixed, [0.7], one), mixed_rule)
        - fock_norm(mixed, one, mixed_rule)
    )
    checks.append(
        CheckResult(
            "translation_norm_shifts_without_real_form",
            change,
            1e-3,
            change,
            1e-3,
            change > 1e-3,
        )
    )

    pts = [rng.standard_normal(2) for _ in range(3)]
    M = rng.standard_normal((2, 2))
    resid = 0.0
    for P, t, s in ((np.diag([4.0, 1.0]), 1.0, 1.0), (M @ M.T + 0.5 * np.eye(2), 0.7, 1.9)):
        # kernel_t * kernel_s against kernel_{t+s}
        composed = heat_convolve(P, t, heat_kernel(P, s))
        for x in pts:
            target = heat_density(P, t + s, x)
            resid = fold(max, resid, abs(composed.evaluate(x) - target) / max(1.0, abs(target)))
    checks.append(make_bound_check("heat_semigroup_max_residual", resid, 0.0, 1e-12))

    h = GaussPoly(Polynomial(1, {(1,): 0.6, (0,): 1.0}), np.array([[2.0]]), np.zeros(1), 0.0)
    Hn = 0.5 * (ctx.R + ctx.T)
    heat_route = heat_convolve(Hn, 1.0, h)
    worst_gram = worst_mod = 0.0
    for x in ([0.0], [0.4], [-0.9]):
        lhs = restriction_gram(ctx, h, x)
        rhs = heat_route.evaluate(x)
        worst_gram = fold(max, worst_gram, abs(lhs - rhs) / max(1.0, abs(rhs)))
        twice = restriction_modulus(ctx, restriction_modulus(ctx, h)).evaluate(x)
        worst_mod = fold(max, worst_mod, abs(twice - lhs) / max(1.0, abs(lhs)))
    checks.append(make_bound_check("gram_equals_heat_convolution_max_residual", worst_gram, 0.0, 1e-6))
    checks.append(make_bound_check("modulus_squares_to_gram_max_residual", worst_mod, 0.0, 1e-6))

    g0 = ground_state(1)
    fn = segal_bargmann_classical_fn(g0)
    grid = [0.0, 1.0, -0.5, 0.4 + 1.1j, -2.0j]
    worst = 0.0
    for z in grid:
        worst = fold(max, worst, abs(fn.evaluate([z]) - 1.0))
    checks.append(make_bound_check("classical_transform_ground_state_max_residual", worst, 0.0, 1e-8))

    identity_ctx = build_context(RealLinearMap.identity(1))
    worst = 0.0
    f = GaussPoly(Polynomial(1, {(1,): 0.5, (0,): 1.0}), np.array([[1.8]]), np.zeros(1), 0.1)
    classical = segal_bargmann_classical_fn(f)
    for z in grid:
        lhs = segal_bargmann(identity_ctx, f, [z])
        rhs = classical.evaluate([z])
        worst = fold(max, worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    checks.append(make_bound_check("weighted_transform_identity_reduction_max_residual", worst, 0.0, 1e-10))

    worst = _transform_gram_residual(ctx, cfg)
    checks.append(make_bound_check("transform_gram_preservation_max_residual", worst, 0.0, 1e-6))
    return checks


def _transform_gram_residual(ctx, cfg: VerifyConfig) -> float:
    rule = fock_rule(ctx, max(cfg.nodes, 60))
    lebesgue = [
        weighted_ground_state(ctx),
        GaussPoly(Polynomial(1, {(1,): 1.0}), np.array([[1.4]]), np.zeros(1), 0.0),
        GaussPoly(Polynomial(1, {(0,): 1.0}), np.array([[2.6]]), np.array([0.4]), 0.0),
        GaussPoly(Polynomial(1, {(2,): 1.0, (0,): -0.5}), np.array([[1.8]]), np.zeros(1), 0.0),
    ]
    weighted_images = [segal_bargmann_fn(ctx, f) for f in lebesgue]
    classical_images = [segal_bargmann_classical_fn(f) for f in lebesgue]
    identity_ctx = build_context(RealLinearMap.identity(1))
    identity_rule = fock_rule(identity_ctx, max(cfg.nodes, 60))

    rho_s = density_s(ctx)
    gaussian_sources = [
        GaussPoly.constant(1, 1.0),
        coherent_state_fn(ctx, np.array([0.4 + 0.2j])),
        GaussPoly(Polynomial(1, {(1,): 1.0}), np.array([[0.5]]), np.zeros(1), 0.0),
        GaussPoly(Polynomial(1, {(2,): 0.7, (0,): 0.2}), np.array([[0.9]]), np.zeros(1), 0.0),
    ]
    gaussian_images = [segal_bargmann_gaussian_fn(ctx, f) for f in gaussian_sources]

    weighted_gram = fock_gram(ctx, weighted_images, weighted_images, rule).tolist()
    classical_gram = fock_gram(
        identity_ctx, classical_images, classical_images, identity_rule
    ).tolist()
    gaussian_gram = fock_gram(ctx, gaussian_images, gaussian_images, rule).tolist()

    worst = 0.0
    for i in range(4):
        for j in range(4):
            src = l2_inner_product(lebesgue[i], lebesgue[j])
            worst = fold(max, worst, abs(src - weighted_gram[i][j]) / max(1.0, abs(src)))
            worst = fold(max, worst, abs(src - classical_gram[i][j]) / max(1.0, abs(src)))
            src = l2_inner_product(gaussian_sources[i], gaussian_sources[j], weight=rho_s)
            worst = fold(max, worst, abs(src - gaussian_gram[i][j]) / max(1.0, abs(src)))
    return worst


def check_gaussian_formulation(cfg: VerifyConfig) -> list[CheckResult]:
    rng = np.random.default_rng(cfg.seed + 7)
    checks = []

    worst_closed = 0.0
    worst_quad = 0.0
    worst_gram = 0.0
    for n in (1, 2):
        ctx = build_context(random_real_preserving_map(rng, n))
        for _ in range(3):
            w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            state = coherent_state_fn(ctx, w)
            got = segal_bargmann_gaussian_fn(ctx, state).evaluate(z)
            want = kernel(ctx, z, np.conj(w))
            worst_closed = fold(max, worst_closed, abs(got - want) / max(1.0, abs(want)))
            got = kernel_from_densities(ctx, z, w)
            want = kernel(ctx, z, w)
            worst_quad = fold(max, worst_quad, abs(got - want) / max(1.0, abs(want)))
            lhs = coherent_inner(ctx, w, z)
            rhs = kernel(ctx, w, z)
            worst_gram = fold(max, worst_gram, abs(lhs - rhs) / max(1.0, abs(rhs)))
    checks.append(make_bound_check("coherent_transform_gives_kernel_max_residual", worst_closed, 0.0, 1e-8))
    checks.append(make_bound_check("kernel_density_integral_max_residual", worst_quad, 0.0, 1e-6))
    checks.append(make_bound_check("coherent_gram_equals_kernel_gram_max_residual", worst_gram, 0.0, 1e-6))

    golden = build_context(
        RealLinearMap.from_blocks(np.array([[4.0]]), np.array([[1.0]]))
    )
    checks.append(
        make_check(
            "golden_coherent_state_origin",
            coherent_state(golden, [0.0], [0.0]),
            math.sqrt(1.0 / 1.6),
            1e-6,
        )
    )
    checks.append(
        make_check(
            "golden_coherent_norm_squared",
            coherent_inner(golden, [0.0], [0.0]),
            1.25,
            1e-6,
        )
    )
    return checks


# -- quadrature ---------------------------------------------------------------------


def check_quadrature(cfg: VerifyConfig) -> list[CheckResult]:
    checks = []
    worst = 0.0
    for k in (13, 40, 60):
        u, w = QuadratureRule(dim=1, nodes_per_axis=k).nodes_1d()
        for m in range(0, k, max(1, k // 7)):
            want = math.sqrt(math.pi) * math.factorial(2 * m) / (
                4**m * math.factorial(m)
            )
            got = float(np.sum(w * u ** (2 * m)))
            worst = fold(max, worst, abs(got - want) / want)
    checks.append(make_bound_check("hermite_moment_exactness_max_residual", worst, 0.0, 1e-13))

    P = np.array([[1.8, 0.4], [0.4, 1.1]])
    sqrtP = np.linalg.cholesky(P)

    def f(X):
        return 1.0 + X[:, 0] - 0.5 * X[:, 1] + X[:, 0] * X[:, 1] + X[:, 0] ** 2

    lhs = integrate(QuadratureRule(dim=2, nodes_per_axis=20), lambda U: f(U @ sqrtP.T))
    rhs = integrate(QuadratureRule(dim=2, nodes_per_axis=20, scaling=np.linalg.inv(P)), f)
    checks.append(make_check("scaling_covariance", lhs, rhs, 1e-12))

    def g(X):
        return X[:, 0] ** 4 + X[:, 0] ** 2 * X[:, 1] ** 2

    precision = np.diag([1.5, 0.8])
    exact = integrate(QuadratureRule(dim=2, nodes_per_axis=15, scaling=precision), g)
    est, se = mc_integrate(cfg.seed, 100_000, precision, g)
    gap = abs(est.real - exact.real)
    checks.append(
        CheckResult("monte_carlo_three_sigma_agreement", gap, 3 * se, gap, 3 * se, gap <= 3 * se)
    )
    return checks


# -- truncation ----------------------------------------------------------------------


def check_truncation(cfg: VerifyConfig) -> list[CheckResult]:
    seq = ca_sequence(TruncationSpec.constant(4.0, 1.0, 20))
    worst = 0.0
    for n in range(1, 21):
        want = 0.5 * n * math.log(1.25)
        worst = fold(max, worst, abs(seq.log_ca_inv[n - 1] - want) / want)
    checks = [
        make_bound_check("scalar_tower_power_law_max_residual", worst, 0.0, 1e-12),
        CheckResult(
            "scalar_tower_unequal_blocks_diverge",
            float(not seq.bounded),
            1.0,
            0.0,
            0.0,
            not seq.bounded,
        ),
    ]
    equal = ca_sequence(TruncationSpec.constant(2.5, 2.5, 20))
    checks.append(
        CheckResult(
            "scalar_tower_equal_blocks_bounded",
            float(equal.bounded),
            1.0,
            0.0,
            0.0,
            equal.bounded,
        )
    )
    rng = np.random.default_rng(cfg.seed + 8)
    r = rng.uniform(0.5, 3.0, size=8)
    t = rng.uniform(0.5, 3.0, size=8)
    seq = ca_sequence(TruncationSpec(tuple(r), tuple(t), 8))
    worst = 0.0
    for n in range(1, 9):
        ctx = build_context(RealLinearMap.from_blocks(np.diag(r[:n]), np.diag(t[:n])))
        worst = fold(max, worst, abs(seq.log_ca_inv[n - 1] + math.log(ctx.c_a)))
    checks.append(
        make_bound_check("tower_matches_operator_context_max_residual", worst, 0.0, 1e-12)
    )
    return checks


GROUPS = {
    "operator-core": check_operator_core,
    "kernel-constants": check_constant_identities,
    "determinant-identities": check_determinant_identities,
    "kernel-geometry": check_kernel_geometry,
    "reproducing-property": check_reproducing_property,
    "space-unitary": check_unitary_between_spaces,
    "transform-tower": check_transform_tower,
    "gaussian-formulation": check_gaussian_formulation,
    "quadrature": check_quadrature,
    "truncation-diagnostics": check_truncation,
}


def run_verification(cfg: VerifyConfig) -> dict:
    """Run every group and assemble a deterministic report payload.

    The payload has no ``config`` entry: the CLI records the configuration
    as the user gave it.  Each group's check count and wall time go to the
    debug log, never into the payload."""
    groups = {}
    all_passed = True
    total = 0
    for name, fn in GROUPS.items():
        started = time.perf_counter()
        results = fn(cfg)
        log.debug("verify group %s: %d checks in %.3fs", name, len(results),
                  time.perf_counter() - started)
        groups[name] = [c.to_json() for c in results]
        total += len(results)
        all_passed = all_passed and all(c.passed for c in results)
    return {
        "command": "verify",
        "groups": groups,
        "checkCount": total,
        "pass": all_passed,
    }
