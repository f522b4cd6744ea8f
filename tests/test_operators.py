"""Decomposition, derived context, and matrix-square-root behaviour."""

import math

import numpy as np
import pytest

from fockops import (
    ConfigError,
    DimensionMismatchError,
    IllConditionedError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    RealFormError,
    RealLinearMap,
    build_context,
    decompose,
    require_spd,
    sqrt_spd,
)
from fockops.operators import spectral_norm
from fockops.testing import (plane_rotated, random_real_preserving_map, random_spd_map,
                             rotated_weight)

from conftest import same_bits


def diag_weight(r=4.0, t=1.0):
    return RealLinearMap.from_blocks(np.array([[r]]), np.array([[t]]))


def hermitian_inner(u: np.ndarray, v: np.ndarray) -> complex:
    """Complex inner product <u, v> = sum_j u_j conj(v_j)."""
    return complex(np.dot(u, np.conj(v)))


def test_structure_matrices_are_read_off_the_size():
    A = RealLinearMap(np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]))
    assert A.n == 3
    J, sigma = A.J, A.sigma
    assert np.array_equal(J @ J, -np.eye(6))
    assert np.array_equal(sigma @ sigma, np.eye(6))
    assert np.array_equal(J, RealLinearMap.identity(3).J)


@pytest.mark.parametrize("shape", [(3, 3), (2, 4), (0, 0), (4,)])
def test_a_map_needs_an_even_square_matrix(shape):
    with pytest.raises(DimensionMismatchError, match="2n x 2n"):
        RealLinearMap(np.ones(shape))


@pytest.mark.parametrize("X, Y", [
    (np.eye(2), np.eye(3)),
    (np.ones((2, 3)), np.ones((2, 3))),
    (np.ones(2), np.ones(2)),
], ids=["unequal", "not-square", "vectors"])
def test_blocks_must_be_square_matrices_of_equal_size(X, Y):
    with pytest.raises(DimensionMismatchError, match="equal size"):
        RealLinearMap.from_blocks(X, Y)


def test_a_determinant_beyond_the_float_range_is_config_error():
    # det R = 1.4e5^60 overflows although det_V A = 2.8^60 does not
    ctx = build_context(RealLinearMap.from_blocks(1.4e5 * np.eye(60), 2e-5 * np.eye(60)))
    with pytest.raises(ConfigError, match="detR is beyond the float range"):
        ctx.summary()


def test_require_spd_identity():
    A = RealLinearMap.identity(1)
    norm, eigenvalues = require_spd(A)
    assert norm == 1.0 and np.array_equal(eigenvalues, [1.0, 1.0])


def test_require_spd_indefinite_reports_eigenvalue():
    # eigenvalues of [[1, 2], [2, 1]] are 3 and -1
    A = RealLinearMap(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(NotPositiveDefiniteError) as info:
        require_spd(A)
    assert not isinstance(info.value, IllConditionedError)
    assert info.value.min_eigenvalue == pytest.approx(-1.0, abs=1e-12)


def test_require_spd_diagonal():
    norm, eigenvalues = require_spd(diag_weight())
    assert norm == pytest.approx(4.0) and np.allclose(eigenvalues, [1.0, 4.0])


def test_decompose_identity():
    A = RealLinearMap.identity(2)
    H, K = decompose(A)
    assert np.allclose(H.entries, np.eye(4), atol=1e-15)
    assert np.allclose(K.entries, 0.0, atol=1e-15)


def test_decompose_diagonal_weight_by_hand():
    # (A - JAJ)/2 and (A + JAJ)/2 for diag(4, 1) give 2.5 I and 1.5 sigma
    H, K = decompose(diag_weight())
    assert np.allclose(H.entries, 2.5 * np.eye(2), atol=1e-14)
    assert np.allclose(K.entries, 1.5 * np.diag([1.0, -1.0]), atol=1e-14)


def test_decompose_rejects_asymmetric():
    A = RealLinearMap(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(NotSymmetricError):
        decompose(A)


def test_decompose_rejects_indefinite():
    A = RealLinearMap(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(NotPositiveDefiniteError):
        decompose(A)


@pytest.mark.parametrize("R, T, ill", [
    ([[1e200]], [[1.0]], True),     # positive, eigenvalue ratio 1e-200
    ([[2e11]], [[1.0]], True),      # ratio 5e-12, just past the threshold
    ([[1e-12]], [[1e-12]], False),  # well conditioned, below the absolute floor
    ([[1.0]], [[-1.0]], False),     # indefinite
])
def test_ill_conditioned_weight_is_told_from_an_indefinite_one(R, T, ill):
    with pytest.raises(NotPositiveDefiniteError) as err:
        decompose(RealLinearMap.from_blocks(np.array(R), np.array(T)))
    assert isinstance(err.value, IllConditionedError) is ill
    if ill:
        assert err.value.eigenvalue_ratio == pytest.approx(T[0][0] / R[0][0], rel=1e-12)
        assert err.value.payload()["kind"] == "ill_conditioned"


@pytest.mark.parametrize("n", [1, 2, 3])
def test_decompose_postconditions_random(n):
    rng = np.random.default_rng(7 + n)
    for _ in range(60):
        A = random_spd_map(rng, n)
        H, K = decompose(A)
        J = A.J
        scale = np.linalg.norm(A.entries, 2)
        assert np.linalg.norm(A.entries - H.entries - K.entries, 2) <= 1e-12 * scale
        assert np.linalg.norm(H.entries @ J - J @ H.entries, 2) <= 1e-12 * scale
        assert np.linalg.norm(K.entries @ J + J @ K.entries, 2) <= 1e-12 * scale
        assert np.linalg.eigvalsh(H.entries)[0] > 0


def test_symmetry_of_parts_on_random_vectors():
    rng = np.random.default_rng(11)
    for _ in range(40):
        A = random_spd_map(rng, 2)
        H, K = decompose(A)
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert hermitian_inner(H(z), w) == pytest.approx(
            hermitian_inner(z, H(w)), abs=1e-12 * A.norm() * 10
        )
        assert hermitian_inner(K(z), w) == pytest.approx(
            hermitian_inner(K(w), z), abs=1e-12 * A.norm() * 10
        )


def test_sigma_k_transpose_identity():
    rng = np.random.default_rng(3)
    for _ in range(20):
        A = random_spd_map(rng, 2)
        _, K = decompose(A)
        sigma = A.sigma
        assert np.allclose((sigma @ K.entries).T, K.entries @ sigma, atol=1e-12)


def test_sqrt_spd_identity_and_diagonal():
    assert np.allclose(sqrt_spd(np.eye(3)), np.eye(3), atol=1e-15)
    assert np.allclose(sqrt_spd(np.diag([4.0, 1.0])), np.diag([2.0, 1.0]), atol=1e-14)


def test_sqrt_spd_residual_random():
    rng = np.random.default_rng(5)
    for _ in range(25):
        d = int(rng.integers(1, 6))
        M = rng.standard_normal((d, d))
        M = M @ M.T + 0.5 * np.eye(d)
        X = sqrt_spd(M)
        assert np.allclose(X, X.T, atol=1e-13)
        assert np.linalg.norm(X @ X - M) <= 1e-12 * np.linalg.norm(M)


def test_sqrt_spd_rejects_indefinite():
    with pytest.raises(NotPositiveDefiniteError):
        sqrt_spd(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_sqrt_spd_rejects_an_asymmetry_that_overflows():
    # the asymmetry and its bound were both inf, so the matrix passed and
    # came out as NaN after three overflow warnings
    with pytest.raises(NotSymmetricError) as err:
        sqrt_spd(np.array([[1e308, -1e308], [1e308, 1e308]]))
    assert err.value.asymmetry == np.inf


def test_sqrt_spd_takes_a_symmetric_matrix_whose_norm_overflows():
    # Frobenius norm sqrt(6) * 0.8e308 overflows; the asymmetry is 0
    root = sqrt_spd(0.8e308 * np.eye(6))
    np.testing.assert_allclose(root, np.sqrt(0.8e308) * np.eye(6), rtol=1e-15)


def test_sqrt_spd_halves_before_it_adds():
    # 0.5 * (M + M^T) overflowed to a NaN root here
    np.testing.assert_array_equal(sqrt_spd(np.diag([1e308, 1e308])), 1e154 * np.eye(2))


def test_blocks_are_derived_on_first_read():
    ctx = build_context(random_real_preserving_map(np.random.default_rng(4), 2))
    # each block reads only those before it
    for name in ("R", "T", "S", "L", "M", "D"):
        assert name not in vars(ctx)
        block = getattr(ctx, name)
        assert vars(ctx)[name] is block and not block.flags.writeable


def test_blocks_of_a_weight_near_the_float_maximum():
    # built outside build_context: pytest turns a RuntimeWarning into an error
    ctx = build_context(RealLinearMap.from_blocks(4e307 * np.eye(2), 2e307 * np.eye(2)))
    want = {"R": 4e307, "T": 2e307, "S": 8e307 / 3, "L": math.sqrt(4e307 / 3),
            "M": 2e307 / math.sqrt(4e307 / 3), "D": 0.5**0.25}
    for name, value in want.items():
        np.testing.assert_allclose(getattr(ctx, name), value * np.eye(2), rtol=1e-14)


def test_build_context_diagonal_goldens():
    ctx = build_context(diag_weight())
    assert ctx.real_preserving
    assert ctx.R[0, 0] == pytest.approx(4.0)
    assert ctx.T[0, 0] == pytest.approx(1.0)
    assert ctx.S[0, 0] == pytest.approx(1.6, abs=1e-14)
    assert ctx.L[0, 0] == pytest.approx(np.sqrt(0.4), abs=1e-14)
    assert ctx.c_a == pytest.approx(np.sqrt(0.8), abs=1e-14)
    # c from its defining formula, cross-checked through the constant identity
    assert ctx.c_restriction == pytest.approx(
        (2 * np.pi) ** -0.25 * 1.6**0.25, abs=1e-14
    )
    lhs = ctx.c_a**-2 * ctx.c_restriction**2
    rhs = np.sqrt(2.5) / np.sqrt(2 * np.pi)
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_build_context_identity():
    ctx = build_context(RealLinearMap.identity(1))
    assert ctx.real_preserving
    assert ctx.S[0, 0] == pytest.approx(1.0, abs=1e-14)
    assert ctx.L[0, 0] == pytest.approx(1.0, abs=1e-14)
    assert ctx.c_a == pytest.approx(1.0, abs=1e-15)
    assert ctx.c_restriction == pytest.approx((2 * np.pi) ** -0.25, abs=1e-15)


def test_build_context_rotated_weight_loses_real_form():
    ctx = build_context(rotated_weight(diag_weight(), np.pi / 4))
    assert not ctx.real_preserving
    for block in ("R", "T", "S"):
        with pytest.raises(RealFormError):
            getattr(ctx, block)
    # first real basis vector acquires an imaginary component under A
    image = ctx.A(np.array([1.0 + 0.0j]))
    assert abs(image[0].imag) > 0.1


def test_context_block_reconstruction_and_dets():
    rng = np.random.default_rng(21)
    for _ in range(20):
        A = random_real_preserving_map(rng, 3)
        ctx = build_context(A)
        assert ctx.real_preserving
        rebuilt = RealLinearMap.from_blocks(ctx.R, ctx.T)
        assert np.array_equal(rebuilt.entries, A.entries)
        assert ctx.det_s * ctx.det_h == pytest.approx(ctx.det_v_a, rel=1e-12)
        two_t_minus_s = 2 * ctx.T - ctx.S
        assert np.allclose(
            two_t_minus_s,
            ctx.T @ np.linalg.inv(ctx.R) @ ctx.S,
            atol=1e-12 * np.linalg.norm(ctx.T),
        )
        assert np.allclose(
            0.5 * (ctx.A.entries - ctx.A.J @ ctx.A.entries @ ctx.A.J),
            RealLinearMap.from_blocks(
                0.5 * (ctx.R + ctx.T), 0.5 * (ctx.R + ctx.T)
            ).entries,
            atol=1e-12 * A.norm(),
        )
        # conjugate-linear part is (R_V - T_V)/2 followed by conjugation
        half_diff = 0.5 * (ctx.R - ctx.T)
        want_K = RealLinearMap.from_blocks(half_diff, half_diff).entries @ ctx.A.sigma
        assert np.allclose(decompose(A)[1].entries, want_K, atol=1e-12 * A.norm())
        # M = L^{-1} T squares against 2T - S
        gram = ctx.M.T @ ctx.M
        want_gram = ctx.T @ np.linalg.inv(2 * ctx.T - ctx.S) @ ctx.T
        assert np.allclose(gram, want_gram, atol=1e-11 * np.linalg.norm(want_gram))


def test_c_a_bounded_by_one_with_equality_iff_blocks_match():
    rng = np.random.default_rng(9)
    for _ in range(30):
        ctx = build_context(random_spd_map(rng, 2))
        assert ctx.c_a <= 1.0 + 1e-12
    R = random_spd_matrix_like(rng)
    ctx_eq = build_context(RealLinearMap.from_blocks(R, R.copy()))
    assert ctx_eq.c_a == pytest.approx(1.0, abs=1e-12)
    ctx_ne = build_context(RealLinearMap.from_blocks(R, R + 0.5 * np.eye(2)))
    assert ctx_ne.c_a < 1.0 - 1e-6


def random_spd_matrix_like(rng):
    M = rng.standard_normal((2, 2))
    return M @ M.T + 0.8 * np.eye(2)


def test_context_matrices_are_read_only():
    # a write to H_matrix changed kernel() while c_a and the roots kept the old weight
    ctx = build_context(rotated_weight(diag_weight(), 0.3))
    for name in ("H_matrix", "K_matrix", "sqrt_H_matrix", "inv_sqrt_H_matrix"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(ctx, name)[0, 0] = 50


_RNG = np.random.default_rng(5)
NAN, INF = float("nan"), float("inf")
SPECTRAL_CASES = {
    "one matrix": _RNG.standard_normal((4, 4)),
    "one complex matrix": _RNG.standard_normal((3, 3)) + 1j * _RNG.standard_normal((3, 3)),
    "a stack": _RNG.standard_normal((5, 4, 4)),
    "a stack of stacks": _RNG.standard_normal((2, 3, 2, 2)),
    "a rectangular stack": _RNG.standard_normal((3, 2, 5)),
    "a zero matrix": np.zeros((3, 3)),
    "a stack of zero matrices": np.zeros((2, 2, 2)),
    "an integer matrix": np.array([[3, 0], [4, 1]]),
    "an inf entry": np.array([[1.0, INF], [0.0, 1.0]]),
    "a NaN entry": np.array([[1.0, NAN], [0.0, 1.0]]),
    "a NaN in a stack": np.stack([np.eye(2), np.array([[NAN, 0.0], [0.0, 1.0]])]),
}


def _outcome(norm, X):
    """The value's type and bits, or the error's type and message."""
    try:
        value = norm(X)
    except np.linalg.LinAlgError as err:
        return type(err), str(err)
    return type(value), np.asarray(value).dtype, np.asarray(value).shape, value


@pytest.mark.parametrize("case", SPECTRAL_CASES)
def test_spectral_norm_is_numpys_2_norm(case):
    # the first singular value of LAPACK's svd, where norm takes their maximum
    X = SPECTRAL_CASES[case]
    got = _outcome(spectral_norm, X)
    want = _outcome(lambda X: np.linalg.norm(X, 2, axis=(-2, -1)), X)
    assert got[:-1] == want[:-1]
    if got[0] is not np.linalg.LinAlgError:
        assert same_bits(got[-1], want[-1])
    if "NaN" in case:
        assert got[0] is np.linalg.LinAlgError
    elif X.ndim == 2:
        assert got[0] is np.float64


@pytest.mark.parametrize("n, axis", [(1, 0), (2, 0), (2, 1), (3, 2)])
def test_rotated_weight_is_the_plane_rotation_of_its_entries(n, axis):
    A = random_spd_map(np.random.default_rng(n + axis), n)
    rotated = rotated_weight(A, 0.7, axis)
    assert same_bits(rotated.entries, plane_rotated(A.entries, 0.7, axis))
    assert np.allclose(np.linalg.eigvalsh(rotated.entries), np.linalg.eigvalsh(A.entries),
                       rtol=0.0, atol=1e-12)
    assert np.array_equal(plane_rotated(A.entries, 0.0, axis), A.entries)
