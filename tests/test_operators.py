"""Decomposition, derived context, and matrix-square-root behaviour."""

import numpy as np
import pytest

from fockops import (
    IllConditionedError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    RealLinearMap,
    SpaceContext,
    build_context,
    decompose,
    h_eigenbasis,
    require_spd,
    sqrt_spd,
)
from fockops.operators import hermitian_inner
from fockops.testing import random_spd_map, random_real_preserving_map, rotated_weight


def diag_weight(r=4.0, t=1.0):
    return RealLinearMap.from_blocks(np.array([[r]]), np.array([[t]]))


def test_space_context_structure_matrices():
    space = SpaceContext(3)
    J, sigma = space.J, space.sigma
    assert np.array_equal(J @ J, -np.eye(6))
    assert np.array_equal(sigma @ sigma, np.eye(6))


def test_require_spd_identity():
    A = RealLinearMap.identity(SpaceContext(1))
    norm, eigenvalues = require_spd(A)
    assert norm == 1.0 and np.array_equal(eigenvalues, [1.0, 1.0])


def test_require_spd_indefinite_reports_eigenvalue():
    # eigenvalues of [[1, 2], [2, 1]] are 3 and -1
    A = RealLinearMap(SpaceContext(1), np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(NotPositiveDefiniteError) as info:
        require_spd(A)
    assert not isinstance(info.value, IllConditionedError)
    assert info.value.min_eigenvalue == pytest.approx(-1.0, abs=1e-12)


def test_require_spd_diagonal():
    norm, eigenvalues = require_spd(diag_weight())
    assert norm == pytest.approx(4.0) and np.allclose(eigenvalues, [1.0, 4.0])


def test_decompose_identity():
    A = RealLinearMap.identity(SpaceContext(2))
    H, K = decompose(A)
    assert np.allclose(H.entries, np.eye(4), atol=1e-15)
    assert np.allclose(K.entries, 0.0, atol=1e-15)


def test_decompose_diagonal_weight_by_hand():
    # (A - JAJ)/2 and (A + JAJ)/2 for diag(4, 1) give 2.5 I and 1.5 sigma
    H, K = decompose(diag_weight())
    assert np.allclose(H.entries, 2.5 * np.eye(2), atol=1e-14)
    assert np.allclose(K.entries, 1.5 * np.diag([1.0, -1.0]), atol=1e-14)


def test_decompose_rejects_asymmetric():
    A = RealLinearMap(SpaceContext(1), np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(NotSymmetricError):
        decompose(A)


def test_decompose_rejects_indefinite():
    A = RealLinearMap(SpaceContext(1), np.array([[1.0, 2.0], [2.0, 1.0]]))
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
        J = A.space.J
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
        sigma = A.space.sigma
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
    ctx = build_context(RealLinearMap.identity(SpaceContext(1)))
    assert ctx.real_preserving
    assert ctx.S[0, 0] == pytest.approx(1.0, abs=1e-14)
    assert ctx.L[0, 0] == pytest.approx(1.0, abs=1e-14)
    assert ctx.c_a == pytest.approx(1.0, abs=1e-15)
    assert ctx.c_restriction == pytest.approx((2 * np.pi) ** -0.25, abs=1e-15)


def test_build_context_rotated_weight_loses_real_form():
    ctx = build_context(rotated_weight(diag_weight(), np.pi / 4))
    assert not ctx.real_preserving
    assert ctx.R is None and ctx.T is None and ctx.S is None
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
            0.5 * (ctx.A.entries - ctx.A.space.J @ ctx.A.entries @ ctx.A.space.J),
            RealLinearMap.from_blocks(
                0.5 * (ctx.R + ctx.T), 0.5 * (ctx.R + ctx.T)
            ).entries,
            atol=1e-12 * A.norm(),
        )
        # conjugate-linear part is (R_V - T_V)/2 followed by conjugation
        half_diff = 0.5 * (ctx.R - ctx.T)
        want_K = RealLinearMap.from_blocks(half_diff, half_diff).entries @ ctx.A.space.sigma
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


def test_h_eigenbasis_scalar_and_identity():
    vals, vecs = h_eigenbasis(build_context(diag_weight()))
    assert vals[0] == pytest.approx(2.5, abs=1e-14)
    assert vecs[0, 0] == pytest.approx(1.0, abs=1e-14)

    vals2, vecs2 = h_eigenbasis(build_context(RealLinearMap.identity(SpaceContext(2))))
    assert np.allclose(vals2, [1.0, 1.0], atol=1e-14)
    assert np.allclose(vecs2, np.eye(2), atol=1e-12)


def test_h_eigenbasis_block_diagonal():
    A = RealLinearMap.from_blocks(np.diag([1.0, 9.0]), np.eye(2))
    vals, vecs = h_eigenbasis(build_context(A))
    assert np.allclose(vals, [1.0, 5.0], atol=1e-13)
    assert np.allclose(np.abs(vecs), np.eye(2), atol=1e-12)


def test_h_eigenbasis_postconditions_random():
    rng = np.random.default_rng(13)
    for _ in range(20):
        ctx = build_context(random_spd_map(rng, 3))
        vals, vecs = h_eigenbasis(ctx)
        assert np.all(np.diff(vals) >= -1e-12)
        gram = vecs.conj().T @ vecs
        assert np.allclose(gram, np.eye(3), atol=1e-12)
        for j in range(3):
            assert np.linalg.norm(ctx.H_matrix @ vecs[:, j] - vals[j] * vecs[:, j]) <= 1e-10
            top = vecs[np.argmax(np.abs(vecs[:, j])), j]
            assert abs(top.imag) <= 1e-12 and top.real > 0
