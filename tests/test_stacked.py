"""Stacks of weights carry, row for row, the bits of one-weight calls.

The verify groups that draw hundreds of small weights build one context per
dimension over a stack of them.  Their report bytes hold only while every
stacked field, generator and multiplier value has the bits of the one-row
call; a platform where a stacked numpy or LAPACK routine rounds otherwise
fails here, instead of moving report bytes silently."""

import numpy as np
import pytest

import fockops.verification as verification
from fockops import (
    ConfigError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    RealFormError,
    RealLinearMap,
    build_context,
    decompose,
    multiplier,
)
from fockops.operators import decomposition_residuals
from fockops.testing import orthogonal, random_spd_matrix, rotated_weight, spd_matrix
from fockops.verification import VerifyConfig

CONTEXT_FIELDS = ("H_matrix", "K_matrix", "sqrt_H_matrix", "inv_sqrt_H_matrix", "real_preserving",
                  "log_det_v_a", "log_det_h", "c_a", "c_restriction", "det_v_a", "det_h")
REAL_FORM_FIELDS = ("R", "T", "S", "L", "M", "D", "det_r", "det_t", "det_s")


def assert_same_bits(stacked, one):
    one = np.asarray(one)
    assert stacked.dtype == one.dtype and stacked.shape == one.shape
    assert stacked.tobytes() == one.tobytes()


@pytest.fixture(scope="module")
def verify_inputs():
    """What the four stacked groups pass, at the default seed, to the
    stacked generator, to build_context, to decompose and to multiplier."""
    seen = {"spd_matrix": [], "build_context": [], "decompose": [], "multiplier": []}

    def recorded(name, fn):
        def wrapper(*args):
            seen[name].append(args)
            return fn(*args)
        return wrapper

    patch = pytest.MonkeyPatch()
    for name in seen:
        patch.setattr(verification, name, recorded(name, getattr(verification, name)))
    try:
        cfg = VerifyConfig()
        for group in (verification.check_operator_core, verification.check_constant_identities,
                      verification.check_determinant_identities,
                      verification.check_transform_tower):
            assert all(c.passed for c in group(cfg))
    finally:
        patch.undo()
    return seen


def test_verify_draws_stacks_in_every_dimension_of_its_groups(verify_inputs):
    sizes = {args[0].shape[1:] for args in verify_inputs["spd_matrix"]}
    assert sizes == {(d, d) for d in range(1, 7)}
    stacks = [A for A, in verify_inputs["build_context"] if A.entries.ndim == 3]
    assert {A.n for A in stacks} == {1, 2, 3, 4, 5}
    assert sum(len(A.entries) for A in stacks) == 40 + 100 + 100 + 500


def test_stacked_generator_rows_are_one_row_draws(verify_inputs):
    for gaussians, vals in verify_inputs["spd_matrix"]:
        q, stacked = orthogonal(gaussians), spd_matrix(gaussians, vals)
        for i in range(len(gaussians)):
            assert_same_bits(q[i], orthogonal(gaussians[i]))
            assert_same_bits(stacked[i], spd_matrix(gaussians[i], vals[i]))


def test_one_row_generator_keeps_the_random_stream():
    # random_spd_matrix is the one-row case of the stacked generator
    rng = np.random.default_rng(5)
    one = random_spd_matrix(rng, 4, 0.5, 2.5)
    rng = np.random.default_rng(5)
    gaussians = rng.standard_normal((4, 4))
    vals = rng.uniform(0.5, 2.5, size=4)
    q, r = np.linalg.qr(gaussians)
    q = q * np.sign(np.diag(r))
    assert_same_bits(one, (q * vals) @ q.T)


@pytest.mark.parametrize("d", range(2, 11))
def test_stacked_qr_has_the_bits_of_one_matrix_qr(d):
    gaussians = np.random.default_rng(d).standard_normal((300, d, d))
    q, r = np.linalg.qr(gaussians)
    for i in range(300):
        one_q, one_r = np.linalg.qr(gaussians[i])
        assert_same_bits(q[i], one_q)
        assert_same_bits(r[i], one_r)


def test_stacked_contexts_have_the_bits_of_one_row_contexts(verify_inputs):
    stacks = [A for A, in verify_inputs["build_context"] if A.entries.ndim == 3]
    for A in stacks:
        ctx = build_context(A)
        rows = [build_context(RealLinearMap(E)) for E in A.entries]
        fields = CONTEXT_FIELDS + (REAL_FORM_FIELDS if np.all(ctx.real_preserving) else ())
        for name in fields:
            stacked = getattr(ctx, name)
            for i, one in enumerate(rows):
                assert_same_bits(stacked[i], getattr(one, name))


def test_stacked_decomposition_has_the_bits_of_one_row_calls(verify_inputs):
    for A, in verify_inputs["decompose"]:
        H, K = decompose(A)
        residuals = decomposition_residuals(A, H, K)
        for i, E in enumerate(A.entries):
            one = RealLinearMap(E)
            one_H, one_K = decompose(one)
            assert_same_bits(H.entries[i], one_H.entries)
            assert_same_bits(K.entries[i], one_K.entries)
            for key, value in decomposition_residuals(one, one_H, one_K).items():
                assert_same_bits(residuals[key][i], value)


def test_stacked_multiplier_has_the_bits_of_one_point_calls(verify_inputs):
    calls = verify_inputs["multiplier"]
    assert len(calls) == 6  # three per dimension of the cocycle check
    for ctx, x, z in calls:
        values = multiplier(ctx, x, z)
        for i, E in enumerate(ctx.A.entries):
            assert_same_bits(values[i], multiplier(build_context(RealLinearMap(E)), x[i], z[i]))


def test_a_stack_mixing_weights_is_what_its_rows_are():
    # real-preserving and rotated weights of one dimension in one stack
    blocks = RealLinearMap.from_blocks(np.diag([2.0, 0.5]), np.diag([1.0, 3.0]))
    mixed = np.stack([blocks.entries, rotated_weight(blocks, 0.7, 1).entries])
    ctx = build_context(RealLinearMap(mixed))
    assert ctx.real_preserving.tolist() == [True, False]
    for name in CONTEXT_FIELDS:
        for i in range(2):
            assert_same_bits(getattr(ctx, name)[i], getattr(build_context(RealLinearMap(mixed[i])), name))
    with pytest.raises(RealFormError):
        ctx.R  # the real blocks need every weight of the stack to preserve the real subspace


@pytest.mark.parametrize("bad, error, message", [
    (np.array([[1.0, 2.0], [2.0, 1.0]]), NotPositiveDefiniteError,
     "operator is not positive definite (min eigenvalue -1.000e+00)"),
    (np.array([[1.0, 0.5], [0.0, 1.0]]), NotSymmetricError,
     "operator is not symmetric (asymmetry 5.000e-01)"),
    (np.array([[1e308, 0.0], [0.0, 1.0]]), ConfigError,
     "operator 2-norm 1.000e+308 is too large: twice it overflows the float range"),
], ids=["indefinite", "asymmetric", "too-large"])
def test_a_bad_row_of_a_stack_raises_its_one_row_error(bad, error, message):
    with pytest.raises(error) as one:
        build_context(RealLinearMap(bad))
    stack = np.stack([np.eye(2), bad, np.eye(2), bad])
    with pytest.raises(error) as stacked:
        build_context(RealLinearMap(stack))
    assert str(one.value) == str(stacked.value) == message
    assert stacked.value.payload() == one.value.payload()
