"""Point batches of the sampled verify checks carry, row for row, the bits
of one-point calls.

Hermitian symmetry, the transform tower and the Gaussian formulation
evaluate each closed form once on a batch of points.  Their report bytes
hold only while each batch row has the bits of the one-point call it
replaced and the batched draws are the draws made one point at a time; a
platform where that fails fails here, instead of moving report bytes
silently."""

import sys

import numpy as np
import pytest

import fockops.verification as verification
from fockops import GaussPoly, heat_kernel, kernel
from fockops.verification import VerifyConfig

SAMPLED_GROUPS = (verification.check_kernel_geometry, verification.check_transform_tower,
                  verification.check_gaussian_formulation)


def assert_same_bits(batch, one):
    one = np.asarray(one)
    assert batch.dtype == one.dtype and batch.shape == one.shape
    assert batch.tobytes() == one.tobytes()


@pytest.fixture(scope="module")
def verify_calls():
    """At two seeds: each GaussPoly batch that verification.py evaluates
    itself (not the quadrature grids below it), each kernel call and each
    heat kernel built, with its arguments."""
    seen = {"evaluate_many": [], "kernel": [], "heat_kernel": []}
    evaluate_many = GaussPoly.evaluate_many

    def recorded_evaluate_many(self, X):
        if sys._getframe(1).f_globals["__name__"] == verification.__name__:
            seen["evaluate_many"].append((self, np.array(X)))
        return evaluate_many(self, X)

    def recorded(name, fn):
        def wrapper(*args):
            out = fn(*args)
            seen[name].append((args, out))
            return out
        return wrapper

    patch = pytest.MonkeyPatch()
    patch.setattr(GaussPoly, "evaluate_many", recorded_evaluate_many)
    for name in ("kernel", "heat_kernel"):
        patch.setattr(verification, name, recorded(name, getattr(verification, name)))
    try:
        for cfg in (VerifyConfig(), VerifyConfig(seed=3)):
            for group in SAMPLED_GROUPS:
                assert all(c.passed for c in group(cfg))
    finally:
        patch.undo()
    return seen


def test_gausspoly_batch_rows_are_one_point_calls(verify_calls):
    batches = verify_calls["evaluate_many"]
    # real rows (intertwining, heat semigroup, Gram and modulus) and complex rows
    assert {X.dtype.kind for _, X in batches} == {"f", "c"}
    for F, X in batches:
        values = F.evaluate_many(X)
        for i, x in enumerate(X):
            # a one-point call takes the complex path, whatever the point
            assert_same_bits(values[i], F.evaluate(x))


def test_heat_density_rows_are_one_point_values(verify_calls):
    kernels = {id(out): args for args, out in verify_calls["heat_kernel"]}
    evaluated = [(kernels[id(F)], X) for F, X in verify_calls["evaluate_many"] if id(F) in kernels]
    assert len(evaluated) == 4  # kernel_{t+s} of two heat families, at two seeds
    for (P, t), X in evaluated:
        density = heat_kernel(P, t).evaluate_many(X).real.tolist()
        for value, x in zip(density, X):
            one = float(heat_kernel(P, t).evaluate(np.asarray(x, dtype=float)).real)
            assert np.float64(value).tobytes() == np.float64(one).tobytes()


def test_kernel_batch_rows_are_one_point_calls(verify_calls):
    batches = [(args, out) for args, out in verify_calls["kernel"] if np.ndim(args[1]) == 2]
    assert len(batches) == len(verify_calls["kernel"])  # verify makes no one-point kernel call
    for (ctx, Z, W), values in batches:
        for i in range(len(Z)):
            assert_same_bits(values[i], kernel(ctx, Z[i], W[i]))


@pytest.mark.parametrize("seed", [2027, 2030, 2031])
@pytest.mark.parametrize("k, n", [(6, 1), (6, 2), (3, 2)])
def test_a_batch_of_draws_is_the_draws_one_point_at_a_time(seed, k, n):
    one_by_one = np.random.default_rng(seed)
    batched = np.random.default_rng(seed)
    assert_same_bits(batched.standard_normal((k, n)),
                     np.array([one_by_one.standard_normal(n) for _ in range(k)]))
    points = verification._complex_rows(batched, k, n)
    for i in range(k):
        assert_same_bits(points[i],
                         one_by_one.standard_normal(n) + 1j * one_by_one.standard_normal(n))
    assert_same_bits(batched.standard_normal(3), one_by_one.standard_normal(3))

