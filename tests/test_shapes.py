"""One shape contract for every point and vector argument: a point in n
variables is a vector of length n, a batch of points is (m, n), and the
batches of one call share m.  Any other shape is a DimensionMismatchError,
raised by one of the shape checks of ``fockops.symbolic``.  A matrix is
checked the same way, before any arithmetic reads it, and a map applies to
a vector of its own length, or a stack of m maps to an (m, n) batch.  A NaN
or infinite entry of a vector or a matrix is a ConfigError of the same
checks, and so is one that is not a number."""

import re

import numpy as np
import pytest

from fockops import (
    CallableField,
    ConfigError,
    DimensionMismatchError,
    GaussPoly,
    Polynomial,
    QuadratureRule,
    RealLinearMap,
    build_context,
    coherent_inner,
    coherent_state,
    coherent_state_fn,
    convolve_gaussian,
    eval_functional_norm,
    gaussian_integral,
    heat_kernel,
    hermite_function,
    integrate_shifted,
    kernel,
    kernel_from_densities,
    kernel_section,
    mc_integrate,
    measure_density,
    multiplier,
    phase_factor,
    segal_bargmann,
    translate,
)

N, M = 2, 3
BATCH, POINT = (M, N), (N,)
CTX = build_context(RealLinearMap.from_blocks(np.diag([4.0, 2.0]), np.diag([1.0, 0.5])))
F = hermite_function((2, 1))
RULE = QuadratureRule(N, 5)

# entry -> (its call on its point or vector arguments, their shapes)
ENTRIES = {
    "measure_density": (lambda z: measure_density(CTX, z), [BATCH]),
    "kernel": (lambda z, w: kernel(CTX, z, w), [BATCH, BATCH]),
    "eval_functional_norm": (lambda z: eval_functional_norm(CTX, z), [BATCH]),
    "kernel_section": (lambda w: kernel_section(CTX, w), [POINT]),
    "multiplier": (lambda x, z: multiplier(CTX, x, z), [BATCH, BATCH]),
    "coherent_state": (lambda x, z: coherent_state(CTX, x, z), [BATCH, BATCH]),
    "segal_bargmann": (lambda z: segal_bargmann(CTX, F, z), [BATCH]),
    "segal_bargmann of a CallableField": (
        lambda z: segal_bargmann(CTX, CallableField(N, F.evaluate_many), z), [BATCH]),
    "phase_factor": (lambda x: phase_factor(CTX, x), [POINT]),
    "translate": (lambda x: translate(CTX, x, F), [POINT]),
    "coherent_state_fn": (lambda z: coherent_state_fn(CTX, z), [POINT]),
    "coherent_inner": (lambda w, z: coherent_inner(CTX, w, z), [POINT, POINT]),
    "kernel_from_densities": (lambda z, w: kernel_from_densities(CTX, z, w), [POINT, POINT]),
    "GaussPoly.evaluate_many": (F.evaluate_many, [BATCH]),
    "GaussPoly.evaluate": (F.evaluate, [POINT]),
    "GaussPoly.exponent_many": (F.exponent_many, [BATCH]),
    "GaussPoly.shifted": (F.shifted, [POINT]),
    "Polynomial.evaluate_many": (F.poly.evaluate_many, [BATCH]),
    "Polynomial.evaluate": (F.poly.evaluate, [POINT]),
    "Polynomial.compose_affine": (lambda d: F.poly.compose_affine(None, d), [POINT]),
    "gaussian_integral": (lambda b: gaussian_integral(F.poly, np.eye(N), b), [POINT]),
    "QuadratureRule.grid": (RULE.grid, [POINT]),
    "integrate_shifted": (lambda center, phase: integrate_shifted(
        RULE, center, lambda X: np.ones(len(X)), phase), [POINT, POINT]),
}


def faults(shapes):
    """(case, shapes) for each argument one coordinate too wide, one too
    narrow and of one more axis, the others as they are, and for batches
    whose row counts differ."""
    for i, shape in enumerate(shapes):
        for case, bad in (("too wide", (N + 1,)), ("too narrow", (N - 1,)), ("rank", (1, N))):
            yield f"argument {i} {case}", [*shapes[:i], shape[:-1] + bad, *shapes[i + 1:]]
    if shapes.count(BATCH) > 1:
        yield "row counts differ", [(M - 1, N), *shapes[1:]]


def arguments(shapes):
    return [np.full(shape, 0.1) for shape in shapes]


@pytest.mark.parametrize("name, shapes", [
    pytest.param(name, bad, id=f"{name}: {case}")
    for name, (_, shapes) in ENTRIES.items() for case, bad in faults(shapes)])
def test_a_point_or_vector_of_another_shape_is_a_dimension_mismatch(name, shapes):
    # at n = 2, multiplier and coherent_state read rows of width 3 as their
    # first two coordinates and broadcast 3 rows of x against 1 of z; the
    # vector entries and the quadrature route ended in numpy's errors
    call, _ = ENTRIES[name]
    with pytest.raises(DimensionMismatchError, match=rf"\(m, {N}\)|\({N},\)"):
        call(*arguments(shapes))


@pytest.mark.parametrize("name", ENTRIES)
def test_each_entry_takes_the_shapes_of_the_contract(name):
    call, shapes = ENTRIES[name]
    call(*arguments(shapes))


ONE = Polynomial.constant(N, 1.0)
ROW = [[2.0, 1.0]]  # a 1 x 2 row, which symmetrizing would broadcast to 2 x 2

# case -> (a call with a matrix of another shape, the error, its message)
MATRIX_FAULTS = {
    "convolve_gaussian, G a row": (
        lambda: convolve_gaussian(1.0, ROW, GaussPoly.constant(N, 1.0)),
        DimensionMismatchError, r"G must be a matrix of shape \(2, 2\), got \(1, 2\)"),
    "convolve_gaussian, G too small": (
        lambda: convolve_gaussian(1.0, [[2.0]], GaussPoly.constant(N, 1.0)),
        DimensionMismatchError, r"G must be a matrix of shape \(2, 2\), got \(1, 1\)"),
    "gaussian_integral, Q a row": (
        lambda: gaussian_integral(ONE, ROW, [0.0, 0.0]),
        DimensionMismatchError, r"Q must be a matrix of shape \(2, 2\), got \(1, 2\)"),
    "gaussian_integral, Q and b too small": (
        lambda: gaussian_integral(ONE, [[2.0]], [0.0]),
        DimensionMismatchError, r"Q must be a matrix of shape \(2, 2\), got \(1, 1\)"),
    "gaussian_integral, Q and b too large": (
        lambda: gaussian_integral(Polynomial.constant(1, 1.0), np.eye(N), np.zeros(N)),
        DimensionMismatchError, r"Q must be a matrix of shape \(1, 1\), got \(2, 2\)"),
    "heat_kernel, P a row": (
        lambda: heat_kernel([[1.0, 2.0]], 1.0),
        DimensionMismatchError, r"P must be a square matrix, got \(1, 2\)"),
    "heat_kernel, P a vector": (
        lambda: heat_kernel([1.0, 2.0], 1.0),
        DimensionMismatchError, r"P must be a square matrix, got \(2,\)"),
    "mc_integrate, scaling a row": (
        lambda: mc_integrate(1, 1000, [[1.0, 0.0]], lambda X: np.ones(len(X))),
        DimensionMismatchError, r"scaling must be a square matrix, got \(1, 2\)"),
    "QuadratureRule, scaling too large": (
        lambda: QuadratureRule(N, 5, scaling=np.eye(N + 1)),
        DimensionMismatchError, r"scaling must be a matrix of shape \(2, 2\), got \(3, 3\)"),
}


@pytest.mark.parametrize("case", MATRIX_FAULTS)
def test_a_matrix_of_another_shape_is_refused_before_any_arithmetic(case):
    # a row was symmetrized to a 2 x 2 matrix with a negative eigenvalue
    # (DivergenceError), a short Q ended in an IndexError and a non-square P
    # in numpy's LinAlgError; mc_integrate called the row not symmetric
    call, error, text = MATRIX_FAULTS[case]
    with pytest.raises(error, match=text):
        call()


NAN, INF = float("nan"), float("inf")
ONE_1 = GaussPoly.constant(1, 1.0)

# case -> (a call with a NaN or infinite entry in a matrix or vector, the
# name its ConfigError gives the argument)
NON_FINITE = {
    "QuadratureRule, scaling with NaN": (
        lambda: QuadratureRule(N, 5, scaling=[[1.0, NAN], [NAN, 1.0]]), "scaling"),
    "QuadratureRule, scaling inf": (lambda: QuadratureRule(1, 5, scaling=[[INF]]), "scaling"),
    "mc_integrate, scaling NaN": (
        lambda: mc_integrate(1, 1000, [[NAN]], lambda X: np.ones(len(X))), "scaling"),
    "heat_kernel, P inf": (lambda: heat_kernel([[INF]], 1.0), "a heat kernel's P"),
    "heat_kernel, P NaN": (lambda: heat_kernel([[NAN]], 1.0), "a heat kernel's P"),
    "convolve_gaussian, G NaN": (lambda: convolve_gaussian(1.0, [[NAN]], ONE_1), "G"),
    "gaussian_integral, Q NaN": (
        lambda: gaussian_integral(Polynomial.constant(1, 1.0), [[NAN]], [0.0]), "Q"),
    "gaussian_integral, b inf": (
        lambda: gaussian_integral(Polynomial.constant(1, 1.0), [[1.0]], [INF]), "b"),
    "GaussPoly, P NaN": (lambda: GaussPoly(ONE_1.poly, [[NAN]], [0.0], 0.0), "P"),
    "GaussPoly, b inf": (lambda: GaussPoly(ONE_1.poly, [[1.0]], [-INF], 0.0), "b"),
    "GaussPoly.shifted, d NaN": (lambda: F.shifted([NAN, 0.0]), "d"),
    "Polynomial.compose_affine, M inf": (
        lambda: F.poly.compose_affine([[INF, 0.0], [0.0, 1.0]]), "M"),
    "translate, x NaN": (lambda: translate(CTX, [NAN, 0.0], F), "d"),  # its shift of F
    "phase_factor, x inf": (lambda: phase_factor(CTX, [0.0, INF]), "x"),
    "kernel_section, w NaN": (lambda: kernel_section(CTX, [NAN, 0.0]), "w"),
    "coherent_state_fn, z NaN": (
        lambda: coherent_state_fn(CTX, [0.0, complex(0.0, NAN)]), "a coherent state's point"),
}


@pytest.mark.parametrize("case", NON_FINITE)
def test_a_non_finite_matrix_or_vector_is_a_config_error(case):
    # a NaN scaling was not symmetric and a NaN P not positive definite, an
    # inf P gave a term of inf+nanj, a NaN G or Q an overflowing norm, and
    # the vectors built terms of NaNs
    call, what = NON_FINITE[case]
    with pytest.raises(ConfigError, match=f"^{re.escape(what)} must be finite, got "):
        call()


# case -> (a call with a matrix or vector that does not hold numbers, the
# name its ConfigError gives the argument)
NON_NUMERIC = {
    "integrate_shifted, center a string": (
        lambda: integrate_shifted(QuadratureRule(1, 3), ["a"], lambda X: np.ones(len(X))),
        "center"),
    "QuadratureRule.grid, center of None": (lambda: RULE.grid([None, None]), "center"),
    "GaussPoly.gaussian, P a string": (lambda: GaussPoly.gaussian([["a"]]), "P"),
    "QuadratureRule, scaling a string": (lambda: QuadratureRule(1, 5, scaling=[["x"]]), "scaling"),
    "mc_integrate, scaling ragged": (
        lambda: mc_integrate(1, 1000, [[1.0], [0.0, 1.0]], lambda X: np.ones(len(X))), "scaling"),
    "heat_kernel, P a string": (lambda: heat_kernel([["a"]], 1.0), "a heat kernel's P"),
    "phase_factor, x strings": (lambda: phase_factor(CTX, ["a", "b"]), "x"),
    "kernel_section, w with a dict": (lambda: kernel_section(CTX, [{}, 0.0]), "w"),
}


@pytest.mark.parametrize("case", NON_NUMERIC)
def test_a_matrix_or_vector_of_no_numbers_is_a_config_error(case):
    # numpy's TypeError from isfinite, or its ValueError from a cast to
    # complex or float ("complex() arg is a malformed string")
    call, what = NON_NUMERIC[case]
    with pytest.raises(ConfigError, match=f"^{re.escape(what)} must be an array of numbers, got "):
        call()


SINGLE = RealLinearMap.identity(N)
STACK = RealLinearMap.from_blocks(np.stack([np.diag([4.0, 2.0])] * M),
                                  np.stack([np.diag([1.0, 0.5])] * M))


@pytest.mark.parametrize("weights, shape", [
    pytest.param(SINGLE, (N + 1,), id="one map, too wide"),
    pytest.param(SINGLE, (N - 1,), id="one map, too narrow"),
    pytest.param(SINGLE, BATCH, id="one map, a batch"),
    pytest.param(STACK, POINT, id="a stack, one vector"),
    pytest.param(STACK, (M - 1, N), id="a stack, another row count"),
    pytest.param(STACK, (M, N + 1), id="a stack, rows too wide"),
])
def test_a_map_applied_to_another_shape_is_a_dimension_mismatch(weights, shape):
    # numpy's matmul raised ValueError, or broadcast one vector to every map
    # of a stack and one map to every row of a batch
    with pytest.raises(DimensionMismatchError, match=rf"\(m, {N}\)|\({N},\)"):
        weights(np.full(shape, 0.1 + 0.2j))


@pytest.mark.parametrize("weights, shape", [(SINGLE, POINT), (STACK, BATCH)],
                         ids=["one map", "a stack"])
def test_a_map_applies_to_the_shapes_of_the_contract(weights, shape):
    z = np.full(shape, 0.1 + 0.2j)
    assert weights(z).shape == shape
