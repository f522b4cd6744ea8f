"""One shape contract for every point and vector argument: a point in n
variables is a vector of length n, a batch of points is (m, n), and the
batches of one call share m.  Any other shape is a DimensionMismatchError,
raised by one of the two checks of ``fockops.symbolic``."""

import numpy as np
import pytest

from fockops import (
    CallableField,
    DimensionMismatchError,
    QuadratureRule,
    RealLinearMap,
    build_context,
    coherent_inner,
    coherent_state,
    coherent_state_fn,
    eval_functional_norm,
    gaussian_integral,
    hermite_function,
    integrate_shifted,
    kernel,
    kernel_from_densities,
    kernel_section,
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
