"""Gaussian measure, reproducing kernel, and normalization identities of
the weighted Fock space.

For a validated weight A = H + K the space consists of holomorphic
functions square-integrable against

    density(z) = pi^{-n} sqrt(det_V A) exp(-(Az, z)),

normalized so the constant function 1 has unit norm.  The reproducing
kernel is

    kernel(z, w) = c_a^{-2} exp( conj(<Kz,z>)/2 + <Hz,w> + <Kw,w>/2 ),

and the map ``classical_to_weighted`` is the unitary that carries the
classical Fock space (A = identity) onto the weighted one by a linear
change of variable z -> H^{-1/2} z and a Gaussian reweighting.  Both the
kernel and the unitary stay inside the symbolic closed class, so all
identities here can be checked coefficient by coefficient as well as by
quadrature.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .errors import ConfigError, DimensionMismatchError
from .operators import OperatorContext, to_complex_coords
from .quadrature import QuadratureRule, grid_sums
from .symbolic import GaussPoly, as_vector, bilinear_rows, exp_rows, pointwise, require_rows

__all__ = [
    "measure_density",
    "kernel",
    "kernel_section",
    "eval_functional_norm",
    "classical_to_weighted",
    "weighted_to_classical",
    "fock_rule",
    "fock_gram",
    "fock_inner_product",
    "fock_norm",
    "normalized_monomial",
]


@pointwise
def measure_density(ctx: OperatorContext, z):
    """Density of the Gaussian measure at z (with respect to dx dy)."""
    z = np.asarray(z, dtype=complex)
    require_rows(ctx.n, z)
    V = np.concatenate([z.real, z.imag], axis=1)
    expo = 0.5 * ctx.log_det_v_a - bilinear_rows(V, ctx.A.entries, V)
    return math.pi ** (-ctx.n) * exp_rows(expo, len(z))


def _kernel_exponent(ctx: OperatorContext, z: np.ndarray, w: np.ndarray) -> np.ndarray:
    C = ctx.K_matrix
    wbar = np.conj(w)
    return (
        0.5 * bilinear_rows(z, np.conj(C), z)
        + bilinear_rows(wbar, ctx.H_matrix, z)
        + 0.5 * bilinear_rows(wbar, C, wbar)
    ) - 2.0 * math.log(ctx.c_a)


@pointwise
def kernel(ctx: OperatorContext, z, w):
    """Reproducing kernel at (z, w); holomorphic in z, antiholomorphic in w."""
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    require_rows(ctx.n, z, w)
    return exp_rows(_kernel_exponent(ctx, z, w), len(z))


def kernel_section(ctx: OperatorContext, w) -> GaussPoly:
    """The kernel at fixed second argument, as a symbolic function of z."""
    wbar = np.conj(as_vector(w, ctx.n, "w"))
    C = ctx.K_matrix
    return GaussPoly.gaussian(
        -np.conj(C), ctx.H_matrix.T @ wbar, 0.5 * np.dot(wbar, C @ wbar), ctx.c_a**-2
    )


@pointwise
def eval_functional_norm(ctx: OperatorContext, z):
    """Operator norm of F -> F(z), the square root of the kernel diagonal."""
    return np.sqrt(np.real(kernel(ctx, z, z)))


def weighted_to_classical(ctx: OperatorContext, F: GaussPoly) -> GaussPoly:
    """Unitary from the weighted space onto the classical Fock space:

        (c_a) exp(-conj(<K H^{-1/2}w, H^{-1/2}w>)/2) F(H^{-1/2} w).

    The substitution w -> sqrt(H) v turns the classical Gaussian into the
    weighted one, which is what makes this direction the isometry."""
    T1 = ctx.inv_sqrt_H_matrix
    twist = GaussPoly.gaussian(T1.T @ np.conj(ctx.K_matrix) @ T1)
    return (F.compose_linear(T1) * twist).times_scalar(ctx.c_a)


def classical_to_weighted(ctx: OperatorContext, F: GaussPoly) -> GaussPoly:
    """Inverse (= adjoint) of :func:`weighted_to_classical`:

        (1/c_a) exp(conj(<Kw, w>)/2) F(sqrt(H) w)."""
    twist = GaussPoly.gaussian(-np.conj(ctx.K_matrix))
    return (F.compose_linear(ctx.sqrt_H_matrix) * twist).times_scalar(1.0 / ctx.c_a)


def fock_rule(ctx: OperatorContext, nodes_per_axis: int) -> QuadratureRule:
    """Quadrature rule for the weighted Gaussian measure over all 2n real
    coordinates.  (The measure's density exp(-(Az,z)) has precision 2A in
    the probabilist convention used by :class:`QuadratureRule`.)"""
    return QuadratureRule(dim=2 * ctx.n, nodes_per_axis=nodes_per_axis,
                          scaling=2.0 * ctx.A.entries)


def fock_gram(
    ctx: OperatorContext,
    Fs: Sequence[GaussPoly],
    Gs: Sequence[GaussPoly],
    rule: QuadratureRule,
) -> np.ndarray:
    """The matrix of <F_i, G_j> in the weighted space, by tensor quadrature.

    The grid is built and reduced in chunks of 16,384 nodes (the
    quadrature module's one grid reduction): in each chunk every G_j is
    evaluated once and the F_i are streamed one row at a time, so memory
    holds one chunk of each G column and one row.  An F_i that is also some
    G_j (the same object) takes the conjugate of that column, bit for bit
    its values, instead of a second evaluation.  Every entry is reduced
    exactly as a single inner product would be; each product F_i conj(G_j)
    is an array built here, which the reduction weights in place.

    Finiteness is read from each chunk's block sums: a chunk runs unchecked,
    and only one with a non-finite block sum is evaluated again with every
    value checked, the columns first, then each row and its products, so a
    non-finite value is named by the first chunk that has one, not the
    first function, and an overflowing product by the node where it
    overflows.  Finite products
    whose block sum overflows give an inf or NaN entry with numpy's
    overflow warning, as without the first pass.  Each value must have
    shape (m,) at m rows, DimensionMismatchError for any other.
    The rule must be one :func:`fock_rule` builds for ``ctx``: a rule for
    another Gaussian would weight the integrand wrongly.
    """
    if rule.dim != 2 * ctx.n:
        raise DimensionMismatchError(
            f"rule dimension {rule.dim} does not match 2n = {2 * ctx.n}"
        )
    if not np.array_equal(rule.scaling, 2.0 * ctx.A.entries):
        raise ConfigError("rule scaling is not 2A; build the rule with fock_rule(ctx, nodes)")

    def products(rows, start, sample):
        Z = to_complex_coords(rows)
        columns = [np.conj(sample(G.evaluate_many, Z)) for G in Gs]
        by_id = {id(G): column for G, column in zip(Gs, columns)}
        for F in Fs:
            row = np.conj(by_id[id(F)]) if id(F) in by_id else sample(F.evaluate_many, Z)
            for column in columns:
                yield sample(np.multiply, row, column), True

    return np.array(grid_sums(rule, None, products), dtype=complex).reshape(len(Fs), len(Gs))


def fock_inner_product(
    ctx: OperatorContext, F: GaussPoly, G: GaussPoly, rule: QuadratureRule
) -> complex:
    """<F, G> in the weighted space: the 1x1 case of :func:`fock_gram`."""
    return complex(fock_gram(ctx, [F], [G], rule)[0, 0])


def fock_norm(ctx: OperatorContext, F: GaussPoly, rule: QuadratureRule) -> float:
    value = fock_inner_product(ctx, F, F, rule)
    return math.sqrt(max(value.real, 0.0))


def normalized_monomial(n: int, alpha) -> GaussPoly:
    """z^alpha / sqrt(alpha!), an orthonormal family in the classical space.
    The monomial refuses a bad multi-index before any factorial is taken;
    its coefficient 1.0 times 1/norm is 1/norm, bit for bit."""
    monomial = GaussPoly.monomial(n, alpha)
    (alpha,) = monomial.poly.terms
    return monomial.times_scalar(1.0 / math.sqrt(math.prod(map(math.factorial, alpha))))

