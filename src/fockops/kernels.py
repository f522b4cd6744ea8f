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

import logging
import math
import time
from collections.abc import Sequence

import numpy as np

from .errors import ConfigError, DimensionMismatchError
from .operators import OperatorContext
from .quadrature import QuadratureRule, sampled, weighted_sum
from .symbolic import GaussPoly, bilinear_rows, check_rows

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

log = logging.getLogger(__name__)


KERNEL_OVERFLOW = "kernel exponent {:.1f} out of range"


def measure_density(ctx: OperatorContext, z):
    """Density of the Gaussian measure at z (with respect to dx dy).

    z is one point (a float comes back) or an (m, n) batch (m values, each
    with the bits of a one-point call)."""
    z = np.asarray(z, dtype=complex)
    if z.ndim == 1:
        return float(measure_density(ctx, z[None])[0].real)
    V = np.concatenate([z.real, z.imag], axis=1)
    expo = 0.5 * ctx.log_det_v_a - bilinear_rows(V, ctx.A.entries, V)
    check_rows(expo, lambda ok: measure_density(ctx, z[ok]), len(z))
    return math.pi ** (-ctx.n) * np.exp(expo)


def _kernel_exponent(ctx: OperatorContext, z: np.ndarray, w: np.ndarray) -> np.ndarray:
    C = ctx.K_matrix
    wbar = np.conj(w)
    return (
        0.5 * bilinear_rows(z, np.conj(C), z)
        + bilinear_rows(wbar, ctx.H_matrix, z)
        + 0.5 * bilinear_rows(wbar, C, wbar)
    ) - 2.0 * math.log(ctx.c_a)


def kernel(ctx: OperatorContext, z, w):
    """Reproducing kernel at (z, w); holomorphic in z, antiholomorphic in w.

    z and w are points (a complex comes back) or (m, n) batches (m values,
    each with the bits of a one-point call); a row whose exponent leaves the
    range is a row of the RangeOverflowError raised for the batch."""
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    if z.ndim == 1:
        return complex(kernel(ctx, z[None], w[None])[0])
    expo = _kernel_exponent(ctx, z, w)
    check_rows(expo, lambda ok: kernel(ctx, z[ok], w[ok]), len(z), KERNEL_OVERFLOW)
    return np.exp(expo)


def kernel_section(ctx: OperatorContext, w) -> GaussPoly:
    """The kernel at fixed second argument, as a symbolic function of z."""
    w = np.asarray(w, dtype=complex)
    wbar = np.conj(w)
    C = ctx.K_matrix
    return GaussPoly.gaussian(
        -np.conj(C), ctx.H_matrix.T @ wbar, 0.5 * np.dot(wbar, C @ wbar), ctx.c_a**-2
    )


def eval_functional_norm(ctx: OperatorContext, z):
    """Operator norm of F -> F(z), the square root of the kernel diagonal;
    at one point or at each row of a batch, as :func:`kernel`."""
    z = np.asarray(z, dtype=complex)
    if z.ndim == 1:
        return float(eval_functional_norm(ctx, z[None])[0].real)
    expo = _kernel_exponent(ctx, z, z)
    check_rows(expo, lambda ok: eval_functional_norm(ctx, z[ok]), len(z), KERNEL_OVERFLOW)
    return np.sqrt(np.exp(expo).real)


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


def _complex_grid(rule: QuadratureRule) -> tuple[np.ndarray, np.ndarray]:
    """The rule's nodes as points of C^n, and their weights; the real
    coordinates are not kept."""
    X, W = rule.grid()
    n = X.shape[1] // 2
    return X[:, :n] + 1j * X[:, n:], W


def fock_gram(
    ctx: OperatorContext,
    Fs: Sequence[GaussPoly],
    Gs: Sequence[GaussPoly],
    rule: QuadratureRule,
) -> np.ndarray:
    """The matrix of <F_i, G_j> in the weighted space, by tensor quadrature.

    The grid is built once and each G_j evaluated on it once; the F_i are
    streamed one row at a time, so memory holds the G columns and one row.
    An F_i that is also some G_j (the same object) takes the conjugate of
    that column, bit for bit its values, instead of a second evaluation.
    Every entry is reduced exactly as a single inner product would be.
    The rule must be one :func:`fock_rule` builds for ``ctx``: a rule for
    another Gaussian would weight the integrand wrongly.
    """
    if rule.dim != 2 * ctx.n:
        raise DimensionMismatchError(
            f"rule dimension {rule.dim} does not match 2n = {2 * ctx.n}"
        )
    if not np.array_equal(rule.scaling, 2.0 * ctx.A.entries):
        raise ConfigError("rule scaling is not 2A; build the rule with fock_rule(ctx, nodes)")

    started = time.perf_counter()
    Z, W = _complex_grid(rule)
    columns = [np.conj(sampled(G.evaluate_many, Z)) for G in Gs]
    by_id = {id(G): column for G, column in zip(Gs, columns)}
    out = np.empty((len(Fs), len(columns)), dtype=complex)
    for i, F in enumerate(Fs):
        row = np.conj(by_id[id(F)]) if id(F) in by_id else sampled(F.evaluate_many, Z)
        for j, column in enumerate(columns):
            out[i, j] = weighted_sum(sampled(np.multiply, row, column), W)
    log.debug("fock_gram dim %d, %d nodes, %dx%d in %.3fs", rule.dim, W.shape[0],
              out.shape[0], out.shape[1], time.perf_counter() - started)
    return out


def fock_inner_product(
    ctx: OperatorContext, F: GaussPoly, G: GaussPoly, rule: QuadratureRule
) -> complex:
    """<F, G> in the weighted space: the 1x1 case of :func:`fock_gram`."""
    return complex(fock_gram(ctx, [F], [G], rule)[0, 0])


def fock_norm(ctx: OperatorContext, F: GaussPoly, rule: QuadratureRule) -> float:
    value = fock_inner_product(ctx, F, F, rule)
    return math.sqrt(max(value.real, 0.0))


def normalized_monomial(n: int, alpha) -> GaussPoly:
    """z^alpha / sqrt(alpha!), an orthonormal family in the classical space."""
    alpha = tuple(int(a) for a in alpha)
    norm = math.sqrt(math.prod(math.factorial(a) for a in alpha))
    return GaussPoly.monomial(n, alpha, 1.0 / norm)

