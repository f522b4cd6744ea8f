"""Translation representation, restriction machinery and the
Segal-Bargmann transforms attached to a weight operator.

All integral operators here have two evaluation routes that serve as
each other's oracle, and the function called picks between them:

* each map's one public entry point returns its closed form, obtained by
  completing the square inside the symbolic polynomial-times-Gaussian
  class (:class:`~fockops.symbolic.GaussPoly`);
* :func:`_quadrature` integrates a black-box field
  (:class:`~fockops.symbolic.CallableField`) against the map's kernel by
  tensor Gauss-Hermite quadrature, with a rule scaled to the kernel and a
  fixed node count (``QUADRATURE_NODES``).  ``segal_bargmann``, the one
  pinned shim, takes either input, because the benchmark calls it both ways.

Conventions: ``x`` and ``y`` denote points of the real subspace (real
n-vectors), ``z`` and ``w`` points of the complexification.  Operators
that integrate over the real subspace read the context's real blocks,
which raise RealFormError for a weight that does not preserve it; the
phase factor and the multiplier read none.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np
from numpy.polynomial.hermite import herm2poly

from .errors import ConfigError
from .operators import OperatorContext
from .quadrature import lebesgue_integral
from .symbolic import (
    GaussPoly,
    Polynomial,
    bilinear_rows,
    check_rows,
    convolve_gaussian,
    l2_inner_product,
)

__all__ = [
    "multiplier",
    "translate",
    "restrict",
    "restrict_adjoint",
    "heat_density",
    "heat_kernel",
    "heat_convolve",
    "phase_factor",
    "restriction_gram",
    "restriction_modulus",
    "segal_bargmann_classical_fn",
    "segal_bargmann",
    "segal_bargmann_fn",
    "segal_bargmann_gaussian_fn",
    "density_s",
    "coherent_state",
    "coherent_state_fn",
    "coherent_inner",
    "kernel_from_densities",
    "hermite_function",
    "sb_eigenfunction",
    "ground_state",
    "weighted_ground_state",
]

# Nodes per axis of the quadrature route, in every dimension.
QUADRATURE_NODES = 40


# -- translation representation ---------------------------------------------


def multiplier_exponential(ctx: OperatorContext, x) -> GaussPoly:
    """The multiplier m(x, .) as a symbolic exponential-linear function of z."""
    x = np.asarray(x, dtype=float)
    Hc, C = ctx.H_matrix, ctx.K_matrix
    b = Hc.T @ x + C @ x
    weight_quad = complex(np.dot((Hc + C) @ x, x))
    return GaussPoly.gaussian(np.zeros((ctx.n, ctx.n)), b, -0.5 * weight_quad)


def multiplier(ctx: OperatorContext, x, z):
    """Cocycle m(x, z) making translation a representation on the space.

    m(x, z) = exp(<Hz, x> + <K conj(z), x> - <Ax, x>/2).  The cocycle law
    m(x, z) m(y, z - x) = m(x + y, z) needs <Ax, y> symmetric in real
    x, y, which holds exactly when the complex-linear part of the weight
    preserves the real subspace (any block-diagonal weight, or one whose
    complex-linear part is real; not every SPD weight in these
    coordinates).

    x and z are one point each (a complex comes back) or (m, n) batches
    (m values, each with the bits of a one-point call; rows out of range
    are rows of the RangeOverflowError raised).
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=complex)
    if z.ndim == 1:
        return complex(multiplier(ctx, x[None], z[None])[0])
    Hc, C = ctx.H_matrix, ctx.K_matrix
    expo = bilinear_rows(z, Hc.T + C, x) - 0.5 * bilinear_rows(x, Hc + C, x)
    check_rows(expo, lambda ok: multiplier(ctx, x[ok], z[ok]), len(z))
    return np.exp(expo)


def translate(ctx: OperatorContext, x, F: GaussPoly) -> GaussPoly:
    """The (projective) translation T_x F = m(x, .) F(. - x)."""
    x = np.asarray(x, dtype=float)
    return F.shifted(-x.astype(complex)) * multiplier_exponential(ctx, x)


# -- restriction to the real subspace and its adjoint ------------------------


def restrict(ctx: OperatorContext, F: GaussPoly) -> GaussPoly:
    """Weighted restriction R F(x) = c exp(-<Ax, x>/2) F(x).

    Needs the weight to preserve the real subspace (the damping
    exp(-x.Rx/2) is what makes the restriction land in L^2).
    """
    return GaussPoly(F.poly * ctx.c_restriction, ctx.R + F.P, F.b, F.gamma)


def _convolve_at(G: np.ndarray, h, z: np.ndarray) -> complex:
    """Quadrature value of the convolution (exp(-u.Gu/2) * h)(z) at complex z.

    The rule is scaled to G and recentred at Re(z), so its weight is the
    kernel itself; the leftover imaginary shift is a bounded oscillatory
    factor.
    """
    a, imag = z.real, z.imag
    Gb = G @ imag

    def integrand(X):
        osc = np.exp(-1j * ((a[None, :] - X) @ Gb))
        return h.evaluate_many(X) * osc

    shift = complex(np.exp(0.5 * np.dot(imag, G @ imag)))
    return lebesgue_integral(G, QUADRATURE_NODES, a, integrand, shift)


def _closed_form(h: GaussPoly, kernel) -> GaussPoly:
    """s exp(z.Ez/2) (exp(-u.Gu/2) * h)(z) for kernel = (s, G, E), by
    completing the square; E None means no envelope."""
    s, G, E = kernel
    if E is None:
        return convolve_gaussian(s, G, h)
    return (convolve_gaussian(1.0, G, h) * GaussPoly.gaussian(-E)).times_scalar(s)


def _quadrature(kernel, field, z):
    """The transform with kernel = (s, G, E) of a black-box field at z:

        s exp(z.Ez/2) integral exp(-(z-x).G(z-x)/2) field(x) dx,

    by tensor Gauss-Hermite quadrature with QUADRATURE_NODES nodes per axis;
    ``field`` needs only ``evaluate_many``.  It shares no arithmetic with the
    closed form beyond the kernel, so each route is the other's oracle.

    ``z`` is one point (a complex value comes back) or an (m, n) batch (an
    array of m values).  A point is its one-row batch: each row carries the
    bits of a one-point call, and the rows whose exponents leave the range
    are rows of the RangeOverflowError raised for the batch.
    """
    z = np.asarray(z, dtype=complex)
    if z.ndim == 1:
        return complex(_quadrature(kernel, field, z[None])[0])
    s, G, E = kernel
    front = s
    if E is not None:
        expo = 0.5 * bilinear_rows(z, E, z)
        check_rows(expo, lambda ok: _quadrature(kernel, field, z[ok]), len(z))
        front = s * np.exp(expo)
    return front * np.array([_convolve_at(G, field, w) for w in z], dtype=complex)


def _adjoint_kernel(ctx: OperatorContext):
    return ctx.c_a**-2 * ctx.c_restriction, 0.5 * (ctx.R + ctx.T), ctx.R


def restrict_adjoint(ctx: OperatorContext, h: GaussPoly) -> GaussPoly:
    """Adjoint of the weighted restriction, as a symbolic function of z."""
    return _closed_form(h, _adjoint_kernel(ctx))


def restriction_gram(ctx: OperatorContext, h: GaussPoly, x) -> complex:
    """The Gram operator R R* of the restriction map, at a real point."""
    x = np.asarray(x, dtype=float)
    damp = ctx.c_restriction * math.exp(-0.5 * float(np.dot(x, ctx.R @ x)))
    return damp * restrict_adjoint(ctx, h).evaluate(x)


def _modulus_kernel(ctx: OperatorContext):
    """The heat kernel of (R + T)/2 at half time."""
    G = ctx.R + ctx.T
    return _heat_coeff(G), G, None


def restriction_modulus(ctx: OperatorContext, h: GaussPoly) -> GaussPoly:
    """|R*| h in closed form: heat convolution at half time."""
    return _closed_form(h, _modulus_kernel(ctx))


# -- heat kernels -------------------------------------------------------------


def _heat_coeff(P: np.ndarray) -> float:
    log_det = float(np.sum(np.log(np.linalg.eigvalsh(P))))
    return math.exp(0.5 * log_det) * (2.0 * math.pi) ** (-P.shape[0] / 2.0)


def heat_kernel(P, t: float) -> GaussPoly:
    """Normalized Gaussian with precision P/t (so t acts as time)."""
    P = np.asarray(P, dtype=float)
    Pt = P / t
    return GaussPoly.gaussian(Pt, coeff=_heat_coeff(Pt))


def heat_density(P, t: float, x) -> float:
    """Pointwise value of the heat family member at time t."""
    return float(heat_kernel(P, t).evaluate(np.asarray(x, dtype=float)).real)


def heat_convolve(P, t: float, h: GaussPoly) -> GaussPoly:
    """Closed-form convolution of the time-t kernel with a GaussPoly."""
    P = np.asarray(P, dtype=float)
    Pt = P / t
    return convolve_gaussian(_heat_coeff(Pt), Pt, h)


# -- phase factor --------------------------------------------------------------


def phase_factor(ctx: OperatorContext, x) -> complex:
    """exp(i Im <x, Kx>); identically 1 when the weight preserves the
    real subspace."""
    x = np.asarray(x, dtype=float)
    inner = complex(np.dot(x, np.conj(ctx.K_matrix @ x)))
    return complex(np.exp(1j * inner.imag))


# -- Segal-Bargmann transforms -------------------------------------------------


def _classical_kernel(n: int):
    eye = np.eye(n)
    return (2.0 / math.pi) ** (n / 4.0), 2.0 * eye, eye


def segal_bargmann_classical_fn(g: GaussPoly) -> GaussPoly:
    """Classical transform of a GaussPoly, as a symbolic holomorphic function."""
    return _closed_form(g, _classical_kernel(g.n))


def _sb_kernel(ctx: OperatorContext):
    """Kernel exp(-(z-y).H(z-y)), Gaussian because the complex-linear part
    is positive, under the entire envelope exp(z.Rz/2)."""
    prefactor = (2.0 / math.pi) ** (ctx.n / 4.0) * math.exp(
        0.75 * ctx.log_det_h - 0.25 * ctx.log_det_v_a
    )
    return prefactor, ctx.R + ctx.T, ctx.R


def segal_bargmann_fn(ctx: OperatorContext, f: GaussPoly) -> GaussPoly:
    """Weighted Segal-Bargmann transform of a GaussPoly, symbolically."""
    return _closed_form(f, _sb_kernel(ctx))


def segal_bargmann(ctx: OperatorContext, f, z):
    """Weighted Segal-Bargmann transform at a complex point, or at each row
    of an (m, n) batch.  The one shim that keeps both routes, only because the
    benchmark calls it both ways: a GaussPoly is mapped once by
    :func:`segal_bargmann_fn` and evaluated, any other field goes to :func:`_quadrature`."""
    if not isinstance(f, GaussPoly):
        return _quadrature(_sb_kernel(ctx), f, z)
    z = np.asarray(z, dtype=complex)
    image = segal_bargmann_fn(ctx, f)
    return image.evaluate(z) if z.ndim == 1 else image.evaluate_many(z)


def density_s(ctx: OperatorContext) -> GaussPoly:
    """The Gaussian probability density for the harmonic-mean block."""
    return GaussPoly.gaussian(ctx.S, coeff=_heat_coeff(ctx.S))


def _gaussian_kernel(ctx: OperatorContext):
    """Convolution with the T-block density, no envelope."""
    return _heat_coeff(ctx.T), ctx.T, None


def segal_bargmann_gaussian_fn(ctx: OperatorContext, f: GaussPoly) -> GaussPoly:
    """Gaussian-measure form of the transform, symbolically."""
    return _closed_form(f, _gaussian_kernel(ctx))


# -- coherent states -----------------------------------------------------------


def coherent_state_fn(ctx: OperatorContext, z) -> GaussPoly:
    """The state x -> ratio of the shifted T-density to the S-density.

    Its Gaussian exponent has precision T - S, which may be indefinite;
    membership in the S-weighted L^2 space is what the positivity of
    2T - S guarantees.
    """
    z = np.asarray(z, dtype=complex)
    T, S = ctx.T, ctx.S
    coeff = _heat_coeff(T) / _heat_coeff(S)
    return GaussPoly(
        Polynomial.constant(ctx.n, coeff),
        (T - S).astype(complex),
        T @ z,
        -0.5 * np.dot(z, T @ z),
    )


def coherent_state(ctx: OperatorContext, x, z):
    """Coherent-state value; real when both arguments are real.  x and z are
    one point each (a complex comes back) or (m, n) batches (m values, each
    with the bits of a one-point call; rows out of range are rows of the
    RangeOverflowError raised)."""
    x = np.asarray(x, dtype=complex)
    z = np.asarray(z, dtype=complex)
    if z.ndim == 1:
        return complex(coherent_state(ctx, x[None], z[None])[0])
    T, S = ctx.T, ctx.S
    coeff = _heat_coeff(T) / _heat_coeff(S)
    expo = (-0.5 * bilinear_rows(x, T - S, x) + bilinear_rows(x, T, z)
            - 0.5 * bilinear_rows(z, T, z))
    check_rows(expo, lambda ok: coherent_state(ctx, x[ok], z[ok]), len(z))
    return coeff * np.exp(expo)


def coherent_inner(ctx: OperatorContext, w, z) -> complex:
    """S-weighted inner product of two coherent states, in closed form."""
    return l2_inner_product(
        coherent_state_fn(ctx, w), coherent_state_fn(ctx, z), weight=density_s(ctx)
    )


def kernel_from_densities(ctx: OperatorContext, z, w) -> complex:
    """Reproducing kernel as a Gaussian-density integral, by quadrature.

    The integrand (two shifted T-densities over the S-density) decays
    with precision 2T - S, so the rule is scaled to that block and
    recentered at the real part of the integrand's stationary point;
    what remains under the quadrature weight is bounded and analytic.
    """
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    decay = 2.0 * ctx.T - ctx.S
    total = (
        coherent_state_fn(ctx, z)
        * coherent_state_fn(ctx, np.conj(w))
        * density_s(ctx)
    )
    center = np.linalg.solve(decay, (ctx.T @ (z + np.conj(w))).real)
    # divide out the rule's Gaussian so the node sum is the integral
    counter_weight = GaussPoly.gaussian(-decay, -(decay @ center),
                                        0.5 * float(center @ decay @ center))
    flat = total * counter_weight
    return lebesgue_integral(decay, QUADRATURE_NODES, center, flat.evaluate_many)


# -- reference real-domain functions -------------------------------------------


def _hermite_coeffs(degree: int, stretch: float = 1.0) -> np.ndarray:
    """Monomial coefficients of the Hermite polynomial H_degree(stretch * x);
    a product over the axes is the outer product of such vectors."""
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = herm2poly([0.0] * degree + [1.0]) * stretch ** np.arange(degree + 1)
    if not np.all(np.isfinite(coeffs)):
        raise ConfigError(f"Hermite polynomial of degree {degree} has coefficients "
                          "beyond the float range")
    return coeffs


def _sb_norm(degree: int) -> float:
    """sqrt(2^degree degree!), the norm sb_eigenfunction divides by."""
    try:
        return math.sqrt(2.0**degree * math.factorial(degree))
    except OverflowError as err:
        raise ConfigError(
            f"the norm sqrt(2^a a!) at a = {degree} is beyond the float range"
        ) from err


def hermite_function(alpha) -> GaussPoly:
    """Product Hermite function: H_alpha(x) times exp(-|x|^2 / 2)."""
    alpha = tuple(int(a) for a in alpha)
    n = len(alpha)
    poly = Polynomial.from_coeffs(reduce(np.multiply.outer, [_hermite_coeffs(a) for a in alpha]))
    return GaussPoly(poly, np.eye(n), np.zeros(n), 0.0)


def sb_eigenfunction(alpha) -> GaussPoly:
    """Orthonormal L^2 family mapped onto the normalized monomials by the
    classical transform: scaled Hermite polynomials under exp(-|x|^2)."""
    alpha = tuple(int(a) for a in alpha)
    n = len(alpha)
    poly = Polynomial.from_coeffs(reduce(np.multiply.outer, [
        _hermite_coeffs(a, math.sqrt(2.0)) / _sb_norm(a) for a in alpha
    ]))
    return GaussPoly(poly * (2.0 / math.pi) ** (n / 4.0), 2.0 * np.eye(n), np.zeros(n), 0.0)


def ground_state(n: int) -> GaussPoly:
    return sb_eigenfunction((0,) * n)


def weighted_ground_state(ctx: OperatorContext) -> GaussPoly:
    """Unit-norm Gaussian matched to the complex-linear part of the weight."""
    Hn = 0.5 * (ctx.R + ctx.T)
    coeff = (2.0 / math.pi) ** (ctx.n / 4.0) * math.exp(0.25 * ctx.log_det_h)
    return GaussPoly.gaussian(2.0 * Hn, coeff=coeff)
