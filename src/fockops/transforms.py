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

from .errors import ConfigError, NotPositiveDefiniteError
from .operators import OperatorContext
from .quadrature import QuadratureRule, integrate_shifted
from .symbolic import (
    GaussPoly,
    Polynomial,
    as_matrix,
    as_vector,
    bilinear_rows,
    convolve_gaussian,
    exp_rows,
    l2_inner_product,
    pointwise,
    require_rows,
)

__all__ = [
    "multiplier",
    "translate",
    "restrict",
    "restrict_adjoint",
    "heat_kernel",
    "heat_convolve",
    "phase_factor",
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
    x = as_vector(x, ctx.n, "x", float)
    Hc, C = ctx.H_matrix, ctx.K_matrix
    b = Hc.T @ x + C @ x
    weight_quad = complex(np.dot((Hc + C) @ x, x))
    return GaussPoly.gaussian(np.zeros((ctx.n, ctx.n)), b, -0.5 * weight_quad)


@pointwise
def multiplier(ctx: OperatorContext, x, z):
    """Cocycle m(x, z) making translation a representation on the space.

    m(x, z) = exp(<Hz, x> + <K conj(z), x> - <Ax, x>/2).  The cocycle law
    m(x, z) m(y, z - x) = m(x + y, z) needs <Ax, y> symmetric in real
    x, y, which holds exactly when the complex-linear part of the weight
    preserves the real subspace (any block-diagonal weight, or one whose
    complex-linear part is real; not every SPD weight in these
    coordinates).  The context of a stack of m weights takes (m, n)
    batches, row i at weight i.
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=complex)
    require_rows(ctx.n, x, z)
    Hc, C = ctx.H_matrix, ctx.K_matrix
    expo = bilinear_rows(z, Hc.mT + C, x) - 0.5 * bilinear_rows(x, Hc + C, x)
    return exp_rows(expo, len(z))


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


def _closed_form(h: GaussPoly, kernel) -> GaussPoly:
    """s exp(z.Ez/2) (exp(-u.Gu/2) * h)(z) for kernel = (s, G, E), by
    completing the square; E None means no envelope."""
    s, G, E = kernel
    if E is None:
        return convolve_gaussian(s, G, h)
    return (convolve_gaussian(1.0, G, h) * GaussPoly.gaussian(-E)).times_scalar(s)


@pointwise
def _quadrature(kernel, field, z):
    """The transform with kernel = (s, G, E) of a black-box field at z:

        s exp(z.Ez/2) integral exp(-(z-x).G(z-x)/2) field(x) dx,

    by tensor Gauss-Hermite quadrature with QUADRATURE_NODES nodes per axis;
    ``field`` needs only ``evaluate_many``.  It shares no arithmetic with the
    closed form beyond the kernel, so each route is the other's oracle.
    The range is checked for every row before the field is evaluated anywhere.
    One rule scaled to G, recentred at Re z, serves every row; the phase vector
    G Im z gives the factor exp(i (x - Re z).G Im z) with no exponential per
    node, and exp(Im z.G Im z/2) is left to the envelope.
    """
    z = np.asarray(z, dtype=complex)
    s, G, E = kernel
    require_rows(len(G), z)
    # the shift exp(Im z.G Im z/2) and the envelope, as one exponent
    expo = 0.5 * bilinear_rows(z.imag, G, z.imag)
    if E is not None:
        expo = expo + 0.5 * bilinear_rows(z, E, z)
    envelope = s * exp_rows(expo, len(z))
    rule = QuadratureRule(len(G), QUADRATURE_NODES, scaling=G)
    values = [rule.mass * integrate_shifted(rule, w.real, field.evaluate_many, G @ w.imag)
              for w in z]
    # np.multiply, not `*`, for the reason bilinear_rows gives
    return np.multiply(envelope, np.array(values, dtype=complex))


def _adjoint_kernel(ctx: OperatorContext):
    return ctx.c_a**-2 * ctx.c_restriction, 0.5 * (ctx.R + ctx.T), ctx.R


def restrict_adjoint(ctx: OperatorContext, h: GaussPoly) -> GaussPoly:
    """Adjoint of the weighted restriction, as a symbolic function of z; the
    Gram operator R R* is ``restrict(ctx, restrict_adjoint(ctx, h))``."""
    return _closed_form(h, _adjoint_kernel(ctx))


def _modulus_kernel(ctx: OperatorContext):
    """The heat kernel of (R + T)/2 at half time."""
    G = ctx.R + ctx.T
    return _heat_coeff(G), G, None


def restriction_modulus(ctx: OperatorContext, h: GaussPoly) -> GaussPoly:
    """|R*| h in closed form: heat convolution at half time."""
    return _closed_form(h, _modulus_kernel(ctx))


# -- heat kernels -------------------------------------------------------------


def _heat_coeff(P: np.ndarray) -> float:
    """The normalising constant of the Gaussian of SPD precision P:
    NotPositiveDefiniteError naming the smallest eigenvalue of any other P."""
    eig = np.linalg.eigvalsh(P)
    if not eig[0] > 0.0:
        raise NotPositiveDefiniteError(f"a Gaussian's precision is not positive definite (min "
                                       f"eigenvalue {eig[0]:.3e})", min_eigenvalue=float(eig[0]))
    return math.exp(0.5 * float(np.sum(np.log(eig)))) * (2.0 * math.pi) ** (-P.shape[0] / 2.0)


def _heat(P, t: float) -> tuple[float, np.ndarray]:
    """The constant and the precision P/t of the time-t heat kernel:
    ConfigError unless t is positive and finite, DimensionMismatchError
    unless P is square."""
    if not (math.isfinite(t) and t > 0.0):
        raise ConfigError(f"a heat kernel's time must be positive and finite, got {t}")
    Pt = as_matrix(P, None, "a heat kernel's P", float) / t
    return _heat_coeff(Pt), Pt


def heat_kernel(P, t: float) -> GaussPoly:
    """Normalized Gaussian with precision P/t (so t acts as time); its density
    at the rows of X is ``heat_kernel(P, t).evaluate_many(X).real``."""
    coeff, Pt = _heat(P, t)
    return GaussPoly.gaussian(Pt, coeff=coeff)


def heat_convolve(P, t: float, h: GaussPoly) -> GaussPoly:
    """Closed-form convolution of the time-t kernel with a GaussPoly."""
    return convolve_gaussian(*_heat(P, t), h)


# -- phase factor --------------------------------------------------------------


def phase_factor(ctx: OperatorContext, x) -> complex:
    """exp(i Im <x, Kx>); identically 1 when the weight preserves the
    real subspace."""
    x = as_vector(x, ctx.n, "x", float)
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


@pointwise
def segal_bargmann(ctx: OperatorContext, f, z):
    """Weighted Segal-Bargmann transform at complex points.  The one shim
    that keeps both routes, only because the benchmark calls it both ways: a
    GaussPoly is mapped once by :func:`segal_bargmann_fn` and evaluated, any
    other field goes to :func:`_quadrature`."""
    if not isinstance(f, GaussPoly):
        return _quadrature(_sb_kernel(ctx), f, z)
    return segal_bargmann_fn(ctx, f).evaluate_many(np.asarray(z, dtype=complex))


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
    z = as_vector(z, ctx.n, "a coherent state's point")
    T, S = ctx.T, ctx.S
    coeff = _heat_coeff(T) / _heat_coeff(S)
    return GaussPoly(
        Polynomial.constant(ctx.n, coeff),
        (T - S).astype(complex),
        T @ z,
        -0.5 * np.dot(z, T @ z),
    )


@pointwise
def coherent_state(ctx: OperatorContext, x, z):
    """Coherent-state value; real when both arguments are real."""
    x = np.asarray(x, dtype=complex)
    z = np.asarray(z, dtype=complex)
    require_rows(ctx.n, x, z)
    T, S = ctx.T, ctx.S
    coeff = _heat_coeff(T) / _heat_coeff(S)
    expo = (-0.5 * bilinear_rows(x, T - S, x) + bilinear_rows(x, T, z)
            - 0.5 * bilinear_rows(z, T, z))
    return coeff * exp_rows(expo, len(z))


def coherent_inner(ctx: OperatorContext, w, z) -> complex:
    """S-weighted inner product of two coherent states, in closed form."""
    return l2_inner_product(
        coherent_state_fn(ctx, w), coherent_state_fn(ctx, z), weight=density_s(ctx)
    )


def kernel_from_densities(ctx: OperatorContext, z, w) -> complex:
    """Reproducing kernel as a Gaussian-density integral, by quadrature.

    The integrand (two shifted T-densities over the S-density) is entire
    and decays with precision 2T - S in every real direction, so by Cauchy
    the contour R^n may move to R^n + i Im c, c its stationary point.
    There it is a constant multiple of the weight of the rule scaled to
    2T - S and centred at Re c, so this tests the Gaussian-measure
    identity, not the rule's convergence.
    """
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    decay = 2.0 * ctx.T - ctx.S
    total = (
        coherent_state_fn(ctx, z)
        * coherent_state_fn(ctx, np.conj(w))
        * density_s(ctx)
    )
    center = np.linalg.solve(decay, ctx.T @ (z + np.conj(w)))
    # divide out the rule's Gaussian moved to the contour through c: what is
    # left is that constant, and the node sum is the integral
    counter_weight = GaussPoly.gaussian(-decay, -(decay @ center), 0.5 * (center @ decay @ center))
    flat = total * counter_weight
    rule = QuadratureRule(ctx.n, QUADRATURE_NODES, scaling=decay)
    return rule.mass * integrate_shifted(rule, center.real, flat.evaluate_many)


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


def _multi_index(alpha) -> tuple:
    """alpha as a tuple of ints: ConfigError unless it has at least one entry
    and none negative."""
    alpha = tuple(int(a) for a in alpha)
    if not alpha or min(alpha) < 0:
        raise ConfigError(f"a multi-index needs one or more entries, none negative; got {alpha}")
    return alpha


def hermite_function(alpha) -> GaussPoly:
    """Product Hermite function: H_alpha(x) times exp(-|x|^2 / 2)."""
    alpha = _multi_index(alpha)
    n = len(alpha)
    poly = Polynomial.from_coeffs(reduce(np.multiply.outer, [_hermite_coeffs(a) for a in alpha]))
    return GaussPoly(poly, np.eye(n), np.zeros(n), 0.0)


def sb_eigenfunction(alpha) -> GaussPoly:
    """Orthonormal L^2 family mapped onto the normalized monomials by the
    classical transform: scaled Hermite polynomials under exp(-|x|^2)."""
    alpha = _multi_index(alpha)
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
