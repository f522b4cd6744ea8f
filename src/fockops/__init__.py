"""Holomorphic Fock spaces with operator-valued Gaussian weights.

Decomposes a symmetric positive-definite real-linear weight on C^n into
complex-linear and conjugate-linear parts, evaluates the reproducing
kernel and normalization constants of the associated space of square
integrable holomorphic functions, and implements the restriction-based
and Gaussian-measure Segal-Bargmann transforms together with a
verification suite that checks every identity numerically.
"""

from .errors import (
    ConfigError,
    DimensionMismatchError,
    DivergenceError,
    EvaluatorError,
    FockError,
    IllConditionedError,
    NodeBudgetError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    OutputUnwritableError,
    RangeOverflowError,
    RealFormError,
    UnsupportedFormError,
)
from .kernels import (
    classical_to_weighted,
    eval_functional_norm,
    fock_gram,
    fock_inner_product,
    fock_norm,
    fock_rule,
    kernel,
    kernel_section,
    measure_density,
    normalized_monomial,
    weighted_to_classical,
)
from .operators import (
    OperatorContext,
    RealLinearMap,
    build_context,
    decompose,
    inv_sqrt_spd,
    require_spd,
    sqrt_spd,
)
from .quadrature import QuadratureRule, integrate, integrate_shifted, mc_integrate
from .symbolic import (
    CallableField,
    GaussPoly,
    HolomorphicFunction,
    Polynomial,
    convolve_gaussian,
    gaussian_integral,
    integrate_gausspoly,
    l2_inner_product,
)
from .transforms import (
    coherent_inner,
    coherent_state,
    coherent_state_fn,
    density_s,
    ground_state,
    heat_convolve,
    heat_kernel,
    hermite_function,
    kernel_from_densities,
    multiplier,
    phase_factor,
    restrict,
    restrict_adjoint,
    restriction_modulus,
    sb_eigenfunction,
    segal_bargmann,
    segal_bargmann_classical_fn,
    segal_bargmann_fn,
    segal_bargmann_gaussian_fn,
    translate,
    weighted_ground_state,
)
from .truncation import CaSequence, TruncationSpec, ca_sequence

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
