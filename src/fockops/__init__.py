"""Holomorphic Fock spaces with operator-valued Gaussian weights.

Decomposes a symmetric positive-definite real-linear weight on C^n into
complex-linear and conjugate-linear parts, evaluates the reproducing
kernel and normalization constants of the associated space of square
integrable holomorphic functions, and implements the restriction-based
and Gaussian-measure Segal-Bargmann transforms together with a
verification suite that checks every identity numerically.

``import fockops`` loads only the error types.  Every other public name,
and every submodule (``fockops.verification``), loads its module on first
access (PEP 562), so a CLI command compiles only the modules it runs.
"""

from importlib import import_module as _import_module

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

__version__ = "0.1.0"

# submodule -> the public names it gives the package
_EXPORTS = {
    "kernels": (
        "classical_to_weighted", "eval_functional_norm", "fock_gram", "fock_inner_product",
        "fock_norm", "fock_rule", "kernel", "kernel_section", "measure_density",
        "normalized_monomial", "weighted_to_classical",
    ),
    "operators": (
        "OperatorContext", "RealLinearMap", "build_context", "decompose", "inv_sqrt_spd",
        "require_spd", "sqrt_spd",
    ),
    "quadrature": ("QuadratureRule", "integrate", "integrate_shifted", "mc_integrate"),
    "symbolic": (
        "CallableField", "GaussPoly", "HolomorphicFunction", "Polynomial", "convolve_gaussian",
        "gaussian_integral", "integrate_gausspoly", "l2_inner_product",
    ),
    "transforms": (
        "coherent_inner", "coherent_state", "coherent_state_fn", "density_s", "ground_state",
        "heat_convolve", "heat_kernel", "hermite_function", "kernel_from_densities",
        "multiplier", "phase_factor", "restrict", "restrict_adjoint", "restriction_modulus",
        "sb_eigenfunction", "segal_bargmann", "segal_bargmann_classical_fn",
        "segal_bargmann_fn", "segal_bargmann_gaussian_fn", "translate",
        "weighted_ground_state",
    ),
    "truncation": ("CaSequence", "TruncationSpec", "ca_sequence"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
# the submodules that load on first access (errors is imported above)
_SUBMODULES = {"cli", "report", "testing", "verification", *_EXPORTS}

# the error types and ``errors`` are bound by now
__all__ = [name for name in dir() if not name.startswith("_")] + [*_EXPORTS, *_MODULE_OF]


def __getattr__(name: str):
    """A public name or a submodule, imported on its first access."""
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
