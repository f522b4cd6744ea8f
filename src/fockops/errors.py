"""Exception types shared across the package, and the limits they enforce.

Every error that can surface through the CLI carries a stable ``kind``
string so reports and scripts can match on it without parsing messages.
The limits shared by more than one module live here too: NODE_BUDGET, the
most grid nodes, Monte Carlo coordinates or tower terms a call builds;
MAX_NODES_PER_AXIS, the largest Gauss-Hermite rule in the float range; and
``require_integer``, the integer check of every count.  This module loads
no numpy, so neither does ``import fockops``.
"""

from __future__ import annotations

from numbers import Integral

NODE_BUDGET = 10_000_000
# the largest rule quadrature._hermite_rule accepts, for configs refused
# before any rule is built
MAX_NODES_PER_AXIS = 370


class FockError(Exception):
    """Base class for all package errors.  Its keyword details are kept as
    attributes and follow the kind and the message in its payload."""

    kind = "error"

    def __init__(self, message: str, **details):
        super().__init__(message)
        self.details = details
        vars(self).update(details)

    def payload(self) -> dict:
        return {"kind": self.kind, "message": str(self), **self.details}


class DimensionMismatchError(FockError):
    """Arguments whose dimensions disagree: a point that is not a length-n
    vector, a batch that is not (m, n) or whose m differs from another's,
    or a matrix, a rule or an operand of another dimension."""

    kind = "dimension_mismatch"


class NotSymmetricError(FockError):
    kind = "not_symmetric"


class NotPositiveDefiniteError(FockError):
    kind = "not_positive_definite"


class RealFormError(FockError):
    """Operation needs a weight operator that preserves the real subspace."""

    kind = "requires_real_form"


class IllConditionedError(NotPositiveDefiniteError):
    """Positive definite, but the ratio of the smallest eigenvalue to the
    largest is below the threshold that every downstream inverse and
    square root needs; carries that ratio."""

    kind = "ill_conditioned"


class RangeOverflowError(FockError):
    """An exponent left the representable range; carries the exponent.

    Raised by the evaluation of a batch of points, it also carries, outside
    its payload, ``exponents``, the exponent of each row that left the range
    (NaN at the others); ``row(i)`` is the error a one-point call at row i
    raises, and the batch error is that of its largest exponent.  Nothing of
    the batch is evaluated: a caller that wants the other rows evaluates
    them alone."""

    kind = "range_overflow"

    @classmethod
    def at(cls, exponent: float) -> "RangeOverflowError":
        """The error of one exponent out of range."""
        return cls(f"exponent {exponent:.1f} exceeds the representable range", exponent=exponent)

    def row(self, index: int) -> "RangeOverflowError":
        return self.at(float(self.exponents[index]))


class DivergenceError(FockError):
    """A Gaussian integral or convolution has no finite value."""

    kind = "divergent_integral"


class NodeBudgetError(FockError):
    kind = "node_budget"


class EvaluatorError(FockError):
    """An integrand or an evaluated value was NaN or inf, or an integrand failed
    at quadrature nodes."""

    kind = "evaluator_failure"


class UnsupportedFormError(FockError):
    """A symbolic operation was asked of a function outside the closed class:
    a malformed multi-index, or a term collapsed to a polynomial whose
    Gaussian part is not trivial.  A disagreement of dimensions is a
    DimensionMismatchError."""

    kind = "unsupported_form"


class ConfigError(FockError):
    kind = "config_invalid"


class OutputUnwritableError(FockError):
    """A report or CSV file could not be written."""

    kind = "output_unwritable"


def require_integer(value, what: str) -> None:
    """ConfigError naming ``what`` unless ``value`` is an integer (an int or
    a numpy integer), which a bool is not."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ConfigError(f"{what} must be an integer, got {value!r}")


def rule_range_error(k: int) -> ConfigError:
    return ConfigError(f"a Gauss-Hermite rule of {k} nodes per axis is beyond the float range")
