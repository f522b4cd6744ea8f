"""Exception types shared across the package.

Every error that can surface through the CLI carries a stable ``kind``
string so reports and scripts can match on it without parsing messages.
"""

from __future__ import annotations


class FockError(Exception):
    """Base class for all package errors."""

    kind = "error"

    def payload(self) -> dict:
        return {"kind": self.kind, "message": str(self)}


class DimensionMismatchError(FockError):
    kind = "dimension_mismatch"


class NotSymmetricError(FockError):
    kind = "not_symmetric"

    def __init__(self, message: str, asymmetry: float | None = None):
        super().__init__(message)
        self.asymmetry = asymmetry

    def payload(self) -> dict:
        out = super().payload()
        if self.asymmetry is not None:
            out["asymmetry"] = self.asymmetry
        return out


class NotPositiveDefiniteError(FockError):
    kind = "not_positive_definite"

    def __init__(self, message: str, min_eigenvalue: float | None = None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue

    def payload(self) -> dict:
        out = super().payload()
        if self.min_eigenvalue is not None:
            out["min_eigenvalue"] = self.min_eigenvalue
        return out


class RealFormError(FockError):
    """Operation needs a weight operator that preserves the real subspace."""

    kind = "requires_real_form"


class IllConditionedError(NotPositiveDefiniteError):
    """Positive definite, but the ratio of the smallest eigenvalue to the
    largest is below the threshold that every downstream inverse and
    square root needs; carries that ratio."""

    kind = "ill_conditioned"

    def __init__(self, message: str, min_eigenvalue: float, eigenvalue_ratio: float):
        super().__init__(message, min_eigenvalue)
        self.eigenvalue_ratio = eigenvalue_ratio

    def payload(self) -> dict:
        out = super().payload()
        out["eigenvalue_ratio"] = self.eigenvalue_ratio
        return out


class RangeOverflowError(FockError):
    """An exponent left the representable range; carries the exponent.

    Raised by the evaluation of a batch of points, it also carries
    ``exponents``, the exponent of each row that left the range (NaN at the
    others), and ``values``, the value of each other row (NaN at those);
    ``row(i)`` is the error a one-point call at row i raises, and the batch
    error is the one of its largest exponent."""

    kind = "range_overflow"

    def __init__(self, message: str, exponent: float, exponents=None, values=None,
                 template: str | None = None):
        super().__init__(message)
        self.exponent = exponent
        self.exponents = exponents
        self.values = values
        self.template = template

    def row(self, index: int) -> "RangeOverflowError":
        exponent = float(self.exponents[index])
        return RangeOverflowError(self.template.format(exponent), exponent)

    def payload(self) -> dict:
        out = super().payload()
        out["exponent"] = self.exponent
        return out


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
    """A symbolic operation was asked of a function outside the closed class."""

    kind = "unsupported_form"


class ConfigError(FockError):
    kind = "config_invalid"


class OutputUnwritableError(FockError):
    """A report or CSV file could not be written."""

    kind = "output_unwritable"
