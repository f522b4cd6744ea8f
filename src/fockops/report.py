"""Structured check results shared by the identity suites, the
verification command and the tests, and the JSON renderer of the
command-line reports."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import orjson

RENDER_OPTIONS = orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS | orjson.OPT_SERIALIZE_NUMPY


def render_json(value, *, newline: bool = False) -> str:
    """Strict JSON text of ``value``: keys sorted, two-space indent, UTF-8
    text unescaped, a non-finite float as ``null`` and every other float as
    its shortest round-trip digits, in orjson's notation (``1e-7``,
    ``1e16``, ``0.00001`` where Python writes ``1e-07``, ``1e+16``,
    ``1e-05``).  float64 numpy arrays are encoded from their buffer.  What
    orjson cannot encode, such as an integer outside 64 bits, raises
    ``orjson.JSONEncodeError``, a TypeError.  With ``newline`` the text
    ends in one, appended by orjson, so that the text is built once."""
    option = RENDER_OPTIONS | orjson.OPT_APPEND_NEWLINE if newline else RENDER_OPTIONS
    return orjson.dumps(value, option=option).decode()


def complex_json(value):
    """Numbers serialize as-is; complex values as {"re": .., "im": ..}."""
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    return float(value)


def fold(pick, acc: float, values) -> float:
    """A running ``max`` or ``min`` (``pick``) of ``acc`` and a value, or every
    value of an array at once, that keeps a NaN.

    The builtins drop a NaN in second place (``max(0.0, nan)`` is 0.0), so a
    residual that went NaN would otherwise be folded away and pass."""
    keep_nan = {max: np.maximum, min: np.minimum}[pick]
    return float(keep_nan.reduce(np.ravel(values), initial=acc))


@dataclass(frozen=True)
class CheckResult:
    """One check: it passes if and only if its residual is within its
    tolerance, so a NaN residual (``null`` in a report) fails.  For a bound,
    ``lhs`` is the value checked and ``rhs`` its limit."""

    name: str
    lhs: complex | float
    rhs: complex | float
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return bool(self.residual <= self.tolerance)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "lhs": complex_json(self.lhs),
            "rhs": complex_json(self.rhs),
            "residual": float(self.residual),
            "tolerance": float(self.tolerance),
            "pass": self.passed,
        }


def make_check(name: str, lhs, rhs, tolerance: float) -> CheckResult:
    """Relative-residual comparison of two scalars."""
    lhs_c = complex(lhs)
    rhs_c = complex(rhs)
    residual = abs(lhs_c - rhs_c) / max(abs(lhs_c), abs(rhs_c), 1e-300)
    if lhs_c.imag == 0 and rhs_c.imag == 0:
        lhs_out, rhs_out = lhs_c.real, rhs_c.real
    else:
        lhs_out, rhs_out = lhs_c, rhs_c
    return CheckResult(name, lhs_out, rhs_out, residual, tolerance)


def make_bound_check(name: str, value: float, bound: float, tolerance: float) -> CheckResult:
    """Check value <= bound + tolerance, reporting the overshoot.  A
    non-finite value or bound fails with a NaN overshoot."""
    if math.isfinite(value) and math.isfinite(bound):
        overshoot = max(0.0, value - bound)
    else:
        overshoot = math.nan
    return CheckResult(name, value, bound, overshoot, tolerance)


def make_relative_check(name: str, got, want, tolerance: float,
                        floor: float = 1.0) -> CheckResult:
    """Bound check, by 0 within ``tolerance``, of the worst relative gap
    ``|g - w| / max(floor, |w|)`` over the pairs of ``got`` and ``want``; a
    NaN or an infinity in any pair fails it.  ``floor`` must be positive, as
    a zero reference divides by it.  Each gap is taken in the scalar types
    given: a Python complex and a numpy one round a modulus differently."""
    gaps = [abs(g - w) / max(floor, abs(w)) for g, w in zip(got, want, strict=True)]
    return make_bound_check(name, fold(max, 0.0, gaps), 0.0, tolerance)


def make_strict_check(name: str, value: float, limit: float, above: bool = True) -> CheckResult:
    """Check value > limit (value < limit if not ``above``) with tolerance 0,
    as the bound that the float next to ``limit`` on that side states, so
    value == limit fails, and so does a non-finite value or limit."""
    side = math.inf if above else -math.inf
    edge = math.nextafter(limit, side) if math.isfinite(limit) else limit
    low, high = (edge, value) if above else (value, edge)
    return CheckResult(name, value, limit, make_bound_check(name, low, high, 0.0).residual, 0.0)
