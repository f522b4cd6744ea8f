"""Structured check results shared by the identity suites, the
verification command and the tests, and the JSON renderer of the
command-line reports."""

from __future__ import annotations

import math
from dataclasses import dataclass

import orjson

RENDER_OPTIONS = orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS | orjson.OPT_SERIALIZE_NUMPY


def render_json(value) -> str:
    """Strict JSON text of ``value``: keys sorted, two-space indent, UTF-8
    text unescaped, a non-finite float as ``null`` and every other float as
    its shortest round-trip digits, in orjson's notation (``1e-7``,
    ``1e16``, ``0.00001`` where Python writes ``1e-07``, ``1e+16``,
    ``1e-05``).  float64 numpy arrays are encoded from their buffer.  What
    orjson cannot encode, such as an integer outside 64 bits, raises
    ``orjson.JSONEncodeError``, a TypeError."""
    return orjson.dumps(value, option=RENDER_OPTIONS).decode()


def complex_json(value):
    """Numbers serialize as-is; complex values as {"re": .., "im": ..}."""
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if value is None:
        return None
    return float(value)


def fold(pick, acc: float, value: float) -> float:
    """One step of a running ``max`` or ``min`` (``pick``) that keeps a NaN.

    The builtins drop a NaN in second place (``max(0.0, nan)`` is 0.0), so a
    residual that went NaN would otherwise be folded away and pass."""
    if math.isnan(acc) or math.isnan(value):
        return math.nan
    return pick(acc, value)


@dataclass(frozen=True)
class CheckResult:
    name: str
    lhs: complex | float | None
    rhs: complex | float | None
    residual: float
    tolerance: float
    passed: bool

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "lhs": complex_json(self.lhs),
            "rhs": complex_json(self.rhs),
            "residual": float(self.residual),
            "tolerance": float(self.tolerance),
            "pass": bool(self.passed),
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
    return CheckResult(name, lhs_out, rhs_out, residual, tolerance, residual <= tolerance)


def make_bound_check(name: str, value: float, bound: float, tolerance: float) -> CheckResult:
    """Check value <= bound + tolerance, reporting the overshoot.  A
    non-finite value or bound fails with a NaN overshoot."""
    if math.isfinite(value) and math.isfinite(bound):
        overshoot = max(0.0, value - bound)
    else:
        overshoot = math.nan
    return CheckResult(name, value, bound, overshoot, tolerance, overshoot <= tolerance)
