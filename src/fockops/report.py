"""Structured check results shared by the identity suites, the
verification command and the tests, and the JSON renderer of the
command-line reports."""

from __future__ import annotations

import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii


def _scalar_json(value) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value in (math.inf, -math.inf):
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _render(value, indent: str, out: list) -> None:
    """Append the chunks of ``value`` at the nesting whose line prefix is ``indent``."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        if type(value) is list and all(type(item) is float for item in value):
            # One pass for the long float arrays; the repr of a finite float
            # has no "n", so an "n" means a NaN or an inf, which JSON spells
            # differently and the per-item path below handles.
            text = ("," + inner).join(map(float.__repr__, value))
            if "n" not in text:
                out.append("[" + inner + text + indent + "]")
                return
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _render(item, inner, out)
            sep = "," + inner
        out.append(indent + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{" + inner
        for key, item in sorted(value.items()):
            name = key if isinstance(key, str) else _scalar_json(key)
            out.append(sep + encode_basestring_ascii(name) + ": ")
            _render(item, inner, out)
            sep = "," + inner
        out.append(indent + "}")
    else:
        out.append(_scalar_json(value))


def render_json(value) -> str:
    """The text of ``json.dumps(value, sort_keys=True, indent=2)``, byte for byte.

    The stdlib only uses its C encoder without ``indent``; its Python
    encoder makes a chunk per list item, which dominates the rendering of
    long float arrays such as the ``truncate`` sequences."""
    out: list[str] = []
    _render(value, "\n", out)
    return "".join(out)


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


def make_check(
    name: str,
    lhs,
    rhs,
    tolerance: float,
    scale: float | None = None,
) -> CheckResult:
    """Relative-residual comparison of two scalars."""
    lhs_c = complex(lhs)
    rhs_c = complex(rhs)
    if scale is None:
        scale = max(abs(lhs_c), abs(rhs_c), 1e-300)
    residual = abs(lhs_c - rhs_c) / scale
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
