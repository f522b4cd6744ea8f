"""Structured check results shared by the identity suites, the
verification command and the tests, and the JSON renderer of the
command-line reports."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import orjson

RENDER_OPTIONS = orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS | orjson.OPT_SERIALIZE_NUMPY

# dicts within dicts that render_json searches for a final run; an array
# nested deeper is rendered by orjson whole, with the same bytes
RUN_DEPTH = 8
# lines of a final run joined as one string: the join takes a short list of
# one repeated block, not a reference per value
RUN_BLOCK = 1024
# what stands for the i-th such array while the rest of the value renders
RUN_MARKER = "\x00final run {}\x00"


def _final_run(value) -> int:
    """The length of the final run of bit-identical values of a C-contiguous
    1-D float64 array, 0 for any other value.  Bits, not ``==``: 0.0 and
    -0.0 render differently, and NaNs with other payloads alike."""
    if (type(value) is not np.ndarray or value.dtype != np.float64 or len(value.shape) != 1
            or not value.size or not value.flags.c_contiguous):
        return 0
    bits = value.view(np.uint64)[::-1]
    changed = bits != bits[0]
    return int(changed.argmax()) if changed.any() else value.size


def _mark_runs(value, depth: int, runs: list):
    """``value`` with each array held as a dict value, in dicts up to
    RUN_DEPTH deep, whose final run has two values or more replaced by a
    marker string; ``runs`` gets (marker, array, depth, run length) of each.
    Dicts on the way are copied, never changed."""
    if depth > RUN_DEPTH:
        return value
    copy = None
    for key, item in value.items():
        if type(item) is dict:
            new = _mark_runs(item, depth + 1, runs)
        elif (length := _final_run(item)) > 1:
            new = RUN_MARKER.format(len(runs))
            runs.append((new, item, depth, length))
        else:
            continue
        if new is not item:
            copy = copy or dict(value)
            copy[key] = new
    return value if copy is None else copy


def render_json(value) -> str:
    """Strict JSON text of ``value``: keys sorted, two-space indent, UTF-8
    text unescaped, a non-finite float as ``null`` and every other float as
    its shortest round-trip digits, in orjson's notation (``1e-7``,
    ``1e16``, ``0.00001`` where Python writes ``1e-07``, ``1e+16``,
    ``1e-05``).  float64 numpy arrays are encoded from their buffer.  What
    orjson cannot encode, such as an integer outside 64 bits, raises
    ``orjson.JSONEncodeError``, a TypeError.  The text ends in a newline,
    appended by orjson, so that the text is built once.

    A 1-D float64 array held as a dict value is written up to the start of
    its final run of bit-identical values, and that run's line once, then
    repeated in the one join that builds the text: the bytes of orjson's
    whole-array rendering, without rendering each copy (a bounded truncate
    sequence ends in a long run of its limit).  Each array's place in the
    text is a marker string; should any marker not occur exactly once
    there, the value is rendered by orjson whole."""
    option = RENDER_OPTIONS | orjson.OPT_APPEND_NEWLINE
    runs: list = []
    marked = _mark_runs(value, 1, runs) if type(value) is dict else value
    text = orjson.dumps(marked, option=option).decode()
    if not runs:
        return text
    places = []
    for marker, array, depth, length in runs:
        quoted = orjson.dumps(marker).decode()
        if text.count(quoted) != 1:  # the value holds a marker itself
            return orjson.dumps(value, option=option).decode()
        places.append((text.index(quoted), len(quoted), array, depth, length))
    pieces, done = [], 0
    for at, size, array, depth, length in sorted(places, key=lambda place: place[0]):
        # the array up to the run's first value, indented to its depth,
        # without its closing "\n]"
        head = orjson.dumps(array[:array.size - length + 1], option=RENDER_OPTIONS).decode()
        head = head[:-2].replace("\n", "\n" + "  " * depth)
        repeat = ",\n" + head[head.rindex("\n") + 1:]
        blocks, rest = divmod(length - 1, RUN_BLOCK)
        pieces += [text[done:at], head, *[repeat * RUN_BLOCK] * blocks, repeat * rest,
                   "\n" + "  " * depth + "]"]
        done = at + size
    pieces.append(text[done:])
    return "".join(pieces)


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
