"""Structured check results."""

import dataclasses
import json
import math
import struct

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockops.cli import cmd_truncate
from fockops.report import (
    RENDER_OPTIONS,
    RUN_MARKER,
    CheckResult,
    fold,
    make_bound_check,
    make_check,
    make_relative_check,
    make_strict_check,
    render_json,
)


@pytest.mark.parametrize("value, bound", [
    (math.nan, 0.0), (math.inf, 0.0), (-math.inf, 0.0), (0.0, math.nan),
])
def test_bound_check_fails_on_non_finite_input(value, bound):
    check = make_bound_check("x", value, bound, 1e-12)
    assert not check.passed
    assert math.isnan(check.residual)


@pytest.mark.parametrize("residual, tolerance, passed", [
    (0.0, 0.0, True), (1e-13, 1e-12, True), (1e-12, 1e-12, True), (2e-12, 1e-12, False),
    (math.nan, 1e-12, False), (math.inf, 1e-12, False), (math.nan, math.inf, False),
])
def test_a_check_passes_exactly_when_its_residual_is_within_its_tolerance(
        residual, tolerance, passed):
    check = CheckResult("x", 0.0, 0.0, residual, tolerance)
    assert check.passed is passed
    assert check.to_json()["pass"] is passed


def test_pass_is_not_stored():
    assert "passed" not in {f.name for f in dataclasses.fields(CheckResult)}


@pytest.mark.parametrize("floor", [0.0, 1e-3, -2.5, 1.0 - 1e-6])
def test_strict_check_is_the_bound_of_the_next_float(floor):
    above = math.nextafter(floor, math.inf)
    below = math.nextafter(floor, -math.inf)
    assert not make_strict_check("x", floor, floor).passed
    assert make_strict_check("x", above, floor).passed
    assert not make_strict_check("x", below, floor).passed
    assert not make_strict_check("x", floor, floor, above=False).passed
    assert make_strict_check("x", below, floor, above=False).passed
    assert not make_strict_check("x", above, floor, above=False).passed
    check = make_strict_check("x", above, floor)
    assert (check.lhs, check.rhs, check.residual, check.tolerance) == (above, floor, 0.0, 0.0)


@pytest.mark.parametrize("value, floor", [
    (math.nan, 0.0), (math.inf, 0.0), (-math.inf, 0.0),
    (1.0, math.nan), (1.0, math.inf), (1.0, -math.inf),
])
@pytest.mark.parametrize("above", [True, False])
def test_strict_check_fails_on_non_finite_input(value, floor, above):
    check = make_strict_check("x", value, floor, above)
    assert not check.passed
    assert math.isnan(check.residual)


@pytest.mark.parametrize("pick", [max, min])
def test_fold_keeps_nan_on_either_side(pick):
    assert math.isnan(fold(pick, 0.0, math.nan))
    assert math.isnan(fold(pick, math.nan, 0.0))
    assert fold(pick, 1.0, 2.0) == pick(1.0, 2.0)


@pytest.mark.parametrize("bad", [math.nan, complex(math.nan, 0.0), math.inf, -math.inf,
                                 complex(0.0, math.inf)])
@pytest.mark.parametrize("side", ["got", "want"])
@pytest.mark.parametrize("at", [0, 1, 2])
def test_relative_check_fails_on_a_non_finite_value_anywhere(bad, side, at):
    pairs = {"got": [1.0, 2.0 + 1e-14j, 3.0], "want": [1.0, 2.0, 3.0 + 1e-15]}
    pairs[side][at] = bad
    check = make_relative_check("x", pairs["got"], pairs["want"], 1e-12)
    assert not check.passed
    assert math.isnan(check.residual)


def test_relative_check_divides_a_zero_reference_by_its_floor():
    check = make_relative_check("x", [0.0, 1e-310], [0.0, 0.0], 1e-9, floor=1e-300)
    assert check.lhs == 1e-310 / 1e-300 and check.passed
    assert make_relative_check("x", [], [], 0.0).passed
    with pytest.raises(ValueError):
        make_relative_check("x", [1.0], [1.0, 2.0], 1e-12)


def test_relative_check_has_the_bits_of_the_per_pair_fold():
    # the scalar types of the hermitian check: a Python complex and numpy's conjugate of one
    rng = np.random.default_rng(23)
    direct = (rng.standard_normal(500) * np.exp(rng.uniform(-30, 30, 500))).tolist()
    direct = [complex(a, b) for a, b in zip(direct, rng.standard_normal(500).tolist())]
    swapped = [np.conj(w * complex(1.0, 1e-15)) for w in direct]
    worst = 0.0
    for got, want in zip(swapped, direct):
        gap = abs(want - got) / max(1.0, abs(want))
        one = make_relative_check("x", [got], [want], 1.0).lhs
        assert struct.pack("<d", one) == struct.pack("<d", gap)
        worst = fold(max, worst, gap)
    check = make_relative_check("x", swapped, direct, 1.0)
    assert struct.pack("<d", check.lhs) == struct.pack("<d", worst)
    assert (check.rhs, check.residual, check.tolerance) == (0.0, worst, 1.0)


CRAFTED = {
    "floats": [0.1, -0.0, 1e-05, 1.5e-06, 1e16, 1.5e300, 5e-324, 2.0, 1.2345678901234568e17],
    "ints": [0, -3, 2**63 - 1, -2**63, 7],
    "mixed": [1, 2.0, True, None, "x", [], {}],
    "flags": [True, False, None],
    "empty": [],
    "emptyDict": {},
    "text": "caf\u00e9 \u2211 \"quoted\" \\ tab\t\n\u2028",
    "nested": [[1.0, 2.0], [[3.0], []], [{"b": 1, "a": [0.25, -1e-07]}]],
    "tuple": (1.0, 2.0),
    "array": np.array([0.5, -0.0, 1e-300, 6.02e23]),
    "z": {"b": {"d": [], "c": {}}, "a": -1.0},
    "\u00fcber": 1,
}


def _same_bits(parsed, value) -> bool:
    """parsed equals value, every float bit for bit (so -0.0 is not 0.0)."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, float):
        return isinstance(parsed, float) and struct.pack("<d", parsed) == struct.pack("<d", value)
    if isinstance(value, (list, tuple)):
        return (isinstance(parsed, list) and len(parsed) == len(value)
                and all(map(_same_bits, parsed, value)))
    if isinstance(value, dict):
        return parsed.keys() == value.keys() and all(_same_bits(parsed[k], v)
                                                     for k, v in value.items())
    return type(parsed) is type(value) and parsed == value


def _strict(text: str):
    """json.loads that refuses NaN and Infinity, the non-standard tokens."""
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("value", [
    pytest.param([], id="value1"), pytest.param({}, id="value2"), 1.0, "s", None, True, 3,
    pytest.param([1.0], id="value10"),
])
def test_render_json_matches_stdlib_indent_2(value):
    # Where neither escaping nor float notation differs, the bytes are still
    # exactly those of the standard library.
    assert render_json(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("value", [
    CRAFTED, [], {}, 1.0, "s", None, True, 3, [1.0], -0.0, 5e-324,
], ids=["crafted", "empty-list", "empty-dict", "1.0", "s", "None", "True", "3", "one-float",
        "negative-zero", "subnormal"])
def test_render_json_round_trips_bit_for_bit(value):
    assert _same_bits(json.loads(render_json(value)), value)


@pytest.mark.parametrize("value, want", [
    (math.nan, None), (math.inf, None), (-math.inf, None),
    ([1.0, math.nan, 2.5], [1.0, None, 2.5]),
    ({"inf": math.inf, "ninf": -math.inf, "x": 0.5}, {"inf": None, "ninf": None, "x": 0.5}),
    (np.array([math.nan, 1.0, math.inf]), [None, 1.0, None]),
], ids=["nan", "inf", "ninf", "list", "dict", "array"])
def test_render_json_writes_non_finite_as_null(value, want):
    assert _strict(render_json(value)) == want


def test_render_json_is_strict_json():
    value = {**CRAFTED, "nan": math.nan, "infs": [math.inf, -math.inf]}
    text = render_json(value)
    parsed = _strict(text)  # no NaN/Infinity token, and valid JSON throughout
    assert parsed["nan"] is None and parsed["infs"] == [None, None]
    assert parsed["text"] == CRAFTED["text"]
    assert "caf\u00e9" in text  # UTF-8 text is written as itself, not escaped


def test_render_json_matches_stdlib_on_truncate_report():
    # the report holds logCaInv as a float64 array; the standard library
    # writes it as the list of its Python floats
    report = cmd_truncate({"kind": "perturbation", "base": 1.2, "amplitude": 0.4,
                           "power": 1.7, "maxN": 2000})
    assert render_json(report) == json.dumps(report, sort_keys=True, indent=2,
                                             default=np.ndarray.tolist) + "\n"


# float64 arrays of any bit pattern: NaNs of every payload, infinities, -0.0
# and subnormals among them
FLOAT64_ARRAYS = st.lists(st.integers(0, 2**64 - 1), max_size=64).map(
    lambda bits: np.array(bits, dtype=np.uint64).view(np.float64))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(array=FLOAT64_ARRAYS)
def test_render_json_writes_an_array_as_its_list(array):
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 2.2250738585072014e-308])
    for value in (array, np.concatenate([array, special])):
        assert render_json({"a": value}) == render_json({"a": value.tolist()})


def test_render_json_rejects_what_stdlib_rejects():
    with pytest.raises(TypeError):
        render_json({"x": object()})


@pytest.mark.parametrize("lhs, rhs", [(1 + 2j, 1.0), (1.0, 1 - 2j)])
def test_check_with_a_complex_side_renders_both_as_re_im(lhs, rhs):
    out = make_check("c", lhs, rhs, 1e-12).to_json()
    assert out["lhs"] == {"re": complex(lhs).real, "im": complex(lhs).imag}
    assert out["rhs"] == {"re": complex(rhs).real, "im": complex(rhs).imag}
    assert out["residual"] == pytest.approx(2 / math.sqrt(5), rel=1e-15)
    assert out["pass"] is False


# bit patterns a report array may hold: both zeros, NaNs of two payloads,
# both infinities, the smallest subnormal, and two plain values; drawn from
# a short list, neighbours often repeat, so arrays end in runs of any length
RUN_BITS = [np.float64(x).view(np.uint64).item()
            for x in (0.0, -0.0, np.inf, -np.inf, 5e-324, 1.5, -2.25)] + [
    0x7FF8000000000000, 0xFFF8000000000001]


def _bits_array(bits) -> np.ndarray:
    return np.array(bits, dtype=np.uint64).view(np.float64)


def _nested(array, depth: int, siblings: dict) -> dict:
    """``array`` held as a dict value ``depth`` dicts deep, next to ``siblings``
    at every level."""
    value = {"logCaInv": array, **siblings}
    for level in range(depth - 1):
        value = {f"level{level}": value, **siblings}
    return value


def _orjson_whole(value) -> str:
    return orjson.dumps(value, option=RENDER_OPTIONS | orjson.OPT_APPEND_NEWLINE).decode()


@settings(derandomize=True, max_examples=400, deadline=None)
@given(prefix=st.lists(st.sampled_from(RUN_BITS), max_size=12),
       last=st.sampled_from(RUN_BITS), run=st.integers(0, 40), depth=st.integers(1, 3))
def test_render_json_writes_a_final_run_with_the_bytes_of_orjson(prefix, last, run, depth):
    # run 0 leaves the prefix's own final run; an empty prefix makes the
    # whole array one run
    array = _bits_array(prefix + [last] * run)
    siblings = {"note": "a sibling", "values": [array, {"inner": array}]}
    value = _nested(array, depth, siblings)
    assert render_json(value) == _orjson_whole(value)


@pytest.mark.parametrize("array", [
    _bits_array([]), _bits_array([RUN_BITS[0]]), _bits_array(RUN_BITS[:2]),
    _bits_array(RUN_BITS[:1] * 5 + RUN_BITS[1:2] * 5), _bits_array(RUN_BITS[7:9] * 4),
    _bits_array(RUN_BITS[:1] * 7), np.full(6, np.nan), np.arange(12.0)[::2],
    np.full(5, 2.0, dtype=np.float32),
], ids=["empty", "one-value", "no-run", "zero-then-negative-zero", "two-nan-payloads",
        "whole-array", "nan-run", "strided", "float32"])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_render_json_matches_orjson_on_edge_arrays(array, depth):
    value = _nested(array, depth, {"inList": [array]})
    if not array.flags.c_contiguous:  # orjson refuses it, and so does the renderer
        with pytest.raises(TypeError):
            render_json(value)
        return
    assert render_json(value) == _orjson_whole(value)


def test_render_json_splits_zero_and_negative_zero_runs():
    text = render_json({"a": np.array([1.0, 0.0, 0.0, -0.0, -0.0, -0.0])})
    assert text.split() == ["{", '"a":', "[", "1.0,", "0.0,", "0.0,", "-0.0,", "-0.0,",
                            "-0.0", "]", "}"]


@pytest.mark.parametrize("text", [
    RUN_MARKER.format(0), RUN_MARKER.format(1), "x" + RUN_MARKER.format(0) + "y",
    RUN_MARKER.format(0)[1:], '"' + RUN_MARKER.format(0) + '"',
], ids=["marker-0", "marker-1", "inside", "partial", "quoted"])
def test_render_json_keeps_its_bytes_when_a_string_holds_the_marker(text):
    # an error payload, a config echo or a key may hold any text, the run
    # marker too
    array = np.array([0.5, 1.0, 1.0, 1.0])
    for value in ({"error": {"kind": "x", "message": text}, "sequence": {"logCaInv": array}},
                  {"config": {text: 1.0}, "sequence": {"logCaInv": array}},
                  {"a": array, "b": array[1:], "config": [text]}):
        assert render_json(value) == _orjson_whole(value)


def test_render_json_leaves_its_value_unchanged():
    array = np.array([0.5, 1.0, 1.0])
    value = {"sequence": {"logCaInv": array}}
    render_json(value)
    assert value == {"sequence": {"logCaInv": array}} and value["sequence"]["logCaInv"] is array


@pytest.mark.parametrize("config, run", [
    ({"kind": "constant", "r": 0.7, "t": 0.7, "maxN": 5000}, 5000),
    ({"kind": "constant", "r": 0.5, "t": 0.8, "maxN": 5000}, 1),
    ({"kind": "perturbation", "base": 0.5, "amplitude": 0.3, "power": 2.0, "maxN": 200_000},
     None),
    ({"kind": "perturbation", "base": 0.5, "amplitude": 0.3, "power": 0.4, "maxN": 200_000}, 1),
], ids=["constant-equal", "constant-apart", "perturbation-convergent",
        "perturbation-divergent"])
def test_truncate_reports_have_the_bytes_of_the_whole_array_rendering(config, run):
    # r = t is one run of zeros, r != t and a divergent tower none; a
    # convergent tower ends in a long run of its limit
    report = cmd_truncate(config)
    values = report["sequence"]["logCaInv"]
    final = len(values) - np.flatnonzero(values != values[-1])[-1] - 1 \
        if (values != values[-1]).any() else len(values)
    assert final == run if run is not None else final > len(values) // 2
    assert render_json(report) == _orjson_whole(report)
