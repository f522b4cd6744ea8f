"""Structured check results."""

import json
import math

import pytest

from fockops.cli import cmd_truncate
from fockops.report import fold, make_bound_check, render_json


@pytest.mark.parametrize("value, bound", [
    (math.nan, 0.0), (math.inf, 0.0), (-math.inf, 0.0), (0.0, math.nan),
])
def test_bound_check_fails_on_non_finite_input(value, bound):
    check = make_bound_check("x", value, bound, 1e-12)
    assert not check.passed
    assert math.isnan(check.residual)



@pytest.mark.parametrize("pick", [max, min])
def test_fold_keeps_nan_on_either_side(pick):
    assert math.isnan(fold(pick, 0.0, math.nan))
    assert math.isnan(fold(pick, math.nan, 0.0))
    assert fold(pick, 1.0, 2.0) == pick(1.0, 2.0)


CRAFTED = {
    "floats": [0.1, -0.0, 1e-05, 1e16, 1.5e300, 5e-324, 2.0],
    "withNan": [1.0, math.nan, 2.5],
    "withInf": [math.inf, -math.inf, 0.5],
    "scalars": {"nan": math.nan, "inf": math.inf, "ninf": -math.inf, "negzero": -0.0},
    "ints": [0, -3, 10**20, 7],
    "mixed": [1, 2.0, True, None, "x", [], {}],
    "flags": [True, False, None],
    "empty": [],
    "emptyDict": {},
    "text": "caf\u00e9 \u2211 \"quoted\" \\ tab\t\n",
    "nested": [[1.0, 2.0], [[3.0], []], [{"b": 1, "a": [0.25, -1e-07]}]],
    "tuple": (1.0, 2.0),
    "z": {"b": {"d": [], "c": {}}, "a": -1.0},
    "\u00fcber": 1,
}


@pytest.mark.parametrize("value", [
    CRAFTED, [], {}, 1.0, math.nan, "s", None, True, 3, [math.nan], [1.0],
])
def test_render_json_matches_stdlib_indent_2(value):
    assert render_json(value) == json.dumps(value, sort_keys=True, indent=2)


def test_render_json_matches_stdlib_on_truncate_report():
    report = cmd_truncate({"kind": "perturbation", "base": 1.2, "amplitude": 0.4,
                           "power": 1.7, "maxN": 2000})
    assert render_json(report) == json.dumps(report, sort_keys=True, indent=2)


def test_render_json_rejects_what_stdlib_rejects():
    with pytest.raises(TypeError):
        render_json({"x": object()})
