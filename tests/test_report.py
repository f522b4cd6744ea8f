"""Structured check results."""

import math

import pytest

from fockops.report import make_bound_check


@pytest.mark.parametrize("value, bound", [
    (math.nan, 0.0), (math.inf, 0.0), (-math.inf, 0.0), (0.0, math.nan),
])
def test_bound_check_fails_on_non_finite_input(value, bound):
    check = make_bound_check("x", value, bound, 1e-12)
    assert not check.passed
    assert math.isnan(check.residual)

