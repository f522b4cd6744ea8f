"""Structured check results."""

import math

import pytest

from fockops.report import fold, make_bound_check


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
