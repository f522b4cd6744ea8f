"""The claim rule of ``tools/bench_pairs.py``, on fixed numbers: a gain is
claimed when the change wins at least 9 of every 10 pairs, over at least 10
pairs, and its median beats the parent's by more than the parent's
interquartile range."""

import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
SPEC = importlib.util.spec_from_file_location("bench_pairs", PATH)
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)

# sorted: 0.470 ... 0.476, 0.478, 0.479, 0.480; median 0.4745, q1 0.47175, q3 0.47825
PARENT = [0.470, 0.480, 0.475, 0.472, 0.478, 0.471, 0.476, 0.474, 0.479, 0.473]
IQR = 0.47825 - 0.47175


def test_the_quartiles_are_perfbenchs():
    assert bench_pairs.quartiles(PARENT) == pytest.approx((0.47175, 0.4745, 0.47825))
    assert bench_pairs.quartiles([0.5]) == (0.5, 0.5, 0.5)


@pytest.mark.parametrize("change, won, holds", [
    ([p - 0.02 for p in PARENT], 10, True),
    ([p - 0.02 for p in PARENT[:9]] + [PARENT[9] + 0.01], 9, True),
    ([p - 0.02 for p in PARENT[:8]] + [p + 0.01 for p in PARENT[8:]], 8, False),
    ([p - 0.005 for p in PARENT], 10, False),  # every pair won, but by less than the IQR
    ([p - 0.02 for p in PARENT[:9]] + [PARENT[9]], 9, True),  # a tie is not won
    ([p + 0.02 for p in PARENT], 0, False),
], ids=["all won", "nine won", "eight won", "inside the spread", "a tie", "slower"])
def test_the_claim_needs_nine_of_ten_pairs_and_a_gap_past_the_parents_spread(change, won, holds):
    rule = bench_pairs.claim(PARENT, change)
    assert (rule["pairs"], rule["won"], rule["holds"]) == (10, won, holds)
    assert rule["parent_iqr"] == pytest.approx(IQR)


def test_the_gap_is_the_difference_of_the_medians():
    rule = bench_pairs.claim(PARENT, [p - 0.02 for p in PARENT])
    assert rule["gap"] == pytest.approx(0.02)


def test_fewer_than_ten_pairs_never_hold():
    rule = bench_pairs.claim(PARENT[:9], [p - 0.02 for p in PARENT[:9]])
    assert rule["won"] == 9 and not rule["holds"]


def test_the_rule_scales_to_more_pairs():
    parent = PARENT * 2
    assert bench_pairs.claim(parent, [p - 0.02 for p in parent[:18]] + parent[18:])["holds"]
    assert not bench_pairs.claim(parent, [p - 0.02 for p in parent[:17]] + parent[17:])["holds"]


def test_a_metric_where_higher_is_better_wins_upward():
    up = bench_pairs.claim(PARENT, [p + 0.02 for p in PARENT], better="higher")
    down = bench_pairs.claim(PARENT, [p - 0.02 for p in PARENT], better="higher")
    assert (up["won"], up["holds"], up["gap"]) == (10, True, pytest.approx(0.02))
    assert (down["won"], down["holds"]) == (0, False)


def test_pairs_of_unequal_length_are_refused():
    with pytest.raises(ValueError):
        bench_pairs.claim(PARENT, PARENT[:9])
