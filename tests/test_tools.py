"""The two tools' logic on fixed inputs.  ``tools/bench_pairs.py``: a gain
is claimed when the change wins at least 9 of every 10 pairs, over at least
10 pairs, and its median beats the parent's by more than the parent's
interquartile range.  ``tools/report_diff.py``: two reports' values are
compared as IEEE bits."""

import importlib.util
import json
import math
import struct
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = load_tool("bench_pairs")
report_diff = load_tool("report_diff")

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


# -- report_diff: the number diff ----------------------------------------------


def test_the_number_diff_reads_floats_as_bits(tmp_path):
    old = {"moved": 0.1, "zero": 0.0, "nan": math.nan, "same": [1.5, -2, "a", None]}
    new = {"moved": math.nextafter(0.1, 1.0), "zero": -0.0, "nan": math.nan,
           "same": [1.5, -2, "a", None]}
    for name, doc in (("old", old), ("new", new)):
        (tmp_path / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
    old, new = (json.loads((tmp_path / f"{name}.json").read_text(encoding="utf-8"))
                for name in ("old", "new"))
    moves = report_diff.number_diff(old, new)
    assert [(m["path"], m["ulps"]) for m in moves] == [("$.moved", 1), ("$.zero", 1)]
    assert moves[0]["relative"] == pytest.approx(1.3878e-16, rel=1e-4)
    assert moves[1]["relative"] is None  # no relative change from a zero
    # JSON text spells every NaN alike; one of another payload is a move
    quiet_one = struct.unpack("<d", struct.pack("<q", 0x7FF8_0000_0000_0001))[0]
    new["nan"] = quiet_one
    assert math.isnan(quiet_one)
    move = report_diff.number_diff(old, new)[1]
    assert (move["path"], move["new"], move["ulps"]) == ("$.nan", quiet_one, None)


def test_a_moved_residual_says_whether_it_got_closer_to_0():
    old = {"checks": [{"lhs": 3e-15, "residual": 3e-15}, {"lhs": 1e-16, "residual": 1e-16},
                      {"residual": 2e-16}, {"residual": math.nan}]}
    new = {"checks": [{"lhs": 1e-15, "residual": 1e-15}, {"lhs": 4e-16, "residual": 4e-16},
                      {"residual": -2e-16}, {"residual": 0.0}]}
    moves = report_diff.number_diff(old, new)
    assert [(m["path"], m.get("closer", "none")) for m in moves] == [
        ("$.checks[0].lhs", "none"), ("$.checks[0].residual", True),
        ("$.checks[1].lhs", "none"), ("$.checks[1].residual", False),
        ("$.checks[2].residual", None), ("$.checks[3].residual", True)]
    # a residual near 1e-16 moves by many ulps where it moves by its own size
    assert moves[3]["ulps"] > 2**51


def test_the_number_diff_lists_a_changed_type_length_or_key():
    moves = report_diff.number_diff({"a": 1, "b": [1.0, 2.0], "c": "x"},
                                    {"a": 1.0, "b": [1.0], "d": "x"})
    assert [(m["path"], m["old"], m["new"]) for m in moves] == [
        ("$.a", 1, 1.0), ("$.b", [1.0, 2.0], [1.0]), ("$.c", "x", None), ("$.d", None, "x")]


def test_ulps_count_the_steps_of_the_bit_order():
    tiny = math.ulp(0.0)
    assert report_diff.ulps(1.0, math.nextafter(1.0, 2.0)) == 1
    assert report_diff.ulps(-tiny, tiny) == 3  # -tiny, -0.0, +0.0, +tiny
    assert report_diff.ulps(-1.0, 1.0) == 2 * report_diff.ulps(0.0, 1.0) + 1
    assert report_diff.ulps(math.nan, 1.0) is None


def test_the_23_reports_are_the_ones_named():
    names = [name for name, _, _ in report_diff.reports()]
    assert len(names) == len(set(names)) == 23
    assert names[:2] == ["verify-default", "verify-nodes-20"]
    assert sum(name.startswith("verify-seed-") for name in names) == 12
    assert sum(name.startswith("cli-batch-") for name in names) == 6
    assert [name for name in names if name.startswith("ladder-")] == [
        "ladder-7", "ladder-11", "ladder-23"]
