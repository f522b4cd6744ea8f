"""Partial normalization constants along growing diagonal towers."""

import json
import math
import re
import time

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fockops import CaSequence, RealLinearMap, TruncationSpec, build_context, ca_sequence
from fockops import truncation
from fockops.cli import main
from fockops.errors import ConfigError, NodeBudgetError
from fockops.quadrature import NODE_BUDGET


def scalar_log_ca_inv(r: float, t: float, n: int) -> float:
    """Closed form for constant eigenvalues: (n/2) log[(r+t)/(2 sqrt(rt))]."""
    return 0.5 * n * math.log((r + t) / (2.0 * math.sqrt(r * t)))


def test_equal_blocks_stay_at_one_and_bounded():
    seq = ca_sequence(TruncationSpec.constant(1.0, 1.0, 50))
    assert np.allclose(np.exp(seq.log_ca_inv), 1.0, atol=1e-15)
    assert seq.bounded
    assert seq.tail_bound == 0.0


def test_constant_unequal_blocks_follow_power_law_and_diverge():
    seq = ca_sequence(TruncationSpec.constant(4.0, 1.0, 20))
    for n in range(1, 21):
        want = 1.25 ** (n / 2.0)
        assert np.exp(seq.log_ca_inv)[n - 1] == pytest.approx(want, rel=1e-12)
        assert seq.log_ca_inv[n - 1] == pytest.approx(
            scalar_log_ca_inv(4.0, 1.0, n), rel=1e-13
        )
    assert not seq.bounded


def test_decaying_perturbation_is_bounded_with_small_tail():
    # r_k = 1 + 1/k^2: increments fall like 1/(8 k^4) per the local
    # quadratic model; the long partial product is the oracle
    spec = TruncationSpec.perturbation(1.0, 1.0, 2.0, 200)
    seq = ca_sequence(spec)
    assert seq.bounded
    assert seq.tail_bound is not None and seq.tail_bound <= 1e-3

    oracle = ca_sequence(TruncationSpec.perturbation(1.0, 1.0, 2.0, 10_000))
    limit = oracle.log_ca_inv[-1]
    assert seq.log_ca_inv[-1] + seq.tail_bound >= limit - 1e-6
    assert limit - seq.log_ca_inv[-1] <= max(seq.tail_bound * 3.0, 1e-6)


def test_increments_nonnegative_and_monotone_partial_sums():
    rng = np.random.default_rng(2)
    r = rng.uniform(0.5, 3.0, size=64)
    t = rng.uniform(0.5, 3.0, size=64)
    seq = ca_sequence(TruncationSpec(tuple(r), tuple(t), 64))
    assert np.all(np.diff(seq.log_ca_inv, prepend=0.0) >= 0.0)
    assert np.all(np.diff(seq.log_ca_inv) >= 0.0)


def test_per_term_factor_reaches_one_only_at_equality():
    spec = TruncationSpec((2.0, 3.0, 1.5), (2.0, 1.0, 1.5), 3)
    increments = np.diff(ca_sequence(spec).log_ca_inv, prepend=0.0)
    assert increments[0] == pytest.approx(0.0, abs=1e-15)
    assert increments[1] > 1e-2
    assert increments[2] == pytest.approx(0.0, abs=1e-15)


def test_matches_operator_context_constant_for_explicit_blocks():
    rng = np.random.default_rng(3)
    r = rng.uniform(0.5, 3.0, size=10)
    t = rng.uniform(0.5, 3.0, size=10)
    seq = ca_sequence(TruncationSpec(tuple(r), tuple(t), 10))
    for n in range(1, 11):
        ctx = build_context(
            RealLinearMap.from_blocks(np.diag(r[:n]), np.diag(t[:n]))
        )
        assert seq.log_ca_inv[n - 1] == pytest.approx(
            -np.log(ctx.c_a), rel=1e-12, abs=1e-12
        )


def test_validation_rejects_bad_specs():
    with pytest.raises(ConfigError):
        TruncationSpec((1.0,), (1.0,), 2)
    with pytest.raises(ConfigError):
        TruncationSpec((1.0, -1.0), (1.0, 1.0), 2)


@pytest.mark.parametrize("r, t", [
    ((np.nan, 1.0), (1.0, 1.0)),
    ((1.0, 1.0), (1.0, np.inf)),
    ((1.0, -np.inf), (1.0, 1.0)),
])
def test_non_finite_eigenvalues_rejected(r, t):
    with pytest.raises(ConfigError, match="finite"):
        TruncationSpec(r, t, 2)


@pytest.mark.parametrize("make", [
    lambda max_n: TruncationSpec.constant(4.0, 1.0, max_n),
    lambda max_n: TruncationSpec.perturbation(1.0, 0.5, 2.0, max_n),
], ids=["constant", "perturbation"])
def test_generated_towers_beyond_the_budget_are_refused(make):
    with pytest.raises(NodeBudgetError, match=str(NODE_BUDGET)):
        make(NODE_BUDGET + 1)


def test_perturbation_with_infinite_amplitude_rejected():
    with pytest.raises(ConfigError, match="finite"):
        TruncationSpec.perturbation(1.0, np.inf, 2.0, 4)


@pytest.mark.parametrize("base, amplitude, power", [
    (1.0, 1.0, -2000.0),  # 2^-2000 underflows to 0, and amplitude / 0 divides by zero
    (1e308, 1e308, 1.0),  # base + amplitude overflows
], ids=["divide-by-zero", "overflow"])
def test_perturbation_terms_beyond_the_float_range_rejected(base, amplitude, power):
    # refused by the finiteness check, without a numpy warning on the way
    with pytest.raises(ConfigError, match="finite"):
        TruncationSpec.perturbation(base, amplitude, power, 3)


@pytest.mark.parametrize("power", [0.6, 1.5, 1.7321, 1.9, 2, 2.0, -1, 3])
def test_perturbation_matches_python_loop(power):
    # the per-term formula in Python floats is the reference, to the bit; at
    # 300,000 terms k^3 passes 2^53, where the exact integer power and the
    # C library's pow round differently.  A base of 1e-100 vanishes in the
    # sum, so that r_k shows every bit of amplitude / k^power.
    max_n = 300_000
    for base in (1.3, 1e-100):
        spec = TruncationSpec.perturbation(base, 0.7, power, max_n)
        want = [base + 0.7 / k**power for k in range(1, max_n + 1)]
        assert spec.r_seq.tolist() == want
        assert spec.t_seq.tolist() == [base] * max_n
        assert not spec.r_seq.flags.writeable


@pytest.mark.parametrize("power, message", [
    (math.inf, None),  # k^inf is inf past k = 1, so r_k = base: no overflow
    (-math.inf, "eigenvalues must be positive and finite"),  # amplitude / 0
    (math.nan, "eigenvalues must be positive and finite"),
    (60.0, "k^power overflows for power 60.0"),
], ids=["inf", "-inf", "nan", "60.0"])
def test_perturbation_power_outcomes_follow_python_pow(power, message):
    max_n = 10**6
    if message is None:
        spec = TruncationSpec.perturbation(1.3, 0.7, power, max_n)
        assert spec.r_seq[0] == 1.3 + 0.7
        assert (spec.r_seq[1:] == 1.3).all()
    else:
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            TruncationSpec.perturbation(1.3, 0.7, power, max_n)


@pytest.mark.parametrize("power", [256_000_000, 2**63 - 1])
def test_a_huge_int_power_is_refused_before_its_exact_power_is_built(power):
    # 2^power alone is past the float maximum; building it as an exact
    # integer took 1.8 s and 135 MB at 256,000,000
    started = time.perf_counter()
    with pytest.raises(ConfigError, match=f"^k\\^power overflows for power {power}$"):
        TruncationSpec.perturbation(1.3, 0.7, power, 2)
    assert time.perf_counter() - started < 0.1


def test_int_power_overflow_boundary():
    spec = TruncationSpec.perturbation(1e-100, 0.7, 1023, 2)
    assert spec.r_seq.tolist() == [1e-100 + 0.7, 1e-100 + 0.7 / 2**1023]
    with pytest.raises(ConfigError, match="^k\\^power overflows for power 1024$"):
        TruncationSpec.perturbation(1e-100, 0.7, 1024, 2)
    with pytest.raises(ConfigError, match="^k\\^power overflows for power 1023$"):
        TruncationSpec.perturbation(1e-100, 0.7, 1023, 3)  # 3^1023 overflows
    # 1^power is 1 for every power: a tower of one term has no overflow
    assert TruncationSpec.perturbation(1.3, 0.7, 2**63 - 1, 1).r_seq.tolist() == [1.3 + 0.7]


def test_truncate_with_an_infinite_power_exits_0(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"kind": "perturbation", "base": 1.0, "amplitude": 1.0, '
                    '"power": Infinity, "maxN": 50}')
    assert main(["truncate", "--config", str(path)]) == 0
    log_ca_inv = json.loads(capsys.readouterr().out)["sequence"]["logCaInv"]
    # r_1 = 2 against t_1 = 1, then r_k = t_k = 1
    assert log_ca_inv == [log_ca_inv[0]] * 50
    assert log_ca_inv[0] == pytest.approx(0.5 * math.log(3.0 / (2.0 * math.sqrt(2.0))), rel=1e-15)


def test_json_payload_shape():
    seq = ca_sequence(TruncationSpec.constant(2.0, 1.0, 5))
    data = seq.to_json()
    assert set(data) == {"logCaInv", "bounded", "tailBound", "note"}
    assert isinstance(seq, CaSequence)
    assert len(data["logCaInv"]) == 5


def test_constant_tower_matches_lists():
    spec = TruncationSpec.constant(4, 1.0, 1000)
    assert spec.r_seq.tolist() == [4.0] * 1000 and spec.t_seq.tolist() == [1.0] * 1000
    assert spec.r_seq.dtype == np.float64 and not spec.r_seq.flags.writeable


@pytest.mark.parametrize("max_n", [1, 2])
def test_constant_family_decides_at_any_depth(max_n):
    seq = ca_sequence(TruncationSpec.constant(4.0, 1.0, max_n))
    assert seq.log_ca_inv[-1] == pytest.approx(scalar_log_ca_inv(4.0, 1.0, max_n), rel=1e-13)
    assert not seq.bounded
    assert seq.tail_bound is None
    assert "constant family" in seq.verdict_note


@pytest.mark.parametrize("max_n", [0, -3])
def test_non_positive_depth_is_config_error(max_n):
    with pytest.raises(ConfigError, match="max_n must be positive"):
        TruncationSpec([1.0], [1.0], max_n)


@pytest.mark.parametrize("make, value", [
    (lambda: TruncationSpec([1.0, 2.0], [1.0, 1.0], 1.5), "1.5"),
    (lambda: TruncationSpec([1.0, 2.0], [1.0, 1.0], True), "True"),
    (lambda: TruncationSpec.constant(2.0, 1.0, 2.5), "2.5"),
    (lambda: TruncationSpec.perturbation(1.0, 0.5, 2.0, True), "True"),
], ids=["explicit-float", "explicit-bool", "constant-float", "perturbation-bool"])
def test_a_depth_that_is_no_integer_is_config_error(make, value):
    # a float ended in numpy's TypeError and a bool built a tower of one term
    with pytest.raises(ConfigError, match=f"^max_n must be an integer, got {value}$"):
        make()


@pytest.mark.parametrize("make, k", [
    (lambda: TruncationSpec.constant(1e-200, 1e-200, 3), 1),
    (lambda: TruncationSpec.constant(1e200, 1e200, 3), 1),
    (lambda: TruncationSpec((1.0, 1e-160, 2.0), (1.0, 1e-160, 3.0), 3), 2),
], ids=["underflow", "overflow", "subnormal"])
def test_products_outside_the_normal_range_are_refused(make, k):
    # an underflowing product gave null log c_n^{-1} and an overflowing one
    # a false "eigenvalue data is inconsistent"
    with pytest.raises(ConfigError, match=f"product r_{k} t_{k} = .* is not a normal float"):
        make()


@pytest.mark.parametrize("r", [1.5e-154, 1.3e154])
def test_equal_blocks_at_the_edges_of_the_normal_range(r):
    # only the first max_n products are read
    spec = TruncationSpec((r, r, 1e-160), (r, r, 1e-160), 2)
    assert ca_sequence(spec).log_ca_inv.tolist() == [0.0, 0.0]


def test_sequence_is_read_only():
    seq = ca_sequence(TruncationSpec.constant(4.0, 1.0, 3))
    with pytest.raises(ValueError, match="read-only"):
        seq.log_ca_inv[0] = 0.0


# ROADMAP direction 2's table: (amplitude, power) of r_k = 1 + amplitude / k^power
# against t_k = 1 at maxN 10^6, and whether sum eps_k^2 converges, 2 power > 1.
# The fitted power-law tail reported every row wrong, the last one by chance.
@pytest.mark.parametrize("amplitude, power, bounded", [
    (0.5, 0.52, True),
    (0.5, 0.6, True),
    (1e-8, 0.3, False),
    (1e-6, 0.3, False),
    (1e-4, 0.3, False),
])
def test_perturbation_verdict_follows_the_family(amplitude, power, bounded):
    spec = TruncationSpec.perturbation(1.0, amplitude, power, 10**6)
    seq = ca_sequence(spec)
    assert seq.bounded is bounded
    assert seq.verdict_note.startswith("perturbation family")
    assert (seq.tail_bound is not None and math.isfinite(seq.tail_bound)) is bounded
    # r_k - t_k is exact: eps_k = r_k - 1, and each term is log1p(eps^2 / (4 (1 + eps))) / 4
    eps = spec.r_seq - 1.0
    want = math.fsum(0.25 * np.log1p(eps * eps / (4.0 * (1.0 + eps))))
    assert seq.log_ca_inv[-1] == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("base, amplitude, power", [
    (1.2, 0.6, 1.7), (1.0, 1e-6, 0.3), (1.0, 0.5, 0.52),
])
def test_partial_sum_matches_mpmath(base, amplitude, power):
    # the factor (r + t) / (2 sqrt(r t)) of the tower's own floats, at 50 digits
    spec = TruncationSpec.perturbation(base, amplitude, power, 2000)
    with mpmath.workdps(50):
        want = mpmath.fsum(
            mpmath.log((mpmath.mpf(r) + mpmath.mpf(t)) / (2 * mpmath.sqrt(mpmath.mpf(r) * t)))
            for r, t in zip(spec.r_seq.tolist(), spec.t_seq.tolist())) / 2
        assert abs(ca_sequence(spec).log_ca_inv[-1] / want - 1) <= 1e-14


@settings(derandomize=True, max_examples=100, deadline=None)
@given(base=st.floats(1.0, 2.0),
       amplitude=st.floats(-0.9, 5.0),
       power=st.one_of(st.floats(0.05, 0.5), st.floats(0.5, 3.0), st.integers(1, 3)),
       max_n=st.integers(1, 200))
def test_verdict_and_tail_bound_property(base, amplitude, power, max_n):
    seq = ca_sequence(TruncationSpec.perturbation(base, amplitude, power, max_n))
    assert seq.bounded is (amplitude == 0 or power > 0.5)
    if not seq.bounded:
        assert seq.tail_bound is None
        return
    deeper = TruncationSpec.perturbation(base, amplitude, power, 10 * max_n)
    assert ca_sequence(deeper).log_ca_inv[max_n - 1] == seq.log_ca_inv[-1]
    # S_10N - S_N, summed without the rounding of the two partial sums
    assert math.isfinite(seq.tail_bound)
    assert seq.tail_bound >= math.fsum(deeper.increments[max_n:])


def test_tail_bound_is_taken_in_log_space():
    # (amplitude / base)^2 = 1e320 overflows, the bound does not
    seq = ca_sequence(TruncationSpec.perturbation(1e-80, 1e80, 10.0, 1000))
    want = mpmath.mpf(10) ** 320 / 16 * mpmath.mpf(1000) ** -19 / 19
    assert seq.bounded and seq.tail_bound == pytest.approx(float(want), rel=1e-12)
    # one past the float range is no bound, never inf
    seq = ca_sequence(TruncationSpec.perturbation(1e-100, 1e100, 0.6, 10))
    assert seq.bounded and seq.tail_bound is None


@pytest.mark.parametrize("power, bounded", [
    (math.nan, None), (-math.inf, False), (math.inf, True), (10**400, True),
])
def test_powers_past_the_float_range_at_depth_one(power, bounded):
    # 1^power is 1, so only a tower of one term takes them
    seq = ca_sequence(TruncationSpec.perturbation(1.0, 0.5, power, 1))
    assert seq.bounded is bounded
    assert seq.tail_bound == (0.0 if bounded else None)


def test_factor_beyond_the_float_range_is_refused():
    # r_2 t_2 = 8.5e-16 is normal, but r_2 / (2 sqrt(r_2 t_2)) overflows
    with pytest.raises(ConfigError, match=re.escape("factor (r_2 + t_2) / (2 sqrt(r_2 t_2))")):
        TruncationSpec((1.0, 1.7e308), (1.0, 5e-324), 2)
    # its largest finite neighbours stay
    assert ca_sequence(TruncationSpec((1e300,), (1e-300,), 1)).log_ca_inv[0] == 345.0411903588269
    assert ca_sequence(TruncationSpec((1.7976931348623157e308,), (1.0,), 1)).log_ca_inv[0] \
        == pytest.approx(0.5 * math.log(math.sqrt(1.7976931348623157e308) / 2), rel=1e-15)


BLOCK = truncation.BLOCK


def _whole_array_increments(r: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The terms of log c_n^{-1} as one expression over the whole tower."""
    q = (r - t) / (np.sqrt(r) + np.sqrt(t))
    return 0.5 * np.log1p(q * (q / (2.0 * np.sqrt(r * t))))


def _tower(form: str, max_n: int):
    """A spec of ``form`` and the r and t it must hold, built whole."""
    if form == "constant":
        return (TruncationSpec.constant(2.5, 0.75, max_n),
                np.full(max_n, 2.5), np.full(max_n, 0.75))
    if form == "perturbation":
        power = 1.6180424104532907
        r = 1.3 + 0.7 / np.float_power(np.arange(1.0, max_n + 1), power)
        return TruncationSpec.perturbation(1.3, 0.7, power, max_n), r, np.full(max_n, 1.3)
    rng = np.random.default_rng(max_n)
    r, t = rng.uniform(0.1, 10.0, size=(2, max_n + 3))  # longer than the tower
    return TruncationSpec(r.tolist(), t.tolist(), max_n), r, t


@pytest.mark.parametrize("max_n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 5 * BLOCK // 2])
@pytest.mark.parametrize("form", ["constant", "perturbation", "explicit"])
def test_the_blocked_tower_has_the_bits_of_the_whole_array_formula(form, max_n):
    spec, r, t = _tower(form, max_n)
    assert spec.r_seq.tobytes() == r.tobytes() and spec.t_seq.tolist() == t.tolist()
    want = _whole_array_increments(r[:max_n], t[:max_n])
    assert spec.increments.tobytes() == want.tobytes()
    assert ca_sequence(spec).log_ca_inv.tobytes() == np.cumsum(want).tobytes()
    assert not (spec.r_seq.flags.writeable or spec.t_seq.flags.writeable
                or spec.increments.flags.writeable)


def _refusal(r: np.ndarray, t: np.ndarray) -> str:
    with pytest.raises(ConfigError) as caught:
        TruncationSpec(r.tolist(), t.tolist(), len(r))
    return str(caught.value)


def test_a_fault_in_a_later_block_names_its_own_term():
    n = 5 * BLOCK // 2
    r, t = np.full(n, 2.0), np.full(n, 1.0)
    late = 2 * BLOCK + 5
    # r_k t_k = 8.5e-16 is normal, but the factor overflows
    r[late], t[late] = 1.7e308, 5e-324
    assert _refusal(r, t) == (f"factor (r_{late + 1} + t_{late + 1}) / "
                              f"(2 sqrt(r_{late + 1} t_{late + 1})) "
                              "for 1.7e+308 and 5e-324 is beyond the float range")
    # the first of two such terms is named
    r[BLOCK + 1], t[BLOCK + 1] = 1.7e308, 5e-324
    assert f"r_{BLOCK + 2} + t_{BLOCK + 2}" in _refusal(r, t)


def test_a_product_that_is_not_normal_is_refused_before_an_earlier_overflow():
    # the whole-array checks refused every product that is not normal before
    # any factor beyond the float range, wherever the two lie
    n = 5 * BLOCK // 2
    r, t = np.full(n, 2.0), np.full(n, 1.0)
    r[3], t[3] = 1.7e308, 5e-324
    late = 2 * BLOCK + 5
    r[late] = t[late] = 1e-160
    assert _refusal(r, t) == (f"eigenvalue product r_{late + 1} t_{late + 1} = "
                              "1e-160 * 1e-160 is not a normal float")
