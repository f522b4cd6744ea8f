"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line; tolerances are pinned here so a
drift in the underlying suite cannot silently weaken the gate.
"""

import json
import subprocess
import sys
import time

import pytest

from fockops.verification import (
    VerifyConfig,
    check_constant_identities,
    check_determinant_identities,
    check_gaussian_formulation,
    check_operator_core,
    check_reproducing_property,
    check_transform_tower,
    check_truncation,
    check_unitary_between_spaces,
)

CFG = VerifyConfig()


def report(criterion: str, checks, extra_ok: bool = True) -> None:
    ok = extra_ok and all(c.passed for c in checks)
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    for c in checks:
        assert c.passed, (criterion, c.name, c.residual, c.tolerance)
    assert extra_ok, (criterion, "auxiliary condition failed")


def by_name(checks):
    return {c.name: c for c in checks}


def test_c1_decomposition_suite_200_samples_under_5s():
    started = time.perf_counter()
    checks = check_operator_core(CFG)
    elapsed = time.perf_counter() - started
    named = by_name(checks)
    for key in (
        "decompose_sum_residual",
        "decompose_h_commutes_residual",
        "decompose_k_anticommutes_residual",
        "conjugate_part_symmetric_pairing",
    ):
        assert named[key].tolerance == 1e-12
    report("C1 decomposition-suite", checks, extra_ok=elapsed < 5.0)


def test_c2_constant_identities():
    checks = check_constant_identities(CFG)
    named = by_name(checks)
    assert named["constant_consistency_max_residual"].tolerance == 1e-12
    assert named["kernel_constant_block_form_max_residual"].tolerance == 1e-12
    assert named["det_s_formula_max_residual"].tolerance == 1e-12
    golden = named["golden_scalar_kernel_constant"]
    assert golden.tolerance == 1e-14 and golden.rhs == 1.25
    report("C2 constant-identities", checks)


def test_c3_determinant_identities():
    checks = check_determinant_identities(CFG)
    named = by_name(checks)
    assert named["determinant_identity_max_residual"].tolerance == 1e-10
    assert named["determinant_inequality_equality_at_matching_blocks"].tolerance == 1e-12
    report("C3 determinant-identities", checks)


def test_c4_reproducing_property_under_60s():
    started = time.perf_counter()
    checks = check_reproducing_property(CFG)
    elapsed = time.perf_counter() - started
    for c in checks:
        assert c.tolerance == 1e-6
    report("C4 reproducing-property", checks, extra_ok=elapsed < 60.0)


def test_c5_space_unitary_roundtrip():
    checks = check_unitary_between_spaces(CFG)
    named = by_name(checks)
    assert named["weighting_unitary_isometry_max_residual"].tolerance == 1e-6
    assert named["weighting_unitary_roundtrip_max_residual"].tolerance == 1e-12
    report("C5 space-unitary", checks)


def test_c6_transform_tower():
    checks = check_transform_tower(CFG)
    named = by_name(checks)
    assert named["multiplier_cocycle_max_residual"].tolerance == 1e-12
    assert named["restriction_intertwining_max_residual"].tolerance == 1e-12
    assert named["heat_semigroup_max_residual"].tolerance == 1e-12
    assert named["gram_equals_heat_convolution_max_residual"].tolerance == 1e-6
    assert named["modulus_squares_to_gram_max_residual"].tolerance == 1e-6
    assert named["weighted_transform_identity_reduction_max_residual"].tolerance == 1e-10
    assert named["classical_transform_ground_state_max_residual"].tolerance == 1e-8
    report("C6 transform-tower", checks)


def test_c7_gaussian_formulation():
    checks = check_gaussian_formulation(CFG)
    named = by_name(checks)
    assert named["coherent_transform_gives_kernel_max_residual"].tolerance == 1e-8
    assert named["kernel_density_integral_max_residual"].tolerance == 1e-6
    assert named["coherent_gram_equals_kernel_gram_max_residual"].tolerance == 1e-6
    golden = named["golden_coherent_state_origin"]
    assert golden.tolerance == 1e-6
    assert golden.rhs == pytest.approx(0.7905694150420949, abs=1e-12)
    assert named["golden_coherent_norm_squared"].rhs == 1.25
    report("C7 gaussian-formulation", checks)


def test_c8_scalar_tower_power_law():
    checks = check_truncation(CFG)
    named = by_name(checks)
    assert named["scalar_tower_power_law_max_residual"].tolerance == 1e-12
    report("C8 scalar-tower", checks)


def test_c9_verify_command_deterministic_under_two_minutes(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    started = time.perf_counter()
    first = subprocess.run(
        [sys.executable, "-m", "fockops.cli", "verify", "--out", str(out1)],
        capture_output=True,
        text=True,
    )
    elapsed = time.perf_counter() - started
    second = subprocess.run(
        [sys.executable, "-m", "fockops.cli", "verify", "--out", str(out2)],
        capture_output=True,
        text=True,
    )
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and out1.read_bytes() == out2.read_bytes()
        and elapsed <= 120.0
    )
    print(f"ACCEPTANCE C9 verify-command: {'PASS' if ok else 'FAIL'}")
    assert first.returncode == 0, first.stderr
    assert second.returncode == 0, second.stderr
    assert out1.read_bytes() == out2.read_bytes()
    assert elapsed <= 120.0
    payload = json.loads(out1.read_text())
    assert payload["pass"] is True
    assert payload["checkCount"] >= 40


def test_acceptance_suite_covers_all_groups():
    # belt and braces: the full verification stays green, at the default
    # seed and another, and every check passes exactly when its residual is
    # within its tolerance
    from fockops.verification import run_verification

    for cfg in (CFG, VerifyConfig(seed=3)):
        rep = run_verification(cfg)
        assert rep["pass"] is True
        flat = [c for group in rep["groups"].values() for c in group]
        assert all(c["pass"] for c in flat)
        assert all(c["pass"] == (c["residual"] is not None and c["residual"] <= c["tolerance"])
                   for c in flat)
