"""The verify suite itself: a NaN residual fails its check, each group
reports its progress on the debug log, and the quadrature checks evaluate
each function once per grid."""

import logging
import math

import fockops.verification as verification
from fockops import HolomorphicFunction, kernel_section
from fockops.verification import VerifyConfig, run_verification


def _by_name(results):
    return {c.name: c for c in results}


def test_nan_multiplier_fails_cocycle_check(monkeypatch):
    monkeypatch.setattr(verification, "multiplier", lambda ctx, x, z: complex(math.nan))
    check = _by_name(verification.check_transform_tower(VerifyConfig()))[
        "multiplier_cocycle_max_residual"
    ]
    assert not check.passed
    assert math.isnan(check.residual)


def test_nan_density_kernel_fails_integral_check(monkeypatch):
    monkeypatch.setattr(
        verification, "kernel_from_densities", lambda ctx, z, w: complex(math.nan)
    )
    check = _by_name(verification.check_gaussian_formulation(VerifyConfig()))[
        "kernel_density_integral_max_residual"
    ]
    assert not check.passed
    assert math.isnan(check.residual)


def test_each_group_logs_name_count_and_seconds(monkeypatch, caplog):
    groups = {
        "kernel-constants": verification.check_constant_identities,
        "truncation-diagnostics": verification.check_truncation,
    }
    monkeypatch.setattr(verification, "GROUPS", groups)
    with caplog.at_level(logging.DEBUG, logger="fockops"):
        report = run_verification(VerifyConfig(pairs=2))
    records = [r for r in caplog.records if r.name == "fockops.verification"]
    assert len(records) == len(groups)
    for record, (name, checks) in zip(records, report["groups"].items()):
        assert record.levelno == logging.DEBUG
        assert record.args[:2] == (name, len(checks))
        assert record.args[2] >= 0.0


def test_reproducing_property_evaluates_each_kernel_section_once(monkeypatch):
    sections = []

    def recorded_section(ctx, w):
        section = kernel_section(ctx, w)
        sections.append(section)
        return section

    calls = []
    evaluate_many = HolomorphicFunction.evaluate_many

    def counted(self, Z):
        if any(self is s for s in sections):
            calls.append(Z.shape[0])
        return evaluate_many(self, Z)

    monkeypatch.setattr(verification, "kernel_section", recorded_section)
    monkeypatch.setattr(HolomorphicFunction, "evaluate_many", counted)
    checks = verification.check_reproducing_property(VerifyConfig())
    assert all(c.passed for c in checks)
    # three contexts at n=1 and two at n=2, one section each
    assert len(sections) == 5
    assert len(calls) == 5
