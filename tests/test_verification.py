"""The verify suite itself: a NaN residual fails its check, the report has
what the benchmark's verify gate asks of it, each group reports its progress
on the debug log, the quadrature checks evaluate each function once per
grid, and its node count stays within the rules."""

import importlib.util
import logging
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import fockops.verification as verification
from fockops import ConfigError, GaussPoly, RealLinearMap, kernel_section
from fockops.quadrature import MAX_NODES_PER_AXIS, _hermite_rule
from fockops.report import fold, make_bound_check, make_strict_check
from fockops.testing import draw_spd, rotated_weight, spd_matrix
from fockops.verification import VerifyConfig, run_verification

from conftest import same_bits


def _by_name(results):
    return {c.name: c for c in results}


def test_nan_multiplier_fails_cocycle_check(monkeypatch):
    # the check evaluates the multiplier on a batch of points per stack of weights
    monkeypatch.setattr(verification, "multiplier",
                        lambda ctx, x, z: np.full(len(z), complex(math.nan)))
    check = _by_name(verification.check_transform_tower(VerifyConfig()))[
        "multiplier_cocycle_max_residual"
    ]
    assert not check.passed
    assert math.isnan(check.residual)


@pytest.mark.parametrize("row", [0, 1, 2])
def test_a_nan_row_of_a_stack_folds_to_nan_and_fails(row):
    residuals = np.array([1e-14, 2e-14, 3e-14])
    residuals[row] = math.nan
    worst = fold(max, 0.0, residuals)
    assert math.isnan(worst)
    assert not make_bound_check("decompose_sum_residual", worst, 0.0, 1e-12).passed
    eigenvalues = np.array([0.3, 0.2, 0.5])
    eigenvalues[row] = math.nan
    lowest = fold(min, math.inf, eigenvalues)
    assert math.isnan(lowest)
    assert not make_strict_check("decompose_h_positive", lowest, 0.0).passed


def test_fold_keeps_a_nan_it_starts_from():
    assert math.isnan(fold(max, math.nan, np.array([1.0, 2.0])))
    assert math.isnan(fold(min, math.nan, np.array([1.0, 2.0])))
    assert fold(max, 0.0, np.array([1.0, 3.0, 2.0])) == 3.0
    assert fold(min, math.inf, np.array([], dtype=float)) == math.inf


def test_nan_row_of_decomposition_residuals_fails_operator_core(monkeypatch):
    residuals = verification.decomposition_residuals

    def one_nan_row(A, H, K):
        out = dict(residuals(A, H, K))
        out["sum"] = out["sum"].copy()
        out["sum"][len(out["sum"]) // 2] = math.nan
        return out

    monkeypatch.setattr(verification, "decomposition_residuals", one_nan_row)
    check = _by_name(verification.check_operator_core(VerifyConfig()))["decompose_sum_residual"]
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


@pytest.mark.parametrize("row", range(5))
def test_a_nan_row_of_a_batched_check_fails_it(monkeypatch, row):
    # the classical transform of the ground state, evaluated once on five points
    ground, classical_fn = verification.ground_state(1), verification.segal_bargmann_classical_fn

    def one_nan_row(image):
        def evaluate_many(Z):
            values = image.evaluate_many(Z)
            values[row] = complex(math.nan)
            return values
        return SimpleNamespace(evaluate_many=evaluate_many)

    monkeypatch.setattr(verification, "ground_state", lambda n: ground)
    monkeypatch.setattr(verification, "segal_bargmann_classical_fn",
                        lambda g: one_nan_row(classical_fn(g)) if g is ground else classical_fn(g))
    checks = _by_name(verification.check_transform_tower(VerifyConfig()))
    check = checks.pop("classical_transform_ground_state_max_residual")
    assert not check.passed
    assert math.isnan(check.residual)
    assert all(c.passed for c in checks.values())


def _perfbench_inputs():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_report_passes_the_benchmark_verify_gate():
    # what perfbench/run.py's check_verify asks of the default report
    report = run_verification(VerifyConfig())
    checks = [c for group in report["groups"].values() for c in group]
    assert report["pass"] is True
    assert report["checkCount"] == len(checks) == _perfbench_inputs().VERIFY_CHECKS
    assert len({c["name"] for c in checks}) == len(checks)
    assert all(c["pass"] is True and math.isfinite(c["residual"]) for c in checks)


def test_default_verify_reruns_no_grid_chunk_through_the_checked_pass(caplog):
    # the grid reduction's line ends with the chunks whose block sums were
    # not finite: at the default config no integrand leaves the float range
    with caplog.at_level(logging.DEBUG, logger="fockops.quadrature"):
        run_verification(VerifyConfig())
    lines = [r for r in caplog.records if r.getMessage().startswith("grid reduction")]
    assert len(lines) > 40
    assert {r.args[-1] for r in lines} == {0}


def test_each_group_logs_name_count_and_seconds(monkeypatch, caplog):
    groups = {
        "kernel-constants": verification.check_constant_identities,
        "truncation-diagnostics": verification.check_truncation,
    }
    monkeypatch.setattr(verification, "GROUPS", groups)
    with caplog.at_level(logging.DEBUG, logger="fockops"):
        report = run_verification(VerifyConfig())
    records = [r for r in caplog.records if r.name == "fockops.verification"]
    assert len(records) == len(groups)
    for record, (name, checks) in zip(records, report["groups"].items()):
        assert record.levelno == logging.DEBUG
        assert record.args[:2] == (name, len(checks))
        assert record.args[2] >= 0.0


def test_each_check_logs_residual_tolerance_and_headroom(monkeypatch, caplog):
    groups = {
        "kernel-constants": verification.check_constant_identities,
        "truncation-diagnostics": verification.check_truncation,
    }
    monkeypatch.setattr(verification, "GROUPS", groups)
    with caplog.at_level(logging.DEBUG, logger="fockops"):
        report = run_verification(VerifyConfig())
    lines = [r.getMessage() for r in caplog.records if r.name == "fockops.verification.checks"]
    assert len(lines) == report["checkCount"]
    checks = [(group, c) for group, results in report["groups"].items() for c in results]
    for line, (group, c) in zip(lines, checks):
        assert line.startswith(f"verify check {group}/{c['name']}: residual ")
        headroom = line.rsplit(" ", 1)[1]
        if 0.0 < c["residual"] and 0.0 < c["tolerance"]:
            assert float(headroom) == pytest.approx(math.log10(c["tolerance"] / c["residual"]),
                                                    abs=0.005)
        else:
            assert headroom == "undefined"


def test_reproducing_property_evaluates_each_kernel_section_once(monkeypatch):
    sections = []

    def recorded_section(ctx, w):
        section = kernel_section(ctx, w)
        sections.append(section)
        return section

    rows = {}
    evaluate_many = GaussPoly.evaluate_many

    def counted(self, Z):
        for i, s in enumerate(sections):
            if self is s:
                rows[i] = rows.get(i, 0) + Z.shape[0]
        return evaluate_many(self, Z)

    monkeypatch.setattr(verification, "kernel_section", recorded_section)
    monkeypatch.setattr(GaussPoly, "evaluate_many", counted)
    checks = verification.check_reproducing_property(VerifyConfig())
    assert all(c.passed for c in checks)
    # three contexts at n=1 and two at n=2, one section each, evaluated chunk
    # by chunk at each node of its grid once: 40^2 and 20^4 nodes
    assert len(sections) == 5
    assert rows == {0: 1600, 1: 1600, 2: 1600, 3: 160_000, 4: 160_000}


def test_space_unitary_computes_each_classical_norm_once(monkeypatch):
    calls = []
    fock_norm = verification.fock_norm

    def counted(ctx, F, rule=None):
        calls.append(ctx.n)
        return fock_norm(ctx, F, rule)

    monkeypatch.setattr(verification, "fock_norm", counted)
    checks = verification.check_unitary_between_spaces(VerifyConfig())
    assert all(c.passed for c in checks)
    # five classical norms plus five lifted norms for each of three weights
    assert len(calls) == 20


def test_verify_nodes_bound_is_the_last_hermite_rule_in_the_float_range():
    # the config refuses what _hermite_rule would refuse, without building it
    assert MAX_NODES_PER_AXIS == 370
    _hermite_rule(370)
    VerifyConfig(nodes=370)
    with pytest.raises(ConfigError) as from_rule:
        _hermite_rule(371)
    with pytest.raises(ConfigError) as from_config:
        VerifyConfig(nodes=371)
    assert str(from_config.value) == str(from_rule.value)


@pytest.mark.parametrize("seed", [1, 4])
def test_verify_passes_at_seeds_whose_kernel_points_sit_far_off_the_real_axis(seed):
    # the density integral of the kernel missed by 8e-2 at seed 1 and 1.2e-6 at
    # seed 4 while its rule was centred on the real axis
    assert run_verification(VerifyConfig(seed=seed))["pass"]


def _reference_core_draws(rng):
    """operator-core's draws as the suite built them draw by draw: each
    draw's points by _complex_rows, the weights stacked per n."""
    draws = []
    for n in (1 + i % 3 for i in range(200)):
        G, vals = draw_spd(rng, 2 * n)
        draws.append((n, G, vals, *verification._complex_rows(rng, 2, n)))
    return [(n, spd_matrix(G, vals), z, w)
            for n, G, vals, z, w in verification._stacked(draws)]


def _reference_tower_draws(rng):
    """transform-tower's draws as the suite built them draw by draw, each a
    validated RealLinearMap.from_blocks or rotated_weight, its points by
    _complex_rows."""
    draws = []
    for i in range(500):
        n = 1 + i % 2
        E, spd = np.zeros((2 * n, 2 * n)), [np.eye(n), np.ones(n)] * 2
        if blocks := rng.uniform() < 0.5:
            spd = [*draw_spd(rng, n), *draw_spd(rng, n)]
        else:
            r, t = rng.uniform(0.3, 4.0, size=2)
            A = RealLinearMap.from_blocks(r * np.eye(n), t * np.eye(n))
            E = rotated_weight(A, rng.uniform(0.1, math.pi), axis=int(rng.integers(n))).entries
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        draws.append((n, blocks, E, *spd, x, y, verification._complex_rows(rng, 1, n)[0]))
    stacks = []
    for n, blocks, E, GR, vR, GT, vT, x, y, z in verification._stacked(draws):
        E[blocks] = RealLinearMap.from_blocks(spd_matrix(GR[blocks], vR[blocks]),
                                              spd_matrix(GT[blocks], vT[blocks])).entries
        stacks.append((n, E, x, y, z))
    return stacks


@pytest.mark.parametrize("draws, reference", [
    (verification._core_draws, _reference_core_draws),
    (verification._tower_draws, _reference_tower_draws),
], ids=["operator-core", "transform-tower"])
@pytest.mark.parametrize("seed", range(4))
def test_the_stacked_draws_have_the_bits_of_the_per_draw_route(draws, reference, seed):
    # the same generator calls in the same order, and every array bit for bit
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got, want = draws(rng), reference(reference_rng)
    assert [s[0] for s in got] == [s[0] for s in want]
    for stack, reference_stack in zip(got, want):
        for a, b in zip(stack[1:], reference_stack[1:], strict=True):
            assert same_bits(a, b)
    assert rng.bit_generator.state == reference_rng.bit_generator.state
