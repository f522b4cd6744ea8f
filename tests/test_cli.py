"""Command-line interface: schemas, exit codes, reports, determinism."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

import fockops as fo
from fockops.cli import CONFIG_SCHEMAS, main

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# the shape every command's report has
REPORT_SCHEMA = {
    "type": "object",
    "properties": {
        "command": {"enum": ["decompose", "eval", "verify", "truncate"]},
        "config": {"type": "object"},
        "versions": {"type": "object"},
        "pass": {"type": "boolean"},
        "context": {"type": "object"},
        "matrices": {"type": "object"},
        "residuals": {"type": "object"},
        "values": {"type": "array"},
        "groups": {"type": "object"},
        "checkCount": {"type": "integer"},
        "sequence": {"type": "object"},
    },
    "required": ["command", "config", "versions", "pass"],
    "additionalProperties": False,
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


DIAG = {"operator": {"n": 1, "R": [[4.0]], "T": [[1.0]]}}


def test_decompose_diagonal_golden(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", DIAG)
    code, out = run_cli(capsys, "decompose", "--config", cfg)
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["pass"] is True
    assert report["context"]["cA"] == pytest.approx(0.894427190999916, rel=1e-12)
    assert report["context"]["S"] == [[1.6]]
    assert report["matrices"]["K"] == [[1.5, 0.0], [0.0, -1.5]]


def test_decompose_identity(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "cfg.json", {"operator": {"n": 1, "A": [[1.0, 0.0], [0.0, 1.0]]}}
    )
    code, out = run_cli(capsys, "decompose", "--config", cfg)
    report = json.loads(out)
    assert code == 0
    assert report["context"]["cA"] == pytest.approx(1.0, abs=1e-14)
    assert report["matrices"]["K"] == [[0.0, 0.0], [0.0, 0.0]]


def test_decompose_asymmetric_input_fails_with_kind(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "cfg.json", {"operator": {"n": 1, "A": [[1.0, 0.5], [0.0, 1.0]]}}
    )
    code, out = run_cli(capsys, "decompose", "--config", cfg)
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "not_symmetric"


def test_decompose_non_finite_operator_is_config_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"operator": {"n": 1, "A": [[NaN, 0.0], [0.0, 1.0]]}}')
    code, out = run_cli(capsys, "decompose", "--config", str(path))
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "config_invalid"


def test_truncated_json_config_is_config_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"operator": {"n": 1, "R": [[4.0]]')
    code, out = run_cli(capsys, "decompose", "--config", str(path))
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "config_invalid"


def test_directory_as_config_is_config_error(tmp_path, capsys):
    code, out = run_cli(capsys, "decompose", "--config", str(tmp_path))
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "config_invalid"


def test_directory_as_out_is_structured_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", DIAG)
    code, out = run_cli(capsys, "decompose", "--config", cfg, "--out", str(tmp_path))
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "output_unwritable"


def test_directory_as_csv_is_structured_error(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "cfg.json",
        {**DIAG, "eval": {"target": "kernel", "points": [{"z": [0.0, 0.0], "w": [0.0, 0.0]}]}},
    )
    code, out = run_cli(capsys, "eval", "--config", cfg, "--csv", str(tmp_path))
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "output_unwritable"


def test_non_utf8_config_is_config_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_bytes(b'{"operator": "\xff"}')
    code, out = run_cli(capsys, "decompose", "--config", str(path))
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "config_invalid"


@pytest.mark.parametrize("point", [
    [0.0, 0.0],                            # not an object
    "z",                                   # not an object
    {"z": [0.0, 0.0], "q": [0.0]},         # unknown key
    {"z": 0.0, "w": [0.0, 0.0]},           # value not a list
    {"z": [True, 0.0], "w": [0.0, 0.0]},   # bool coordinate
    {"z": ["0", 0.0], "w": [0.0, 0.0]},    # string coordinate
    {"z": [None, 0.0], "w": [0.0, 0.0]},   # null coordinate
    {"z": [[0.0], 0.0], "w": [0.0, 0.0]},  # nested list
    {"z": [{}, 0.0], "w": [0.0, 0.0]},     # object coordinate
])
def test_eval_rejects_malformed_point(tmp_path, capsys, point):
    good = {"z": [0.0, 0.0], "w": [0.0, 0.0]}
    cfg = write_config(
        tmp_path, "cfg.json", {**DIAG, "eval": {"target": "kernel", "points": [good, point]}}
    )
    code, out = run_cli(capsys, "eval", "--config", cfg)
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "config_invalid"


def test_eval_accepts_integer_coordinates(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "cfg.json",
        {**DIAG, "eval": {"target": "kernel", "points": [{"z": [0, 0], "w": [0, 0]}]}},
    )
    code, out = run_cli(capsys, "eval", "--config", cfg)
    assert code == 0
    assert json.loads(out)["values"][0]["value"]["re"] == pytest.approx(1.25, rel=1e-14)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_eval_rejects_non_finite_point(tmp_path, capsys, bad):
    cfg = write_config(
        tmp_path,
        "cfg.json",
        {**DIAG, "eval": {"target": "kernel", "points": [{"z": [bad, 0.0], "w": [1.0, 0.0]}]}},
    )
    code, out = run_cli(capsys, "eval", "--config", cfg)
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "config_invalid"


def test_unknown_config_keys_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {**DIAG, "bogus": 1})
    code, out = run_cli(capsys, "decompose", "--config", cfg)
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "config_invalid"


def test_eval_kernel_points_and_csv(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "cfg.json",
        {
            **DIAG,
            "eval": {
                "target": "kernel",
                "points": [
                    {"z": [1.0, 0.0], "w": [1.0, 0.0]},
                    {"z": [0.0, 0.0], "w": [0.0, 0.0]},
                ],
            },
        },
    )
    csv_path = tmp_path / "vals.csv"
    code, out = run_cli(capsys, "eval", "--config", cfg, "--csv", str(csv_path))
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["values"][0]["value"]["re"] == pytest.approx(68.2476875414303, rel=1e-12)
    assert report["values"][1]["value"]["re"] == pytest.approx(1.25, rel=1e-14)
    rows = csv_path.read_text().strip().splitlines()
    assert rows[0].startswith("index,")
    assert len(rows) == 3


def test_eval_identity_kernel_origin(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "cfg.json",
        {
            "operator": {"n": 1, "A": [[1.0, 0.0], [0.0, 1.0]]},
            "eval": {"target": "kernel", "points": [{"z": [0.0, 0.0], "w": [0.0, 0.0]}]},
        },
    )
    code, out = run_cli(capsys, "eval", "--config", cfg)
    assert code == 0
    assert json.loads(out)["values"][0]["value"]["re"] == pytest.approx(1.0, abs=1e-14)


def test_eval_transform_requires_real_form(tmp_path, capsys):
    # rotation by pi/4 in the coordinate plane mixes x and y directions
    cfg = write_config(
        tmp_path,
        "cfg.json",
        {
            "operator": {"n": 1, "A": [[2.5, -1.5], [-1.5, 2.5]]},
            "eval": {
                "target": "weighted_transform",
                "points": [{"z": [0.0, 0.0]}],
                "function": {"kind": "ground_state"},
            },
        },
    )
    code, out = run_cli(capsys, "eval", "--config", cfg)
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "requires_real_form"


def test_eval_range_error_surfaced_per_point(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "cfg.json",
        {
            **DIAG,
            "eval": {
                "target": "kernel",
                "points": [
                    {"z": [0.0, 0.0], "w": [0.0, 0.0]},
                    {"z": [40.0, 0.0], "w": [40.0, 0.0]},
                ],
            },
        },
    )
    csv_path = tmp_path / "vals.csv"
    code, out = run_cli(capsys, "eval", "--config", cfg, "--csv", str(csv_path))
    report = json.loads(out)
    assert "value" in report["values"][0]
    assert report["values"][1]["error"]["kind"] == "range_overflow"
    assert report["pass"] is False
    assert code == 1
    assert csv_path.read_text().splitlines()[2] == "1,40.0,0.0,40.0,0.0,,,range_overflow"


def test_eval_error_rows_carry_their_own_exponent(tmp_path, capsys):
    points = [{"z": [30.0, 0.0], "w": [30.0, 0.0]}, {"z": [0.1, 0.0], "w": [0.2, 0.0]},
              {"z": [40.0, 0.0], "w": [40.0, 0.0]}]
    cfg = write_config(tmp_path, "cfg.json",
                       {**DIAG, "eval": {"target": "kernel", "points": points}})
    code, out = run_cli(capsys, "eval", "--config", cfg)
    rows = json.loads(out)["values"]
    assert code == 1
    assert ["error" in row for row in rows] == [True, False, True]
    ctx = fo.build_context(fo.RealLinearMap.from_blocks(np.array([[4.0]]), np.array([[1.0]])))
    for row, point in zip(rows, points):
        if "error" in row:
            z, w = (fo.operators.to_complex_coords(np.array(point[k])) for k in "zw")
            with pytest.raises(fo.RangeOverflowError) as err:
                fo.kernel(ctx, z, w)
            assert row["error"] == err.value.payload()


def _transform_config(tmp_path, target, n_points, far=(), far_point=None):
    rng = np.random.default_rng(4)
    points = [{"z": (0.5 * rng.standard_normal(2)).tolist()} for _ in range(n_points)]
    for index in far:
        points[index] = {"z": far_point}
    return write_config(tmp_path, "cfg.json", {
        **DIAG,
        "eval": {"target": target, "points": points,
                 "function": {"kind": "hermite", "alpha": [3]}},
    })


def test_eval_transform_builds_the_image_once(tmp_path, capsys, monkeypatch):
    import fockops.transforms as transforms

    calls = []
    original = transforms.convolve_gaussian

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(transforms, "convolve_gaussian", counting)
    cfg = _transform_config(tmp_path, "weighted_transform", 50)
    code, out = run_cli(capsys, "eval", "--config", cfg)
    assert code == 0
    assert len(json.loads(out)["values"]) == 50
    assert len(calls) == 1


def segal_bargmann_gaussian_at(ctx, f, z):
    return fo.segal_bargmann_gaussian_fn(ctx, f).evaluate(z)


@pytest.mark.parametrize("target, single, far_point", [
    ("classical_transform", lambda ctx, f, z: fo.segal_bargmann_classical_fn(f).evaluate(z),
     [100.0, 0.0]),
    ("weighted_transform", fo.segal_bargmann, [40.0, 0.0]),
    ("gaussian_transform", segal_bargmann_gaussian_at, [0.0, 100.0]),
])
def test_eval_transform_rows_match_single_point_calls(tmp_path, capsys, target, single,
                                                       far_point):
    # the far points overflow: each is an error row of its own, the others
    # carry the bits of a single-point call
    cfg = _transform_config(tmp_path, target, 6, far=(1, 4), far_point=far_point)
    code, out = run_cli(capsys, "eval", "--config", cfg)
    report = json.loads(out)
    ctx = fo.build_context(fo.RealLinearMap.from_blocks(np.array([[4.0]]), np.array([[1.0]])))
    f = fo.hermite_function((3,))
    for index, row in enumerate(report["values"]):
        z = fo.operators.to_complex_coords(np.array(row["point"]["z"]))
        if index in (1, 4):
            with pytest.raises(fo.RangeOverflowError) as err:
                single(ctx, f, z)
            assert row["error"] == err.value.payload()
        else:
            want = complex(single(ctx, f, z))
            assert (row["value"]["re"], row["value"]["im"]) == (want.real, want.imag)
    assert code == 1


def test_eval_transform_values(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "cfg.json",
        {
            **DIAG,
            "eval": {
                "target": "gaussian_transform",
                "points": [{"z": [0.5, 0.0]}],
                "function": {"kind": "gaussian", "P": [[0.0]], "coeff": 1.0},
            },
        },
    )
    code, out = run_cli(capsys, "eval", "--config", cfg)
    assert code == 0
    # transform of the constant one is identically one on real points
    assert json.loads(out)["values"][0]["value"]["re"] == pytest.approx(1.0, rel=1e-12)


def test_eval_monomial_gaussian_function(tmp_path, capsys):
    # x e^{-x^2} is odd, so its classical transform is odd: zero at z = 0
    cfg = write_config(
        tmp_path,
        "cfg.json",
        {
            **DIAG,
            "eval": {
                "target": "classical_transform",
                "points": [{"z": [0.0, 0.0]}],
                "function": {"kind": "monomial_gaussian", "alpha": [1], "P": [[2.0]]},
            },
        },
    )
    code, out = run_cli(capsys, "eval", "--config", cfg)
    assert code == 0
    value = json.loads(out)["values"][0]["value"]
    assert abs(complex(value["re"], value["im"])) < 1e-14


def test_truncate_constant_and_explicit(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "cfg.json", {"kind": "constant", "r": 4.0, "t": 1.0, "maxN": 20}
    )
    code, out = run_cli(capsys, "truncate", "--config", cfg)
    assert code == 0
    seq = json.loads(out)["sequence"]
    assert not seq["bounded"]
    assert seq["logCaInv"][19] == pytest.approx(10 * float(np.log(1.25)), rel=1e-12)

    cfg = write_config(
        tmp_path, "cfg2.json", {"r": [1.0, 1.0], "t": [1.0, 1.0], "maxN": 2}
    )
    code, out = run_cli(capsys, "truncate", "--config", cfg)
    assert code == 0
    assert json.loads(out)["sequence"]["bounded"] is True


@pytest.mark.parametrize("text", [
    '{"r": [NaN, 1.0], "t": [1.0, 1.0], "maxN": 2}',
    '{"r": [1.0, 1.0], "t": [1.0, Infinity], "maxN": 2}',
    '{"kind": "constant", "r": NaN, "t": 1.0, "maxN": 3}',
    '{"kind": "perturbation", "base": 1.0, "amplitude": Infinity, "power": 2.0, "maxN": 4}',
])
def test_truncate_rejects_non_finite_eigenvalues(tmp_path, capsys, text):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    code, out = run_cli(capsys, "truncate", "--config", str(path))
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "config_invalid"


HUGE = "1" + "0" * 400  # a JSON integer no float can hold


@pytest.mark.parametrize("command, text", [
    ("truncate", '{"r": [%s, 1.0], "t": [1.0, 1.0], "maxN": 2}' % HUGE),
    ("truncate", '{"kind": "perturbation", "base": 1.0, "amplitude": 1.0, '
                 '"power": 1000.0, "maxN": 5}'),
    ("eval", '{"operator": {"n": 1, "R": [[4.0]], "T": [[1.0]]}, "eval": {"target": '
             '"kernel", "points": [{"z": [%s, 0.0], "w": [0.0, 0.0]}]}}' % HUGE),
    ("decompose", '{"operator": {"n": 1, "R": [[%s]], "T": [[1.0]]}}' % HUGE),
    ("eval", '{"operator": {"n": 1, "R": [[4.0]], "T": [[1.0]]}, "eval": {"target": '
             '"weighted_transform", "points": [{"z": [0.0, 0.0]}], "function": '
             '{"kind": "gaussian", "P": [[1.0]], "coeff": %s}}}' % HUGE),
], ids=["truncate-r", "truncate-power", "eval-point", "operator-R", "function-coeff"])
def test_numbers_beyond_float_range_are_config_errors(tmp_path, capsys, command, text):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    code, out = run_cli(capsys, command, "--config", str(path))
    assert code == 2  # and no OverflowError escapes main
    assert json.loads(out)["error"]["kind"] == "config_invalid"


def test_eval_quadrature_block_rejected(tmp_path, capsys):
    # every eval function is closed-form, so a quadrature block could do nothing
    cfg = write_config(
        tmp_path,
        "cfg.json",
        {
            **DIAG,
            "quadrature": {"nodes": 8},
            "eval": {"target": "kernel", "points": [{"z": [0.0, 0.0], "w": [0.0, 0.0]}]},
        },
    )
    code, out = run_cli(capsys, "eval", "--config", cfg)
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "config_invalid"


@pytest.mark.parametrize("argv", [
    ["decompose", "--nodes", "4"],
    ["eval", "--nodes", "100000"],
    ["truncate", "--seed", "1"],
    ["verify", "--timing"],
    ["decompose", "--timing"],
])
def test_seed_and_nodes_only_on_verify(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_seed_and_nodes_override_config(tmp_path, capsys, monkeypatch):
    import fockops.cli

    def echo(config):
        return {"command": "verify", "config": config, "pass": True}

    monkeypatch.setitem(fockops.cli.COMMANDS, "verify", echo)
    cfg = write_config(tmp_path, "cfg.json", {"seed": 5, "nodes": 30})
    for flag, value, want in (("--seed", "7", {"seed": 7, "nodes": 30}),
                              ("--nodes", "12", {"seed": 5, "nodes": 12})):
        code, out = run_cli(capsys, "verify", "--config", cfg, flag, value)
        assert code == 0
        assert json.loads(out)["config"] == want


def _restrict_groups(monkeypatch, *names):
    """Run only the named verify groups, so a CLI test does not run the
    whole suite (test_acceptance runs it at the default config)."""
    import fockops.verification as verification

    monkeypatch.setattr(verification, "GROUPS",
                        {name: verification.GROUPS[name] for name in names})


def test_verify_small_deterministic(tmp_path, capsys, monkeypatch):
    _restrict_groups(monkeypatch, "kernel-constants", "quadrature", "truncation-diagnostics")
    cfg = write_config(tmp_path, "cfg.json", {"seed": 11})
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["verify", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["verify", "--config", cfg, "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["pass"] is True
    for checks in report["groups"].values():
        for check in checks:
            assert check["residual"] <= check["tolerance"] or check["pass"]


def test_verify_coarse_nodes_fail_reproducing(tmp_path, capsys, monkeypatch):
    _restrict_groups(monkeypatch, "reproducing-property")
    cfg = write_config(tmp_path, "cfg.json", {"seed": 11, "nodes": 4})
    code, out = run_cli(capsys, "verify", "--config", cfg)
    assert code == 1
    report = json.loads(out)
    assert report["pass"] is False
    repro = report["groups"]["reproducing-property"]
    assert any(not c["pass"] and c["residual"] > 1e-6 for c in repro)


@pytest.mark.parametrize("key, value", [
    ("nodes2d", 4), ("decompositionSamples", 1), ("pairs", 1), ("mcSamples", 1000),
])
def test_verify_sample_sizes_are_not_config_keys(tmp_path, capsys, monkeypatch, key, value):
    # only seed and nodes reach VerifyConfig; every other size is fixed in its group
    _restrict_groups(monkeypatch)
    cfg = write_config(tmp_path, "cfg.json", {key: value})
    code, out = run_cli(capsys, "verify", "--config", cfg)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["kind"] == "config_invalid"
    assert f'has the unknown key "{key}"' in error["message"]


def test_verify_nodes_past_the_hermite_range_are_config_errors(capsys, monkeypatch):
    # numpy's 371-node rule has all-zero weights: the rule itself is at fault,
    # not a check (exit 1) or the integrand (evaluator_failure)
    _restrict_groups(monkeypatch, "kernel-geometry")
    code = main(["verify", "--nodes", "371"])
    captured = capsys.readouterr()
    assert code == 2
    assert "Warning" not in captured.err
    error = json.loads(captured.out)["error"]
    assert error["kind"] == "config_invalid"
    assert "371 nodes per axis" in error["message"]


def test_verify_nodes_past_the_hermite_range_are_refused_before_any_group(capsys, monkeypatch):
    def group(cfg):
        raise AssertionError("a verify group ran")

    monkeypatch.setattr(fo.verification, "GROUPS", {"operator-core": group})
    code, out = run_cli(capsys, "verify", "--nodes", "1000")
    assert code == 2
    assert json.loads(out)["error"] == {
        "kind": "config_invalid",
        "message": "a Gauss-Hermite rule of 1000 nodes per axis is beyond the float range",
    }


@pytest.mark.parametrize("target", ["weighted_transform", "classical_transform"])
def test_gaussian_form_beyond_the_float_range_is_config_invalid(tmp_path, capsys, target):
    # G + P is positive definite, but rounds to a singular form whose least
    # eigenvalue reads 0: the float range is at fault, not a divergence
    operator = {"n": 2, "R": np.eye(2).tolist(), "T": (2.0 * np.eye(2)).tolist()}
    cfg = write_config(tmp_path, "cfg.json", {"operator": operator, "eval": {
        "target": target, "points": [{"z": [0.1, 0.2, 0.3, 0.1]}],
        "function": {"kind": "gaussian", "P": [[1e308, 1e308], [1e308, 1e308]]}}})
    code, out = run_cli(capsys, "eval", "--config", cfg)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["kind"] == "config_invalid"
    assert "beyond the float range" in error["message"]


def test_config_schemas_are_valid_json_schema():
    for schema in CONFIG_SCHEMAS.values():
        jsonschema.Draft202012Validator.check_schema(schema)
    jsonschema.Draft202012Validator.check_schema(REPORT_SCHEMA)


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "fockops.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "fockops" in proc.stdout


@pytest.mark.parametrize("argv, text", [
    (["decompose"], '{"operator": {"n": 1, "R": [[100000000000000000000]], "T": [[1.0]]}}'),
    (["verify", "--seed", "100000000000000000000", "--nodes", "4"], None),
    (["verify", "--seed", "1", "--nodes", str(2**63)], None),
], ids=["config-file", "seed", "nodes"])
def test_integers_outside_64_bits_are_config_errors(tmp_path, capsys, argv, text):
    # a report echoes its configuration, and no integer past 64 bits can be encoded
    if text is not None:
        path = tmp_path / "cfg.json"
        path.write_text(text)
        argv = argv + ["--config", str(path)]
    code, out = run_cli(capsys, *argv)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["kind"] == "config_invalid"
    assert "64-bit" in error["message"]


@pytest.mark.parametrize("argv", [["--seed", "-5"], ["--nodes", "1"]])
def test_verify_seed_and_nodes_below_their_minimum_are_config_errors(capsys, argv):
    # a negative seed reached numpy's generator and died there in a ValueError
    code, out = run_cli(capsys, "verify", *argv)
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "config_invalid"


def test_64_bit_integers_are_echoed(tmp_path, capsys, monkeypatch):
    import fockops.cli

    monkeypatch.setitem(fockops.cli.COMMANDS, "verify",
                        lambda config: {"command": "verify", "config": config, "pass": True})
    code, out = run_cli(capsys, "verify", "--seed", str(2**63 - 1), "--nodes", "4")
    assert code == 0
    assert json.loads(out)["config"] == {"seed": 2**63 - 1, "nodes": 4}


def test_error_report_is_utf8_under_an_ascii_locale(tmp_path):
    # the OSError names the missing file; its non-ASCII name is written as
    # UTF-8 bytes, whatever encoding the locale gives stdout
    env = {**os.environ, "PYTHONIOENCODING": "ascii",
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "fockops.cli", "decompose", "--config", "café.json"],
        capture_output=True, cwd=tmp_path, env=env,
    )
    assert proc.returncode == 2
    assert b"Traceback" not in proc.stderr
    error = json.loads(proc.stdout.decode("utf-8"))["error"]
    assert error["kind"] == "config_invalid"
    assert "café.json" in error["message"]


def test_non_finite_residual_renders_as_null(tmp_path, capsys, monkeypatch):
    import fockops.verification as verification
    from fockops.report import make_check

    monkeypatch.setattr(verification, "GROUPS",
                        {"forced": lambda cfg: [make_check("forced", math.nan, 1.0, 1e-12)]})
    code, out = run_cli(capsys, "verify")

    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    report = json.loads(out, parse_constant=refuse)
    assert code == 1
    assert report["pass"] is False
    check = report["groups"]["forced"][0]
    assert check["pass"] is False
    assert check["residual"] is None and check["lhs"] is None


def test_ill_conditioned_weight_has_its_own_kind(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {"operator": {"n": 1, "R": [[1e200]], "T": [[1.0]]}})
    code, out = run_cli(capsys, "decompose", "--config", cfg)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["kind"] == "ill_conditioned"
    assert error["eigenvalue_ratio"] == pytest.approx(1e-200, rel=1e-12)
    assert error["min_eigenvalue"] == 1.0


@pytest.mark.parametrize("A, norm", [
    ([[1e308, 0, 0, 0], [0, 1e308, 0, 0], [0, 0, 1e308, 1e308], [0, 0, 1e308, 1e308]], "inf"),
    ([[1e308, 0], [0, 1e308]], "1.000e+308"),
], ids=["norm-overflows", "twice-the-norm-overflows"])
def test_weight_near_the_float_maximum_is_config_error(tmp_path, capsys, A, norm):
    # the 2-norm itself overflows, or only twice it: A + A^T cannot be formed either way
    cfg = write_config(tmp_path, "cfg.json", {"operator": {"n": len(A) // 2, "A": A}})
    code, out = run_cli(capsys, "decompose", "--config", cfg)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["kind"] == "config_invalid"
    assert f"2-norm {norm} " in error["message"]


@pytest.mark.parametrize("command, A", [
    ("decompose", [[1e307, 0], [0, 1e307]]),
    ("decompose", [[8e307, 0], [0, 8e307]]),
    ("decompose", [[1e307, 5e306], [5e306, 1e307]]),
    ("eval", [[1e307, 0], [0, 1e307]]),
], ids=["decompose", "decompose-8e307", "decompose-full", "eval-kernel"])
def test_weight_whose_determinant_overflows_is_config_error(tmp_path, capsys, command, A):
    # det_V A = 1e614 was reported as null after three RuntimeWarnings, exit 0
    config = {"operator": {"n": 1, "A": A}}
    if command == "eval":
        config["eval"] = {"target": "kernel", "points": [{"z": [0.1, 0.0], "w": [0.0, 0.0]}]}
    code, out = run_cli(capsys, command, "--config", write_config(tmp_path, "cfg.json", config))
    assert code == 2
    assert json.loads(out)["error"] == {
        "kind": "config_invalid",
        "message": "the weight's determinant detVA is beyond the float range"}


@pytest.mark.parametrize("function, allowed", [
    ({"kind": "monomial_gaussian", "alpha": [4000, 4000]}, False),
    ({"kind": "hermite", "alpha": [50, 50]}, False),      # (100 + 1)^2 coefficients
    ({"kind": "sb_eigenfunction", "alpha": [10000]}, False),
    ({"kind": "monomial_gaussian", "alpha": [49, 50]}, True),  # (99 + 1)^2, the cap
], ids=["4000x4000", "hermite-over", "sb-over", "at-cap"])
def test_eval_function_degree_is_bounded(tmp_path, capsys, function, allowed):
    n = len(function["alpha"])
    operator = {"n": n, "R": np.eye(n).tolist(), "T": (2.0 * np.eye(n)).tolist()}
    cfg = write_config(tmp_path, "cfg.json", {"operator": operator, "eval": {
        "target": "classical_transform", "points": [{"z": [0.1] * (2 * n)}],
        "function": function}})
    code, out = run_cli(capsys, "eval", "--config", cfg)
    report = json.loads(out)
    if allowed:
        assert code == 0 and "value" in report["values"][0]
    else:
        assert code == 2
        assert report["error"]["kind"] == "config_invalid"
        assert str(fo.cli.MAX_FUNCTION_COEFFS) in report["error"]["message"]


@pytest.mark.parametrize("target, points, message", [
    ("kernel", [{"z": [0.0, 0.0], "w": [0.0, 0.0]}, {"z": [0.0, 0.0]}],
     "target needs 'w' (length-2n real coords) in every point"),
    ("multiplier", [{"x": [0.0], "z": [0.0, 0.0]}, {"x": [0.0, 1.0], "z": [0.0]}],
     "'x' must have length 1"),
    ("multiplier", [{"x": [0.0], "z": [0.0, float("inf")]}, {"z": [0.0, 0.0]}],
     "'z' has a non-finite coordinate"),
    ("weighted_transform", [{"z": [0.0, 0.0]}, {"w": [0.0, 0.0]}],
     "target needs 'z' (length-2n real coords) in every point"),
], ids=["missing", "length", "point-order", "transform"])
def test_eval_point_errors_name_the_first_bad_coordinate(tmp_path, capsys, target, points,
                                                          message):
    # points are checked one by one, each coordinate in the order the target reads it
    cfg = write_config(tmp_path, "cfg.json", {**DIAG, "eval": {
        "target": target, "points": points, "function": {"kind": "ground_state"}}})
    code, out = run_cli(capsys, "eval", "--config", cfg)
    assert code == 2
    assert json.loads(out)["error"] == {"kind": "config_invalid", "message": message}


@pytest.mark.parametrize("command, config", [
    ("truncate", {"kind": "constant", "r": 4.0, "t": 1.0, "maxN": 10.0}),
    ("verify", {"seed": 3.0}),
    ("verify", {"nodes": 8.0}),
    ("eval", {**DIAG, "eval": {"target": "classical_transform", "points": [{"z": [0.1, 0.0]}],
                               "function": {"kind": "hermite", "alpha": [3.0]}}}),
], ids=["maxN", "seed", "nodes", "alpha"])
def test_integral_floats_are_not_integers(tmp_path, capsys, command, config):
    # JSON Schema's "integer" takes 10.0, which then reached range() or
    # numpy's SeedSequence and died in a traceback
    code, out = run_cli(capsys, command, "--config", write_config(tmp_path, "cfg.json", config))
    assert code == 2
    error = json.loads(out)["error"]
    assert error["kind"] == "config_invalid"
    assert "not an integer" in error["message"]


def test_eval_non_finite_values_fail_their_rows(tmp_path, capsys):
    # the coefficient is finite, but its transform's overflows to inf everywhere
    cfg = write_config(tmp_path, "cfg.json", {**DIAG, "eval": {
        "target": "weighted_transform", "points": [{"z": [0.1, 0.0]}, {"z": [0.0, 0.2]}],
        "function": {"kind": "gaussian", "coeff": 1.7e308}}})
    code, out = run_cli(capsys, "eval", "--config", cfg)
    report = json.loads(out)
    assert code == 1 and report["pass"] is False
    assert [row["error"]["kind"] for row in report["values"]] == ["evaluator_failure"] * 2


@pytest.mark.parametrize("alpha", [500, 1000, 9999])
def test_eval_monomial_whose_smoothing_leaves_the_float_range_is_refused_first(
        tmp_path, capsys, monkeypatch, alpha):
    # the series would take seconds at 9999 and end in non-finite rows; a
    # derivative taken would mean the series started
    import fockops.symbolic as symbolic

    monkeypatch.setattr(symbolic, "_derivative", None)
    cfg = write_config(tmp_path, "cfg.json", {
        "operator": {"n": 1, "R": [[1.0]], "T": [[2.0]]}, "eval": {
            "target": "weighted_transform", "points": [{"z": [0.1, 0.0]}],
            "function": {"kind": "monomial_gaussian", "alpha": [alpha]}}})
    code, out = run_cli(capsys, "eval", "--config", cfg)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["kind"] == "config_invalid"
    assert error["message"].endswith("past the largest float, 1.8e+308")


@pytest.mark.parametrize("function", [
    {"kind": "hermite", "alpha": [300]},
    {"kind": "sb_eigenfunction", "alpha": [200]},
    {"kind": "sb_eigenfunction", "alpha": [171]},
], ids=["hermite-coefficients", "sb-norm", "sb-first-overflow"])
def test_eval_function_beyond_float_range_is_config_error(tmp_path, capsys, function):
    cfg = write_config(tmp_path, "cfg.json", {**DIAG, "eval": {
        "target": "classical_transform", "points": [{"z": [0.1, 0.0]}], "function": function}})
    code, out = run_cli(capsys, "eval", "--config", cfg)
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "config_invalid"


@pytest.mark.parametrize("command, config, key", [
    ("decompose", {"operator": {"n": 1, "A": [[1.0, 0.0], [0.0]]}}, "A"),
    ("decompose", {"operator": {"n": 2, "R": [[1.0, 0.0], [0.0]], "T": [[1.0, 0.0], [0.0, 1.0]]}},
     "R"),
    ("decompose", {"operator": {"n": 1, "R": [[1.0]], "T": [[1.0], []]}}, "T"),
    ("eval", {**DIAG, "eval": {"target": "classical_transform", "points": [{"z": [0.1, 0.0]}],
                               "function": {"kind": "gaussian", "P": [[1.0], []]}}}, "P"),
    ("eval", {**DIAG, "eval": {"target": "classical_transform", "points": [{"z": [0.1, 0.0]}],
                               "function": {"kind": "gaussian", "b": [0.1, 0.2, 0.3]}}}, "b"),
], ids=["A-ragged", "R-ragged", "T-ragged", "P-ragged", "b-length"])
def test_ragged_or_missized_arrays_are_config_errors(tmp_path, capsys, command, config, key):
    # a ragged array died in np.asarray with a traceback; a long b was unsupported_form
    code, out = run_cli(capsys, command, "--config", write_config(tmp_path, "cfg.json", config))
    assert code == 2
    error = json.loads(out)["error"]
    assert error["kind"] == "config_invalid"
    assert error["message"].startswith(f"{key} must be ")


@pytest.mark.parametrize("target", ["weighted_transform", "classical_transform"])
@pytest.mark.parametrize("function, key", [
    ('{"kind": "gaussian", "P": [[NaN]]}', "P"),
    ('{"kind": "gaussian", "P": [[Infinity]]}', "P"),
    ('{"kind": "gaussian", "P": [[1e400]]}', "P"),
    ('{"kind": "gaussian", "b": [NaN]}', "b"),
    ('{"kind": "gaussian", "coeff": Infinity}', "coeff"),
    ('{"kind": "monomial_gaussian", "alpha": [1], "coeff": -1e400}', "coeff"),
], ids=["P-nan", "P-inf", "P-1e400", "b-nan", "coeff-inf", "coeff-minus-1e400"])
def test_eval_non_finite_function_parameters_are_config_errors(tmp_path, capsys, target,
                                                               function, key):
    # a non-finite P died in np.linalg.eigvals (exit 1); b and coeff gave
    # evaluator_failure rows
    path = tmp_path / "cfg.json"
    path.write_text('{"operator": {"n": 1, "R": [[4.0]], "T": [[1.0]]}, "eval": '
                    f'{{"target": "{target}", "points": [{{"z": [0.5, 0.1]}}], '
                    f'"function": {function}}}}}')
    code, out = run_cli(capsys, "eval", "--config", str(path))
    assert code == 2
    assert json.loads(out)["error"] == {
        "kind": "config_invalid", "message": f"function key '{key}' holds a non-finite number"}


def test_fock_log_that_names_no_level_falls_back_to_warning(tmp_path):
    # getattr(logging, "BASIC_FORMAT") is a format string, and basicConfig
    # raised ValueError: Unknown level
    env = {**os.environ, "FOCK_LOG": "basic_format",
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    cfg = write_config(tmp_path, "cfg.json", {"kind": "constant", "r": 4, "t": 1, "maxN": 3})
    proc = subprocess.run([sys.executable, "-m", "fockops.cli", "truncate", "--config", cfg],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stderr.startswith("truncate: pass in ")


@pytest.mark.parametrize("function, key", [
    ({"kind": "hermite", "alpha": [2], "P": [[5.0]]}, "P"),
    ({"kind": "ground_state", "alpha": [7], "coeff": 3.0}, "alpha"),
    ({"kind": "gaussian", "alpha": [1]}, "alpha"),
    ({"kind": "sb_eigenfunction", "b": [0.5]}, "b"),
], ids=["hermite-P", "ground-state-alpha", "gaussian-alpha", "sb-b"])
def test_eval_function_keys_its_kind_never_reads_are_rejected(tmp_path, capsys, function, key):
    # these keys were ignored: the values came out as if they were absent
    cfg = write_config(tmp_path, "cfg.json", {**DIAG, "eval": {
        "target": "classical_transform", "points": [{"z": [0.1, 0.0]}], "function": function}})
    code, out = run_cli(capsys, "eval", "--config", cfg)
    assert code == 2
    assert json.loads(out)["error"] == {
        "kind": "config_invalid",
        "message": f'invalid configuration: config.eval.function has the unknown key "{key}"'}


@pytest.mark.parametrize("spec, message", [
    ({"target": "classical_transform", "points": [{"z": [0.1, 0.0]}],
      "function": {"kind": "hermite", "alpha": [1, 2]}}, "alpha must have length 1"),
    ({"target": "classical_transform", "points": [{"z": [0.1, 0.0]}]},
     "target 'classical_transform' needs a 'function' entry"),
    ({"target": "kernel", "points": []},
     "invalid configuration: config.eval.points has 0 items, fewer than 1"),
], ids=["alpha-length", "no-function", "no-points"])
def test_eval_spec_errors_name_the_fault(tmp_path, capsys, spec, message):
    cfg = write_config(tmp_path, "cfg.json", {**DIAG, "eval": spec})
    code, out = run_cli(capsys, "eval", "--config", cfg)
    assert code == 2
    assert json.loads(out)["error"] == {"kind": "config_invalid", "message": message}


def test_truncate_beyond_the_budget_is_node_budget_error(tmp_path, capsys):
    # the tower was allocated before any check and ended in a MemoryError
    cfg = write_config(tmp_path, "cfg.json", {"kind": "constant", "r": 4, "t": 1, "maxN": 2**62})
    code, out = run_cli(capsys, "truncate", "--config", cfg)
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "node_budget"


def test_eval_function_of_unknown_kind_names_the_kinds(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {**DIAG, "eval": {
        "target": "classical_transform", "points": [{"z": [0.1, 0.0]}],
        "function": {"kind": "laguerre"}}})
    code, out = run_cli(capsys, "eval", "--config", cfg)
    assert code == 2
    assert json.loads(out)["error"]["message"] == (
        'invalid configuration: config.eval.function.kind is "laguerre", not one of '
        '"hermite", "sb_eigenfunction", "ground_state", "gaussian", "monomial_gaussian"')


@pytest.mark.parametrize("target", ["classical_transform", "weighted_transform",
                                    "gaussian_transform"])
def test_eval_huge_gaussian_function_stays_finite(tmp_path, capsys, target):
    # P + P^T overflowed in the symmetrization and eigvalsh died with LinAlgError
    cfg = write_config(tmp_path, "cfg.json", {
        "operator": {"n": 1, "R": [[1]], "T": [[2]]},
        "eval": {"target": target, "points": [{"z": [0.1, 0.2]}],
                 "function": {"kind": "gaussian", "P": [[1e308]]}}})
    code, out = run_cli(capsys, "eval", "--config", cfg)
    assert code == 0
    value = json.loads(out)["values"][0]["value"]
    got = complex(value["re"], value["im"])
    assert math.isfinite(got.real) and math.isfinite(got.imag) and got != 0
    if target == "classical_transform":
        # (2/pi)^(1/4) e^(z^2/2) sqrt(pi/(1 + P/2)) e^(-z^2 (P/2)/(1 + P/2)),
        # where (P/2)/(1 + P/2) rounds to 1
        z = 0.1 + 0.2j
        want = (2 / math.pi) ** 0.25 * np.exp(-z * z / 2) * math.sqrt(math.pi / (1 + 0.5e308))
        assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("config, k", [
    ({"kind": "constant", "r": 1e-200, "t": 1e-200, "maxN": 3}, 1),
    ({"kind": "constant", "r": 1e200, "t": 1e200, "maxN": 3}, 1),
    ({"r": [1.0, 1e-160, 2.0], "t": [1.0, 1e-160, 3.0], "maxN": 3}, 2),
], ids=["underflow", "overflow", "subnormal"])
def test_truncate_products_outside_the_normal_range_are_config_errors(tmp_path, capsys,
                                                                      config, k):
    # 1e-200 exited 0 with "logCaInv": [null, null, null]; 1e200 was refused
    # as inconsistent eigenvalue data
    code, out = run_cli(capsys, "truncate", "--config", write_config(tmp_path, "cfg.json", config))
    assert code == 2
    error = json.loads(out)["error"]
    assert error["kind"] == "config_invalid"
    assert f"product r_{k} t_{k} = " in error["message"]
    assert error["message"].endswith("is not a normal float")


def test_report_lands_on_a_text_only_stdout(tmp_path):
    # a replacement stream without a byte buffer takes the text itself
    cfg = write_config(tmp_path, "cfg.json", {"kind": "constant", "r": 4.0, "t": 1.0, "maxN": 3})
    stream = io.StringIO()
    with contextlib.redirect_stdout(stream):
        code = main(["truncate", "--config", cfg])
    assert code == 0
    report = json.loads(stream.getvalue())
    assert report["command"] == "truncate" and len(report["sequence"]["logCaInv"]) == 3
