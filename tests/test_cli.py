"""Command-line interface: schemas, exit codes, reports, determinism."""

import json
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

from fockops.cli import CONFIG_SCHEMAS, REPORT_SCHEMA, main


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
    assert json.loads(out)["error"]["kind"] == "config_invalid"


def test_directory_as_csv_is_structured_error(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "cfg.json",
        {**DIAG, "eval": {"target": "kernel", "points": [{"z": [0.0, 0.0], "w": [0.0, 0.0]}]}},
    )
    code, out = run_cli(capsys, "eval", "--config", cfg, "--csv", str(tmp_path))
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "config_invalid"


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
    code, out = run_cli(capsys, "eval", "--config", cfg)
    report = json.loads(out)
    assert "value" in report["values"][0]
    assert report["values"][1]["error"]["kind"] == "range_overflow"
    assert report["pass"] is False
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
    cfg = write_config(tmp_path, "cfg.json", {"seed": 5, "pairs": 3})
    code, out = run_cli(capsys, "verify", "--config", cfg, "--seed", "7", "--nodes", "12")
    assert code == 0
    assert json.loads(out)["config"] == {"seed": 7, "nodes": 12, "pairs": 3}


SMALL_VERIFY = {
    "seed": 11,
    "decompositionSamples": 30,
    "pairs": 15,
    "mcSamples": 20000,
}


def test_verify_small_deterministic(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", SMALL_VERIFY)
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


def test_verify_coarse_nodes_fail_reproducing(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "cfg.json", {**SMALL_VERIFY, "nodes": 4, "nodes2d": 4}
    )
    code, out = run_cli(capsys, "verify", "--config", cfg)
    assert code == 1
    report = json.loads(out)
    assert report["pass"] is False
    repro = report["groups"]["reproducing-property"]
    assert any(not c["pass"] and c["residual"] > 1e-6 for c in repro)


def test_timing_flag_embeds_seconds(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", DIAG)
    code, out = run_cli(capsys, "decompose", "--config", cfg, "--timing")
    assert code == 0
    assert "timingSeconds" in json.loads(out)


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
