"""Command-line front end.

Subcommands
-----------
decompose   validate a weight operator and report its derived context
eval        evaluate kernels, transforms, and coherent states at points
verify      run the full identity suite; exit 0 only if everything passes
truncate    partial normalization constants along a diagonal tower

Configuration is a JSON file (``--config``); unknown keys are rejected.
Reports are JSON on stdout or ``--out``, with keys sorted so identical
configurations and seeds produce byte-identical files; wall-clock timing
goes to stderr unless ``--timing`` embeds it.  Exit codes: 0 success,
1 verification failure, 2 usage or configuration errors.  Set FOCK_LOG
to a level name (e.g. DEBUG) for progress logging.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
import time

import numpy as np
import jsonschema

from . import __version__
from .errors import ConfigError, FockError
from .kernels import eval_functional_norm, kernel, measure_density
from .operators import (
    RealLinearMap,
    SpaceContext,
    build_context,
    to_complex_coords,
)
from .report import complex_json
from .symbolic import GaussPoly, Polynomial
from .transforms import (
    coherent_state,
    ground_state,
    hermite_function,
    multiplier,
    sb_eigenfunction,
    segal_bargmann,
    segal_bargmann_classical,
    segal_bargmann_gaussian,
)
from .truncation import TruncationSpec, ca_sequence
from .verification import VerifyConfig, run_verification

log = logging.getLogger("fockops")

NUMBER_GRID = {"type": "array", "items": {"type": "array", "items": {"type": "number"}}}
NUMBER_LIST = {"type": "array", "items": {"type": "number"}}

OPERATOR_SCHEMA = {
    "oneOf": [
        {
            "type": "object",
            "properties": {"n": {"type": "integer", "minimum": 1}, "A": NUMBER_GRID},
            "required": ["n", "A"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "n": {"type": "integer", "minimum": 1},
                "R": NUMBER_GRID,
                "T": NUMBER_GRID,
            },
            "required": ["n", "R", "T"],
            "additionalProperties": False,
        },
    ]
}

POINT_SCHEMA = {
    "type": "object",
    "properties": {"z": NUMBER_LIST, "w": NUMBER_LIST, "x": NUMBER_LIST},
    "additionalProperties": False,
}

FUNCTION_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {
            "enum": [
                "hermite",
                "sb_eigenfunction",
                "ground_state",
                "gaussian",
                "monomial_gaussian",
            ]
        },
        "alpha": {"type": "array", "items": {"type": "integer", "minimum": 0}},
        "P": NUMBER_GRID,
        "b": NUMBER_LIST,
        "coeff": {"type": "number"},
    },
    "required": ["kind"],
    "additionalProperties": False,
}

EVAL_TARGETS = [
    "measure_density",
    "kernel",
    "eval_norm",
    "multiplier",
    "coherent_state",
    "classical_transform",
    "weighted_transform",
    "gaussian_transform",
]

CONFIG_SCHEMAS = {
    "decompose": {
        "type": "object",
        "properties": {"operator": OPERATOR_SCHEMA},
        "required": ["operator"],
        "additionalProperties": False,
    },
    "eval": {
        "type": "object",
        "properties": {
            "operator": OPERATOR_SCHEMA,
            "eval": {
                "type": "object",
                "properties": {
                    "target": {"enum": EVAL_TARGETS},
                    "points": {"type": "array", "items": POINT_SCHEMA, "minItems": 1},
                    "function": FUNCTION_SCHEMA,
                },
                "required": ["target", "points"],
                "additionalProperties": False,
            },
        },
        "required": ["operator", "eval"],
        "additionalProperties": False,
    },
    "verify": {
        "type": "object",
        "properties": {
            "seed": {"type": "integer"},
            "nodes": {"type": "integer", "minimum": 2},
            "nodes2d": {"type": "integer", "minimum": 2},
            "decompositionSamples": {"type": "integer", "minimum": 1},
            "pairs": {"type": "integer", "minimum": 1},
            "mcSamples": {"type": "integer", "minimum": 1000},
        },
        "additionalProperties": False,
    },
    "truncate": {
        "oneOf": [
            {
                "type": "object",
                "properties": {
                    "r": NUMBER_LIST,
                    "t": NUMBER_LIST,
                    "maxN": {"type": "integer", "minimum": 1},
                },
                "required": ["r", "t", "maxN"],
                "additionalProperties": False,
            },
            {
                "type": "object",
                "properties": {
                    "kind": {"const": "constant"},
                    "r": {"type": "number"},
                    "t": {"type": "number"},
                    "maxN": {"type": "integer", "minimum": 1},
                },
                "required": ["kind", "r", "t", "maxN"],
                "additionalProperties": False,
            },
            {
                "type": "object",
                "properties": {
                    "kind": {"const": "perturbation"},
                    "base": {"type": "number"},
                    "amplitude": {"type": "number"},
                    "power": {"type": "number"},
                    "maxN": {"type": "integer", "minimum": 1},
                },
                "required": ["kind", "base", "amplitude", "power", "maxN"],
                "additionalProperties": False,
            },
        ]
    },
}

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
        "timingSeconds": {"type": "number"},
    },
    "required": ["command", "config", "versions", "pass"],
    "additionalProperties": False,
}


def load_config(path: str | None, command: str, overrides: dict) -> dict:
    if path is None:
        config = {}
    else:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    config = {**config, **{k: v for k, v in overrides.items() if v is not None}}
    try:
        jsonschema.validate(config, CONFIG_SCHEMAS[command])
    except jsonschema.ValidationError as err:
        raise ConfigError(f"invalid configuration: {err.message}") from err
    return config


def operator_from_config(data: dict) -> RealLinearMap:
    n = data["n"]
    if "A" in data:
        A = np.asarray(data["A"], dtype=float)
        if A.shape != (2 * n, 2 * n):
            raise ConfigError(f"A must be {2*n}x{2*n}, got {A.shape}")
        return RealLinearMap(SpaceContext(n), A)
    R = np.asarray(data["R"], dtype=float)
    T = np.asarray(data["T"], dtype=float)
    if R.shape != (n, n) or T.shape != (n, n):
        raise ConfigError(f"R and T must be {n}x{n}")
    return RealLinearMap.from_blocks(R, T)


def cmd_decompose(config: dict) -> dict:
    A = operator_from_config(config["operator"])
    ctx = build_context(A)  # raises with kind not_symmetric / not_positive_definite
    H, K = ctx.H, ctx.K
    J = A.space.J
    scale = A.norm()
    residuals = {
        "sum": float(np.linalg.norm(A.entries - H.entries - K.entries, 2) / scale),
        "hCommutes": float(np.linalg.norm(H.entries @ J - J @ H.entries, 2) / scale),
        "kAnticommutes": float(np.linalg.norm(K.entries @ J + J @ K.entries, 2) / scale),
    }
    matrices = {"H": H.entries.tolist(), "K": K.entries.tolist()}
    if ctx.real_preserving:
        matrices.update(
            L=ctx.L.tolist(), M=ctx.M.tolist(), D=ctx.D.tolist()
        )
    return {
        "command": "decompose",
        "config": config,
        "context": ctx.summary(),
        "matrices": matrices,
        "residuals": residuals,
        "pass": all(v <= 1e-12 for v in residuals.values()),
    }


def _build_function(spec: dict, n: int):
    kind = spec["kind"]
    if kind == "hermite":
        alpha = spec.get("alpha", [0] * n)
        if len(alpha) != n:
            raise ConfigError(f"alpha must have length {n}")
        return hermite_function(alpha)
    if kind == "sb_eigenfunction":
        alpha = spec.get("alpha", [0] * n)
        if len(alpha) != n:
            raise ConfigError(f"alpha must have length {n}")
        return sb_eigenfunction(alpha)
    if kind == "ground_state":
        return ground_state(n)
    if kind in ("gaussian", "monomial_gaussian"):
        P = np.asarray(spec.get("P", np.eye(n).tolist()), dtype=float)
        if P.shape != (n, n):
            raise ConfigError(f"P must be {n}x{n}")
        b = np.asarray(spec.get("b", np.zeros(n).tolist()), dtype=float)
        out = GaussPoly.gaussian(P, b=b, coeff=spec.get("coeff", 1.0))
        if kind == "monomial_gaussian":
            alpha = spec.get("alpha", [0] * n)
            if len(alpha) != n:
                raise ConfigError(f"alpha must have length {n}")
            out = GaussPoly(
                out.poly * Polynomial.monomial(n, alpha), out.P, out.b, out.gamma
            )
        return out
    raise ConfigError(f"unknown function kind {kind!r}")


def _point_vector(point: dict, key: str, length: int, what: str) -> np.ndarray:
    if key not in point:
        raise ConfigError(f"target needs '{key}' ({what}) in every point")
    vec = np.asarray(point[key], dtype=float)
    if vec.shape != (length,):
        raise ConfigError(f"'{key}' must have length {length}")
    if not np.isfinite(vec).all():
        raise ConfigError(f"'{key}' has a non-finite coordinate")
    return vec


def _eval_single(target: str, ctx, point: dict, fn) -> complex | float:
    n = ctx.n
    if target == "measure_density":
        z = to_complex_coords(_point_vector(point, "z", 2 * n, "length-2n real coords"))
        return measure_density(ctx, z)
    if target == "kernel":
        z = to_complex_coords(_point_vector(point, "z", 2 * n, "length-2n real coords"))
        w = to_complex_coords(_point_vector(point, "w", 2 * n, "length-2n real coords"))
        return kernel(ctx, z, w)
    if target == "eval_norm":
        z = to_complex_coords(_point_vector(point, "z", 2 * n, "length-2n real coords"))
        return eval_functional_norm(ctx, z)
    if target == "multiplier":
        x = _point_vector(point, "x", n, "real subspace point")
        z = to_complex_coords(_point_vector(point, "z", 2 * n, "length-2n real coords"))
        return multiplier(ctx, x, z)
    if target == "coherent_state":
        x = _point_vector(point, "x", n, "real subspace point")
        z = to_complex_coords(_point_vector(point, "z", 2 * n, "length-2n real coords"))
        return coherent_state(ctx, x, z)
    z = to_complex_coords(_point_vector(point, "z", 2 * n, "length-2n real coords"))
    if target == "classical_transform":
        return segal_bargmann_classical(fn, z)
    if target == "weighted_transform":
        return segal_bargmann(ctx, fn, z)
    if target == "gaussian_transform":
        return segal_bargmann_gaussian(ctx, fn, z)
    raise ConfigError(f"unknown target {target!r}")


def cmd_eval(config: dict) -> dict:
    ctx = build_context(operator_from_config(config["operator"]))
    spec = config["eval"]
    target = spec["target"]
    if target in ("weighted_transform", "gaussian_transform", "coherent_state"):
        ctx.require_real_form()
    fn = None
    if target in ("classical_transform", "weighted_transform", "gaussian_transform"):
        if "function" not in spec:
            raise ConfigError(f"target {target!r} needs a 'function' entry")
        fn = _build_function(spec["function"], ctx.n)

    values = []
    for point in spec["points"]:
        try:
            out = _eval_single(target, ctx, point, fn)
            values.append({"point": point, "value": complex_json(complex(out))})
        except ConfigError:
            raise
        except FockError as err:
            values.append({"point": point, "error": err.payload()})
    return {
        "command": "eval",
        "config": config,
        "context": ctx.summary(),
        "values": values,
        "pass": all("error" not in v for v in values),
    }


# verify config keys -> VerifyConfig fields; unset keys keep the field defaults
VERIFY_FIELDS = {
    "seed": "seed",
    "nodes": "nodes",
    "nodes2d": "nodes_2d",
    "decompositionSamples": "decomposition_samples",
    "pairs": "pairs",
    "mcSamples": "mc_samples",
}


def cmd_verify(config: dict) -> dict:
    cfg = VerifyConfig(**{VERIFY_FIELDS[key]: value for key, value in config.items()})
    report = run_verification(cfg)
    report["config"] = config
    return report


def cmd_truncate(config: dict) -> dict:
    if config.get("kind") == "constant":
        spec = TruncationSpec.constant(config["r"], config["t"], config["maxN"])
    elif config.get("kind") == "perturbation":
        spec = TruncationSpec.perturbation(
            config["base"], config["amplitude"], config["power"], config["maxN"]
        )
    else:
        spec = TruncationSpec(tuple(config["r"]), tuple(config["t"]), config["maxN"])
    seq = ca_sequence(spec)
    return {
        "command": "truncate",
        "config": config,
        "sequence": seq.to_json(),
        "pass": True,
    }


COMMANDS = {
    "decompose": cmd_decompose,
    "eval": cmd_eval,
    "verify": cmd_verify,
    "truncate": cmd_truncate,
}


def write_csv(path: str, report: dict) -> None:
    if report["command"] != "eval":
        raise ConfigError("CSV export only applies to point evaluations")
    rows = report["values"]
    keys = sorted({k for row in rows for k in row["point"]})
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = ["index"]
        for key in keys:
            width = max(len(row["point"].get(key, [])) for row in rows)
            header.extend(f"{key}_{i}" for i in range(width))
        writer.writerow(header + ["value_re", "value_im", "error"])
        for idx, row in enumerate(rows):
            record = [idx]
            for key in keys:
                width = max(len(r["point"].get(key, [])) for r in rows)
                coords = row["point"].get(key, [])
                record.extend(list(coords) + [""] * (width - len(coords)))
            if "value" in row:
                record.extend([row["value"]["re"], row["value"]["im"], ""])
            else:
                record.extend(["", "", row["error"]["kind"]])
            writer.writerow(record)


def render_report(report: dict, timing: float | None) -> str:
    report = dict(report)
    report["versions"] = {"fockops": __version__, "numpy": np.__version__}
    if timing is not None:
        report["timingSeconds"] = timing
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fockops",
        description="Weighted Fock spaces: decomposition, kernels, transforms, verification.",
    )
    parser.add_argument("--version", action="version", version=f"fockops {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} command")
        p.add_argument("--config", help="path to a JSON configuration file")
        p.add_argument("--out", help="write the JSON report here instead of stdout")
        p.add_argument(
            "--timing",
            action="store_true",
            help="embed wall-clock seconds in the report (breaks byte reproducibility)",
        )
        if name == "eval":
            p.add_argument("--csv", help="also write values as CSV")
        if name == "verify":
            p.add_argument("--seed", type=int, help="override the configured seed")
            p.add_argument("--nodes", type=int, help="override quadrature nodes per axis")
    return parser


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("FOCK_LOG", "WARNING").upper()
    logging.basicConfig(stream=sys.stderr, level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    args = parser.parse_args(argv)

    overrides: dict = {}
    if args.command == "verify":
        overrides = {"seed": args.seed, "nodes": args.nodes}

    started = time.perf_counter()
    try:
        config = load_config(args.config, args.command, overrides)
        report = COMMANDS[args.command](config)
        elapsed = time.perf_counter() - started
        text = render_report(report, elapsed if args.timing else None)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        if args.command == "eval" and args.csv:
            write_csv(args.csv, report)
    except FockError as err:
        payload = {"error": err.payload()}
        print(json.dumps(payload, sort_keys=True, indent=2))
        log.error("%s failed: %s", args.command, err)
        return 2
    except (OSError, json.JSONDecodeError) as err:
        print(json.dumps({"error": {"kind": "config_invalid", "message": str(err)}},
                         sort_keys=True, indent=2))
        return 2

    if not args.out:
        sys.stdout.write(text)
    print(f"{args.command}: {'pass' if report['pass'] else 'FAIL'} in {elapsed:.2f}s",
          file=sys.stderr)
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
