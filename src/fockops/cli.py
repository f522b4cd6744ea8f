"""Command-line front end.

Subcommands
-----------
decompose   validate a weight operator and report its derived context
eval        evaluate kernels, transforms, and coherent states at points
verify      run the full identity suite; exit 0 only if everything passes
truncate    partial normalization constants along a diagonal tower

Configuration is a JSON file (``--config``), read as ``json.load`` reads
it (``parse_json``, its route decided on the bytes: orjson where that gives
the same, for at most ORJSON_OPENERS opening brackets; json, which refuses
deep nesting with a RecursionError, past them; a config within the bound
nested past json's limit is read whole and refused by the checks below),
checked against CONFIG_SCHEMAS by ``_schema_error``, an in-tree checker of
the JSON Schema keywords those
schemas use.  It decides as JSON Schema 2020-12 does, except that an
``integer`` is a JSON integer literal (``10.0`` is not one), and its message
names the path of the first bad value (``config.eval.target``).  Unknown
keys are rejected, and so is an integer outside the 64-bit range, there or
in ``--seed`` and ``--nodes``.  Each eval function kind and each truncate
form is one entry of FUNCTIONS or TRUNCATE_FORMS: the keys it reads, from
which its schema form is generated, and its builder.  Reports are strict
JSON in UTF-8 on stdout or ``--out``, rendered by ``report.render_json``
with sorted keys, so identical configurations and seeds produce
byte-identical files: a non-finite value is ``null``, a float is written
with its shortest round-trip digits, in an exponent notation that may
differ from Python's (``1e-8``, not ``1e-08``).  Wall-clock timing goes to stderr only.  A
verify config holds ``seed`` and ``nodes``: ``--nodes`` sets the n=1 Fock
rules, the n=2 rules keep 20 nodes and three checks take no fewer than 60;
every other sample size is fixed.  A verify check passes if and only if
its ``residual`` is within its ``tolerance``; a ``null`` residual fails.  For
a bound, ``lhs`` is the value checked and ``rhs`` its limit.  Exit codes: 0 success, 1 verification
failure (for ``eval``, a row with an error: an exponent out of range or a
non-finite value), 2 usage or configuration errors, reported as
``{"error": {"kind": ...}}``, a payload of the kind, the message and any
details of the error (``asymmetry``, ``min_eigenvalue``,
``eigenvalue_ratio``, ``exponent``): ``config_invalid`` for a config that
cannot be read or fails its checks (a malformed or non-finite eval point,
checked after the operator and the function, one point at a time, and
before a target reads a real block and may raise ``requires_real_form``; a ragged
or wrongly sized ``A``, ``R``, ``T``, ``P`` or ``b``, a weight whose
reported determinant is beyond the float range, non-finite truncate
eigenvalues or a pair whose product is not normal or whose factor overflows, an eval
function with a key its kind never reads, with a non-finite ``P``, ``b``
or ``coeff``, past MAX_FUNCTION_COEFFS or with coefficients beyond the
float range, a Gaussian whose form, added to a transform's kernel, is
beyond the float range, a verify ``nodes`` above 370, where the
Gauss-Hermite rule leaves the float range, refused before any group
runs, ...), ``node_budget`` for a truncate generator's
``maxN`` past NODE_BUDGET, ``output_unwritable`` for an ``--out`` or
``--csv`` path that cannot be written.  Set FOCK_LOG to a level name (e.g.
DEBUG) for progress logging, with one line per stage of a command (parse,
command, render, write) and its seconds; any other value means WARNING.
A command imports only the modules it runs: truncate loads neither the
transforms nor the verification suite.  As the process entry (``python -m
fockops.cli``, the ``fockops`` script: ``main()`` reading ``sys.argv``) the
CLI freezes the heap its imports built, so that the cyclic collector walks
it neither during the command nor at exit; ``main(argv)`` with a list, as
tests and library callers make it, leaves the collector as it found it.  A
report's 1-D float64 array is written up to its final run of bit-identical
values, and that run's line once and repeated (``report.render_json``): a
bounded truncate sequence ends in a long run of its limit.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import logging
import math
import os
import sys
import time
from itertools import chain

import numpy as np
import orjson

import fockops

from . import __version__
from .errors import (
    ConfigError,
    EvaluatorError,
    FockError,
    OutputUnwritableError,
    RangeOverflowError,
)
from .operators import (
    RealLinearMap,
    build_context,
    decompose,
    decomposition_residuals,
    to_complex_coords,
)
from .quadrature import MAX_NODES_PER_AXIS
from .report import complex_json, render_json
from .truncation import TruncationSpec, ca_sequence

# kernels, symbolic, transforms and verification are reached through the
# package (fockops.kernels.kernel), which imports each on its first use, so
# truncate never loads them and only verify loads the verification suite

log = logging.getLogger("fockops")

NUMBER_GRID = {"type": "array", "items": {"type": "array", "items": {"type": "number"}}}
NUMBER = {"type": "number"}
NUMBER_LIST = {"type": "array", "items": NUMBER}

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

# coordinate keys an eval point may carry: length per complex dimension and
# what they are; _coordinates enforces the shape
POINT_KEYS = {"z": (2, "length-2n real coords"), "w": (2, "length-2n real coords"),
              "x": (1, "real subspace point")}

# integers a report can echo
INT64 = range(-2**63, 2**63)

# largest dense coefficient array of an eval function's transform,
# (|alpha| + 1)^n: the polynomial of degree |alpha| in n variables that a
# transform of the function holds
MAX_FUNCTION_COEFFS = 10_000

ALPHA = {"type": "array", "items": {"type": "integer", "minimum": 0}}
GAUSSIAN_KEYS = {"P": NUMBER_GRID, "b": NUMBER_LIST, "coeff": NUMBER}


def _float_array(value, key: str, shape: tuple[int, ...]) -> np.ndarray:
    """The config value of ``key`` as a float array of ``shape``; a ragged or
    wrongly sized one is a config error that names the key."""
    what = f"{shape[0]}x{shape[1]}" if len(shape) == 2 else f"of length {shape[0]}"
    try:
        array = np.asarray(value, dtype=float)
    except ValueError:  # rows of unequal lengths
        raise ConfigError(f"{key} must be {what}, got ragged rows") from None
    if array.shape != shape:
        raise ConfigError(f"{key} must be {what}, got shape {array.shape}")
    return array


def _alpha(spec: dict, n: int) -> list[int]:
    """The multi-index of a function spec, zeros if it has none, checked
    before anything is built: its transform must fit in MAX_FUNCTION_COEFFS
    dense coefficients."""
    alpha = spec.get("alpha", [0] * n)
    if len(alpha) != n:
        raise ConfigError(f"alpha must have length {n}")
    if (sum(alpha) + 1) ** n > MAX_FUNCTION_COEFFS:
        raise ConfigError(
            f"alpha of total degree {sum(alpha)} in dimension {n} needs (degree + 1)^n "
            f"coefficients, more than {MAX_FUNCTION_COEFFS}"
        )
    return alpha


def _gaussian(spec: dict, n: int) -> fockops.symbolic.GaussPoly:
    """coeff x^alpha exp(-x.Px/2 + b.x): a plain Gaussian when alpha is zeros."""
    alpha = _alpha(spec, n)
    P = _float_array(spec.get("P", np.eye(n)), "P", (n, n))
    b = _float_array(spec.get("b", np.zeros(n)), "b", (n,))
    coeff = spec.get("coeff", 1.0)
    for key, value in (("P", P), ("b", b), ("coeff", coeff)):
        if not np.all(np.isfinite(value)):
            raise ConfigError(f"function key '{key}' holds a non-finite number")
    symbolic = fockops.symbolic
    return symbolic.GaussPoly(symbolic.Polynomial.monomial(n, alpha, coeff), P, b, 0.0)


# eval function kind -> (the keys its function reads besides "kind", its
# build from the spec and the dimension)
FUNCTIONS = {
    "hermite": ({"alpha": ALPHA},
                lambda spec, n: fockops.transforms.hermite_function(_alpha(spec, n))),
    "sb_eigenfunction": ({"alpha": ALPHA},
                         lambda spec, n: fockops.transforms.sb_eigenfunction(_alpha(spec, n))),
    "ground_state": ({}, lambda spec, n: fockops.transforms.ground_state(n)),
    "gaussian": (GAUSSIAN_KEYS, _gaussian),
    "monomial_gaussian": ({"alpha": ALPHA, **GAUSSIAN_KEYS}, _gaussian),
}

# one form per kind, so a key the kind never reads is rejected
FUNCTION_SCHEMA = {
    "properties": {"kind": {"enum": list(FUNCTIONS)}},
    "required": ["kind"],
    "oneOf": [
        {
            "type": "object",
            "properties": {"kind": {"const": kind}, **keys},
            "required": ["kind"],
            "additionalProperties": False,
        }
        for kind, (keys, _) in FUNCTIONS.items()
    ],
}

# truncate "kind" (None: explicit eigenvalue lists) -> (the keys its tower
# reads besides "kind" and "maxN", its build from their values and then maxN)
TRUNCATE_FORMS = {
    None: ({"r": NUMBER_LIST, "t": NUMBER_LIST}, TruncationSpec),
    "constant": ({"r": NUMBER, "t": NUMBER}, TruncationSpec.constant),
    "perturbation": ({"base": NUMBER, "amplitude": NUMBER, "power": NUMBER},
                     TruncationSpec.perturbation),
}

# eval target -> the point coordinates it reads, in order, and its batch
# evaluation at them; a lambda looks the function up in its module when it
# runs, so a wrapper installed there is the one called
EVAL_TARGETS = {
    "measure_density": (("z",), lambda ctx, fn, z: fockops.kernels.measure_density(ctx, z)),
    "kernel": (("z", "w"), lambda ctx, fn, z, w: fockops.kernels.kernel(ctx, z, w)),
    "eval_norm": (("z",), lambda ctx, fn, z: fockops.kernels.eval_functional_norm(ctx, z)),
    "multiplier": (("x", "z"), lambda ctx, fn, x, z: fockops.transforms.multiplier(ctx, x, z)),
    "coherent_state": (("x", "z"),
                       lambda ctx, fn, x, z: fockops.transforms.coherent_state(ctx, x, z)),
    "classical_transform": (("z",), lambda ctx, fn, z:
                            fockops.transforms.segal_bargmann_classical_fn(fn).evaluate_many(z)),
    "weighted_transform": (("z",),
                           lambda ctx, fn, z: fockops.transforms.segal_bargmann(ctx, fn, z)),
    "gaussian_transform": (("z",), lambda ctx, fn, z:
                           fockops.transforms.segal_bargmann_gaussian_fn(ctx, fn).evaluate_many(z)),
}

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
                    "target": {"enum": list(EVAL_TARGETS)},
                    "points": {"type": "array", "minItems": 1},
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
            "seed": {"type": "integer", "minimum": 0},
            "nodes": {"type": "integer", "minimum": 2},
        },
        "additionalProperties": False,
    },
    "truncate": {
        "oneOf": [
            {
                "type": "object",
                "properties": {
                    **({"kind": {"const": kind}} if kind else {}),
                    **keys,
                    "maxN": {"type": "integer", "minimum": 1},
                },
                "required": [*(["kind"] if kind else []), *keys, "maxN"],
                "additionalProperties": False,
            }
            for kind, (keys, _) in TRUNCATE_FORMS.items()
        ]
    },
}

def _is_number(value) -> bool:
    """A JSON number: int or float, not bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# the values each schema "type" admits; an integer is a JSON integer literal
# (10.0 is none, unlike in JSON Schema) and a bool is no number
SCHEMA_TYPES = {
    "object": lambda value: isinstance(value, dict),
    "array": lambda value: isinstance(value, list),
    "number": _is_number,
    "integer": lambda value: isinstance(value, int) and not isinstance(value, bool),
}


def _describe(value) -> str:
    """A value as the JSON it was read from; a container by its type alone."""
    if isinstance(value, (dict, list)):
        return "an object" if isinstance(value, dict) else "an array"
    return json.dumps(value)


def _picks(form: dict, value) -> bool:
    """Whether ``form`` has ``const`` properties and ``value`` holds them all:
    the form that a key such as "kind" selects."""
    consts = {key: sub["const"] for key, sub in form.get("properties", {}).items()
              if "const" in sub}
    return bool(consts) and isinstance(value, dict) and all(
        value.get(key) == const for key, const in consts.items())


def _schema_error(value, schema: dict, path: str = "config") -> tuple[str, str] | None:
    """The first place where ``value`` breaks ``schema``, as (path, what is
    wrong), or None if it holds.

    Knows the keywords of CONFIG_SCHEMAS and applies each as JSON Schema
    2020-12 does, except for the integer rule of SCHEMA_TYPES: ``type``,
    ``enum`` and ``const`` (of strings), ``minimum``, ``required``,
    ``properties``, ``additionalProperties: false``, ``minItems``, ``items``
    and, after the others, ``oneOf`` (exactly one form holds; when none
    does, the fault of the form the value's ``const`` keys select is
    reported, or else that of the form that got furthest)."""
    kind = schema.get("type")
    if kind is not None and not SCHEMA_TYPES[kind](value):
        return path, f"is {_describe(value)}, not {'an' if kind[0] in 'aio' else 'a'} {kind}"
    if "enum" in schema and value not in schema["enum"]:
        names = ", ".join(map(json.dumps, schema["enum"]))
        return path, f"is {_describe(value)}, not one of {names}"
    if "const" in schema and value != schema["const"]:
        return path, f"is {_describe(value)}, not {json.dumps(schema['const'])}"
    if "minimum" in schema and _is_number(value) and value < schema["minimum"]:
        return path, f"is {_describe(value)}, below the minimum {schema['minimum']}"
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                return path, f"lacks the required key {json.dumps(key)}"
        properties = schema.get("properties", {})
        for key, item in value.items():
            if key in properties:
                if error := _schema_error(item, properties[key], f"{path}.{key}"):
                    return error
            elif schema.get("additionalProperties", True) is False:
                return path, f"has the unknown key {json.dumps(key)}"
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            return path, f"has {len(value)} items, fewer than {schema['minItems']}"
        for index, item in enumerate(value if "items" in schema else ()):
            if error := _schema_error(item, schema["items"], f"{path}[{index}]"):
                return error
    if "oneOf" in schema:
        forms = schema["oneOf"]
        errors = [_schema_error(value, form, path) for form in forms]
        if (matches := errors.count(None)) == 0:
            return max(zip(errors, forms),
                       key=lambda pair: (_picks(pair[1], value), len(pair[0][0])))[0]
        if matches > 1:
            return path, f"matches {matches} of its {len(errors)} forms, not exactly one"
    return None


def _parse_int(text: str) -> int:
    """A JSON integer; one outside the 64-bit range is rejected here, once."""
    if (value := int(text)) not in INT64:
        raise ValueError(f"integer literal of {len(text)} digits is outside the 64-bit range")
    return value


# a config's bytes with each digit read as "0", "." kept and any other byte
# read as " ": an integer literal of 19 or more digits, which orjson reads as
# a float from 2^64 on or below -2^63, then starts the text or follows a " "
# (a digit run in a string or an exponent may too, which only costs the
# json route)
DIGIT_MARKS = bytes(ord("0") if chr(c) in "0123456789" else c if chr(c) == "." else ord(" ")
                    for c in range(256))
LONG_DIGITS = b"0" * 19

# most opening brackets ("[" and "{", in strings too: an upper bound on the
# depth) of a config that orjson reads.  orjson 3.8.3 has no depth limit and
# recurses on the C stack: on an 8 MB stack it parses 51,875 nested objects
# and crashes at 52,500, and nested arrays cost less a level.  The largest
# benchmark config, the cli-batch kernel config, holds 30,010.
ORJSON_OPENERS = 40_000


def _has_long_integer(raw: bytes) -> bool:
    marks = raw.translate(DIGIT_MARKS)
    return marks.startswith(LONG_DIGITS) or b" " + LONG_DIGITS in marks


def parse_json(raw: bytes):
    """The JSON value of a config file's bytes, as ``json.load`` of the
    file opened as UTF-8 text with _parse_int gives it, its route decided on
    the bytes before any parser runs.  orjson reads a config of at most
    ORJSON_OPENERS brackets and no long integer literal: it gives the same
    values, float bits included, and refuses NaN, Infinity, 1e400 and lone
    surrogates, which then take the json route.  Every other config takes
    it at once, and json refuses one nested past its recursion limit with a
    RecursionError.  A config within the bound nested that deep is read
    whole, and the schema or the point checks refuse it."""
    if raw.count(b"[") + raw.count(b"{") <= ORJSON_OPENERS and not _has_long_integer(raw):
        try:
            return orjson.loads(raw)
        except orjson.JSONDecodeError:
            pass
    text = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8").read()
    return json.loads(text, parse_int=_parse_int)


def load_config(path: str | None, command: str, overrides: dict) -> dict:
    if path is None:
        config = {}
    else:
        try:
            with open(path, "rb") as fh:
                config = parse_json(fh.read())
        # ValueError: bad JSON, bad UTF-8, huge int; RecursionError: deep nesting
        except (OSError, ValueError, RecursionError) as err:
            raise ConfigError(str(err)) from err
    overrides = {k: v for k, v in overrides.items() if v is not None}
    for key, value in overrides.items():
        if value not in INT64:
            raise ConfigError(f"invalid configuration: --{key} is outside the 64-bit range")
    if isinstance(config, dict):  # any other value fails the schema's "type"
        config = {**config, **overrides}
    if error := _schema_error(config, CONFIG_SCHEMAS[command]):
        raise ConfigError("invalid configuration: {} {}".format(*error))
    return config


def operator_from_config(data: dict) -> RealLinearMap:
    n = data["n"]
    if "A" in data:
        return RealLinearMap(_float_array(data["A"], "A", (2 * n, 2 * n)))
    return RealLinearMap.from_blocks(_float_array(data["R"], "R", (n, n)),
                                     _float_array(data["T"], "T", (n, n)))


def cmd_decompose(config: dict) -> dict:
    A = operator_from_config(config["operator"])
    ctx = build_context(A)  # raises with kind not_symmetric / not_positive_definite
    H, K = decompose(A)
    residuals = decomposition_residuals(A, H, K)
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


def _checked_batch(points: list, keys: tuple, n: int) -> list[np.ndarray] | None:
    """The coordinates ``keys`` of a batch with no fault, tested as whole
    arrays, or None if any test fails.  Every point holds exactly the
    target's keys, each a list of ints and floats: the types are tested
    before any conversion, since ``np.array(["1.5"], dtype=float)`` parses
    the string.  Each key's arrays then have their length and are finite."""
    wanted = set(keys)
    if not all(type(point) is dict and point.keys() == wanted for point in points):
        return None
    arrays = []
    for key in keys:
        column = [point[key] for point in points]
        if (set(map(type, column)) != {list}
                or not set(map(type, chain.from_iterable(column))) <= {int, float}):
            return None
        try:
            array = np.array(column, dtype=float)
        except (ValueError, OverflowError):  # ragged lists, an int beyond the float range
            return None
        if array.shape != (len(points), POINT_KEYS[key][0] * n) or not np.isfinite(array).all():
            return None
        arrays.append(array)
    return arrays


def _coordinates(points: list, keys: tuple, n: int) -> list[np.ndarray]:
    """The coordinates ``keys`` of every point as (m, length) float arrays.

    A batch that passes ``_checked_batch`` is returned from there.  Any
    other goes through one pass in place of a schema descent per point,
    which names its first fault: each point is an object of z/w/x keys, each
    a list of JSON numbers, and then holds the target's coordinates, checked
    in the order the target reads them, at their length and finite."""
    if (arrays := _checked_batch(points, keys, n)) is not None:
        return arrays
    for index, point in enumerate(points):
        if not isinstance(point, dict):
            raise ConfigError(f"invalid configuration: point {index} is not an object")
        for key, coords in point.items():
            if key not in POINT_KEYS:
                raise ConfigError(
                    f"invalid configuration: point {index} has unknown key {key!r}"
                )
            if not isinstance(coords, list) or not all(map(_is_number, coords)):
                raise ConfigError(
                    f"invalid configuration: point {index} '{key}' is not a list of numbers"
                )
        for key in keys:
            per_dim, what = POINT_KEYS[key]
            if key not in point:
                raise ConfigError(f"target needs '{key}' ({what}) in every point")
            if len(point[key]) != per_dim * n:
                raise ConfigError(f"'{key}' must have length {per_dim * n}")
            if not all(map(math.isfinite, point[key])):
                raise ConfigError(f"'{key}' has a non-finite coordinate")
    return [np.array([point[key] for point in points], dtype=float) for key in keys]


def cmd_eval(config: dict) -> dict:
    ctx = build_context(operator_from_config(config["operator"]))
    spec = config["eval"]
    target, points = spec["target"], spec["points"]
    fn = None
    if target.endswith("_transform"):
        if "function" not in spec:
            raise ConfigError(f"target {target!r} needs a 'function' entry")
        _, build = FUNCTIONS[spec["function"]["kind"]]
        fn = build(spec["function"], ctx.n)
    keys, evaluate = EVAL_TARGETS[target]
    coords = [c if key == "x" else to_complex_coords(c)
              for key, c in zip(keys, _coordinates(points, keys, ctx.n))]
    overflow = None
    # a transform that overflows yields non-finite values, and those fail
    # their rows below: numpy need not warn of it on the way
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            values = evaluate(ctx, fn, *coords)
        except RangeOverflowError as err:
            # the rows left in range (NaN exponents) are evaluated alone
            overflow, ok = err, np.isnan(err.exponents)
            values = np.full(len(points), np.nan, dtype=complex)
            if ok.any():
                values[ok] = evaluate(ctx, fn, *(c[ok] for c in coords))
    rows = [{"point": point, "value": complex_json(complex(value))}
            for point, value in zip(points, values.tolist())]
    # rows whose exponents left the range (NaN values), then any other
    # non-finite value: each fails its row
    failed = np.flatnonzero(~np.isfinite(values)).tolist()
    for i in failed:
        if overflow is not None and not math.isnan(overflow.exponents[i]):
            error = overflow.row(i)
        else:
            error = EvaluatorError("the value at this point is not finite")
        rows[i] = {"point": points[i], "error": error.payload()}
    return {
        "command": "eval",
        "config": config,
        "context": ctx.summary(),
        "values": rows,
        "pass": not failed,
    }


def cmd_verify(config: dict) -> dict:
    verification = fockops.verification
    report = verification.run_verification(verification.VerifyConfig(**config))
    report["config"] = config
    return report


def cmd_truncate(config: dict) -> dict:
    keys, build = TRUNCATE_FORMS[config.get("kind")]
    seq = ca_sequence(build(*(config[key] for key in keys), config["maxN"]))
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
    import csv

    rows = report["values"]
    keys = sorted({k for row in rows for k in row["point"]})
    widths = {key: max(len(row["point"].get(key, [])) for row in rows) for key in keys}
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = ["index"]
        for key in keys:
            header.extend(f"{key}_{i}" for i in range(widths[key]))
        writer.writerow(header + ["value_re", "value_im", "error"])
        for idx, row in enumerate(rows):
            record = [idx]
            for key in keys:
                coords = row["point"].get(key, [])
                record.extend(list(coords) + [""] * (widths[key] - len(coords)))
            if "value" in row:
                record.extend([row["value"]["re"], row["value"]["im"], ""])
            else:
                record.extend(["", "", row["error"]["kind"]])
            writer.writerow(record)


def render_report(report: dict) -> str:
    report = dict(report)
    report["versions"] = {"fockops": __version__, "numpy": np.__version__}
    return render_json(report)


# characters of a report encoded and written at a time, so that no encoded
# copy of a whole report is built
WRITE_SLICE = 1 << 20


def write_utf8(stream, text: str) -> None:
    """``text`` as UTF-8 bytes on the binary ``stream``, a slice at a time."""
    for start in range(0, len(text), WRITE_SLICE):
        stream.write(text[start:start + WRITE_SLICE].encode("utf-8"))


def write_stdout(text: str) -> None:
    """``text`` as UTF-8 bytes on stdout, whatever the locale's encoding."""
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is None:  # a text-only replacement stream
        sys.stdout.write(text)
        return
    sys.stdout.flush()
    write_utf8(buffer, text)
    buffer.flush()


def write_outputs(args: argparse.Namespace, text: str, report: dict) -> None:
    """The report to ``--out`` and the values to ``--csv``, where given, and
    then the report to stdout if there is no ``--out``; a file that cannot
    be written is an ``output_unwritable`` error."""
    try:
        if args.out:
            with open(args.out, "wb") as fh:
                write_utf8(fh, text)
        if args.command == "eval" and args.csv:
            write_csv(args.csv, report)
    except OSError as err:
        raise OutputUnwritableError(str(err)) from err
    if not args.out:
        write_stdout(text)


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
        if name == "eval":
            p.add_argument("--csv", help="also write values as CSV")
        if name == "verify":
            p.add_argument("--seed", type=int, help="override the configured seed")
            p.add_argument("--nodes", type=int,
                           help="override the nodes per axis of the n=1 Fock rules "
                                f"(at most {MAX_NODES_PER_AXIS})")
    return parser


def _stage(command: str, name: str, run, *args):
    """``run(*args)``, its seconds logged at DEBUG as the stage ``name``."""
    started = time.perf_counter()
    result = run(*args)
    log.debug("%s stage %s: %.3fs", command, name, time.perf_counter() - started)
    return result


def main(argv: list[str] | None = None) -> int:
    """Run one command; its exit code.  With no ``argv`` it is the process
    entry and reads ``sys.argv``: it freezes the heap its imports built
    (``gc.freeze``), for good, so that no collection walks it again, nor the
    one at exit.  A call with a list leaves the collector as it found it."""
    if argv is None:
        gc.freeze()
    # getLevelName maps a level name to its number and anything else to a string
    level = logging.getLevelName(os.environ.get("FOCK_LOG", "WARNING").upper())
    logging.basicConfig(stream=sys.stderr,
                        level=level if isinstance(level, int) else logging.WARNING)
    parser = build_parser()
    args = parser.parse_args(argv)

    overrides: dict = {}
    if args.command == "verify":
        overrides = {"seed": args.seed, "nodes": args.nodes}

    started = time.perf_counter()
    try:
        config = _stage(args.command, "parse", load_config, args.config, args.command, overrides)
        report = _stage(args.command, "command", COMMANDS[args.command], config)
        elapsed = time.perf_counter() - started
        text = _stage(args.command, "render", render_report, report)
        _stage(args.command, "write", write_outputs, args, text, report)
    except FockError as err:
        write_stdout(render_json({"error": err.payload()}))
        log.error("%s failed: %s", args.command, err)
        return 2

    print(f"{args.command}: {'pass' if report['pass'] else 'FAIL'} in {elapsed:.2f}s",
          file=sys.stderr)
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
