"""Config parsing: orjson where it gives what json.load gives, json.load's
value or error everywhere else."""

import importlib.util
import json
import pathlib
import re
import types

import numpy as np
import pytest

import fockops.cli as cli
from fockops.cli import _parse_int, load_config, main
from fockops.errors import ConfigError

from conftest import run_cli_process

ROOT = pathlib.Path(__file__).resolve().parents[1]

# an eval config whose points hold the raw value under test: the schema
# reads no item of "points", so load_config returns whatever was parsed
HEAD = b'{"operator": {"n": 1, "R": [[1.0]], "T": [[1.0]]}, "eval": {"target": "kernel", "points": ['
TAIL = b"]}}"

VALUES = {
    "nan": b"NaN",
    "infinity": b"[Infinity, -Infinity]",
    "1e400": b"1e400",
    "2^63-1": b"9223372036854775807",
    "2^63": b"9223372036854775808",
    "2^64-1": b"18446744073709551615",
    "2^64": b"18446744073709551616",
    "-2^63": b"-9223372036854775808",
    "-2^63-1": b"-9223372036854775809",
    "a 19-digit integer in range": b"1000000000000000000",
    "a 19-digit exponent": b"1e0000000000000000001",
    "a 19-digit mantissa": b"0.0065760585629513505",
    "a long integer part": b"12345678901234567890.5",
    "-0": b"-0",
    "-0.0": b"[-0.0, -1e-400]",
    "duplicate keys": b'{"a": 1, "b": 2, "a": 2.5}',
    "lone surrogate": b'"\\ud800"',
    "surrogate pair": b'"\\ud83d\\ude00"',
    "escaped NUL": b'"\\u0000"',
    "invalid utf-8": b'"\xff"',
    "a surrogate in utf-8": b'"\xed\xa0\x80"',
    "overlong utf-8": b'"\xc0\x80"',
    "utf-8 past U+10FFFF": b'"\xf4\x90\x80\x80"',
    "an invalid escape": b'"\\x"',
    "control character": b'"a\tb"',
    "leading zero": b"01",
    "a long integer in a key": b'{"12345678901234567890": 1}',
    "nested at orjson's depth": b"[" * 100 + b"]" * 100,
    "nested past orjson's depth": b"[" * 150 + b"]" * 150,
    "nested 100,000 deep": b"[" * 100_000 + b"]" * 100_000,
    "nested 100,000 deep, unclosed": b"[" * 100_000,
}

FILES = {
    **{name: HEAD + value + TAIL for name, value in VALUES.items()},
    "utf-8 bom": b"\xef\xbb\xbf" + HEAD + b"1" + TAIL,
    "trailing data": HEAD + b"1" + TAIL + b" x",
    "a trailing NUL": HEAD + b"1" + TAIL + b"\x00",
    "an empty file": b"",
    "only whitespace": b" \n",
    "crlf lines, then an error": HEAD.replace(b", ", b",\r\n") + b"1,\r\n]" + TAIL,
    "a lone cr, then an error": HEAD.replace(b", ", b",\r") + b"1,\r]" + TAIL,
}


def _same(a, b) -> bool:
    """Equal JSON values of the same types, floats to the bit and objects
    in the same key order."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return np.float64(a).tobytes() == np.float64(b).tobytes()
    if isinstance(a, dict):
        return list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


def _outcome(load):
    try:
        return "config", load()
    except ConfigError as err:
        return "error", str(err)


def _json_route(path):
    """The config as the file opened as UTF-8 text and read by json.loads
    with _parse_int gives it, or the message of the error it raises."""
    def load():
        try:
            with open(path, encoding="utf-8") as fh:
                return json.loads(fh.read(), parse_int=_parse_int)
        except (ValueError, RecursionError) as err:
            raise ConfigError(str(err)) from err
    return _outcome(load)


@pytest.mark.parametrize("raw", FILES.values(), ids=FILES.keys())
def test_load_config_gives_what_json_loads_gives(tmp_path, raw):
    path = tmp_path / "cfg.json"
    path.write_bytes(raw)
    got = _outcome(lambda: load_config(str(path), "eval", {}))
    want = _json_route(path)
    assert got[0] == want[0]
    assert _same(got[1], want[1]) if got[0] == "config" else got[1] == want[1]


def test_integers_past_64_bits_are_refused_at_the_start_of_the_text():
    for text in ("9223372036854775808", "18446744073709551616", "-9223372036854775809"):
        with pytest.raises(ValueError, match=f"integer literal of {len(text)} digits"):
            cli.parse_json(text.encode())


def test_the_benchmark_kernel_config_takes_the_orjson_route(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_inputs",
                                                  ROOT / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    text = json.dumps(inputs.cli_batch_configs(31)["kernel"])
    path = tmp_path / "kernel.json"
    path.write_text(text)
    want = json.loads(text, parse_int=_parse_int)
    # its floats have fractions of 19 digits, as 0.0065760585629513505 has
    assert re.search(r"[0-9]\.[0-9]{19}[^0-9]", text)

    def refuse(*args, **kwargs):
        raise AssertionError("the json route ran")

    monkeypatch.setattr(cli, "json", types.SimpleNamespace(loads=refuse, dumps=json.dumps))
    assert _same(load_config(str(path), "eval", {}), want)


@pytest.mark.parametrize("raw", [b"[" * 100_000, b"[" * 100_000 + b"]" * 100_000],
                         ids=["unclosed", "closed"])
def test_a_deeply_nested_config_is_config_invalid(tmp_path, capsys, raw):
    # it ended in a RecursionError traceback and exit code 1
    path = tmp_path / "deep.json"
    path.write_bytes(raw)
    assert main(["eval", "--config", str(path)]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["kind"] == "config_invalid"
    assert "recursion" in error["message"]


@pytest.mark.parametrize("raw, what", [
    (b"[]", "an array"), (b"3", "3"), (b'"x"', '"x"'), (b"null", "null"),
])
@pytest.mark.parametrize("command", ["decompose", "eval", "verify", "truncate"])
def test_a_config_that_is_no_object_is_config_invalid(tmp_path, capsys, raw, what, command):
    # {**config, **overrides} raised a TypeError traceback
    path = tmp_path / "cfg.json"
    path.write_bytes(raw)
    assert main([command, "--config", str(path)]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == {
        "kind": "config_invalid",
        "message": f"invalid configuration: config is {what}, not an object",
    }


def _point(z: bytes) -> bytes:
    """An eval config of one kernel point whose "z" is ``z``."""
    return HEAD + b'{"z": ' + z + b', "w": [0.0, 0.0]}' + TAIL


@pytest.mark.parametrize("raw", [
    b'{"a": ' * 60_000 + b"1" + b"}" * 60_000,
    b"[" * 300_000 + b"]" * 300_000,
    _point(b"[" * 140_000 + b"]" * 140_000),
], ids=["60,000 objects", "300,000 arrays", "a point of 140,000 arrays"])
def test_a_config_nested_past_orjsons_stack_is_config_invalid_in_a_process(tmp_path, raw):
    # orjson recursed on the C stack until the CLI died of a segfault, exit 139
    path = tmp_path / "deep.json"
    path.write_bytes(raw)
    proc = run_cli_process("eval", "--config", str(path))
    assert proc.returncode == 2
    error = json.loads(proc.stdout)["error"]
    assert error["kind"] == "config_invalid" and "recursion" in error["message"]


def test_a_point_nested_5000_deep_is_config_invalid_in_a_process(tmp_path):
    # within ORJSON_OPENERS, orjson reads it whole and the point check refuses it
    path = tmp_path / "deep.json"
    path.write_bytes(_point(b"[" * 5000 + b"]" * 5000))
    proc = run_cli_process("eval", "--config", str(path))
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"] == {
        "kind": "config_invalid",
        "message": "invalid configuration: point 0 'z' is not a list of numbers"}


@pytest.mark.parametrize("extra, route", [(0, "orjson"), (1, "json")])
def test_the_opening_brackets_of_the_bytes_pick_the_route(tmp_path, monkeypatch, extra, route):
    # 3 openers a point and the rest in a string: a config of ORJSON_OPENERS
    # openers is read by orjson, one more sends it to json unread
    count, rest = divmod(cli.ORJSON_OPENERS - HEAD.count(b"[") - HEAD.count(b"{"), 3)
    points = [b'{"z": [0.5], "w": [0.25]}'] * count + [b'"' + b"[" * rest + b"{" * extra + b'"']
    raw = HEAD + b", ".join(points) + TAIL
    assert raw.count(b"[") + raw.count(b"{") == cli.ORJSON_OPENERS + extra
    path = tmp_path / "cfg.json"
    path.write_bytes(raw)
    want = json.loads(raw)

    def refuse(*args, **kwargs):
        raise AssertionError("the other route ran")

    if route == "json":
        monkeypatch.setattr(cli.orjson, "loads", refuse)
    else:
        monkeypatch.setattr(cli, "json", types.SimpleNamespace(loads=refuse, dumps=json.dumps))
    assert _same(load_config(str(path), "eval", {}), want)
