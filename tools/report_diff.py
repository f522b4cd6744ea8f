"""Build the same 23 reports in two source trees and list every number that moved.

    python3 tools/report_diff.py PARENT_DIR CHILD_DIR

The reports, built in each tree by its own code and its own benchmark
harness, one process at a time, with BLAS on one thread:

- ``fockops verify`` at the default config, at ``--nodes 20`` and at
  ``--seed`` 0 to 11 (14 reports);
- the cli-batch ``eval`` kernel, ``eval`` transform and ``truncate`` reports
  at seeds 7 and 11, their configs written by ``perfbench/inputs.py``
  (``write_inputs``; 6 reports);
- the ladder's ``closed``, ``quadrature``, ``l2`` and ``c2w_residual``
  values at seeds 7, 11 and 23, from ``perfbench/child.py ladder``, its
  timing keys dropped (3 reports).

A report whose bytes are the same on both sides is identical; any other is
parsed as JSON and compared value by value.  Floats are compared as IEEE
bits, so a signed zero or a NaN of another payload is a move.  For each
moved value it prints the report, the path, the old and new values, the
distance in ulps (+0.0 one step above -0.0; none for a NaN) and the
relative change (none from a zero), and for a ``verify`` check's residual
whether it moved closer to 0 (a NaN is farthest).  Then one summary line:
the reports identical, the values moved, the residuals closer to 0 and
further from it, and the largest move in ulps, which a residual near 1e-16
makes large by a move of its own size.  It exits 0 when every report is
identical, 1 when one is not, and 2 when a report could not be built.
Standard library only; the trees bring their own numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import reprlib
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

VERIFY_SEEDS = range(12)
CLI_SEEDS = (7, 11)
CLI_REPORTS = (("kernel", "eval"), ("transform", "eval"), ("truncate", "truncate"))
LADDER_SEEDS = (7, 11, 23)
LADDER_VALUES = ("closed", "quadrature", "l2", "c2w_residual")
# the note after a moved residual, by its move's "closer"
TOWARD_ZERO = {True: ", closer to 0", False: ", further from 0", None: ", as far from 0"}


def reports() -> list[tuple[str, str, tuple]]:
    """(name, kind, arguments) of each of the 23 reports."""
    out = [("verify-default", "verify", ()), ("verify-nodes-20", "verify", ("--nodes", "20"))]
    out += [(f"verify-seed-{s}", "verify", ("--seed", str(s))) for s in VERIFY_SEEDS]
    out += [(f"cli-batch-{s}-{name}", "cli", (s, name, command))
            for s in CLI_SEEDS for name, command in CLI_REPORTS]
    return out + [(f"ladder-{s}", "ladder", (s,)) for s in LADDER_SEEDS]


def _env(tree: Path) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("FOCK_LOG", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(tree / "src"), os.environ.get("PYTHONPATH")) if p)
    return env


def _run(tree: Path, argv: list[str], out: Path) -> None:
    """Run ``argv`` in ``tree``; a missing ``out`` ends the script with exit 2.
    ``verify`` exits 1 when a check fails and still writes its report."""
    done = subprocess.run([sys.executable, *argv], cwd=tree, env=_env(tree),
                          capture_output=True, text=True, check=False)
    if done.returncode not in (0, 1) or not out.is_file():
        sys.stderr.write(done.stderr[-4000:])
        raise SystemExit(2)


def build(tree: Path, name: str, kind: str, args: tuple, workdir: Path) -> bytes:
    """The bytes of one report built in ``tree``; a ladder's without its timings."""
    out = workdir / f"{name}.json"
    if kind == "verify":
        _run(tree, ["-m", "fockops.cli", "verify", *args, "--out", str(out)], out)
        return out.read_bytes()
    seed = args[0]
    inputs = workdir / f"inputs-{kind}-{seed}"
    if not inputs.is_dir():
        inputs.mkdir()
        workload = "cli-batch" if kind == "cli" else "two-route-ladder"
        code = ("import sys; sys.path.insert(0, 'perfbench'); import inputs; "
                f"inputs.write_inputs({workload!r}, {seed}, {str(inputs)!r})")
        subprocess.run([sys.executable, "-c", code], cwd=tree, env=_env(tree), check=True)
    if kind == "cli":
        _, config, command = args
        _run(tree, ["-m", "fockops.cli", command, "--config", str(inputs / f"{config}.json"),
                    "--out", str(out)], out)
        return out.read_bytes()
    _run(tree, ["perfbench/child.py", "ladder", str(inputs), str(out)], out)
    values = json.loads(out.read_text(encoding="utf-8"))
    return json.dumps({key: values[key] for key in LADDER_VALUES}).encode()


def _bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


def ulps(a: float, b: float) -> int | None:
    """The floats between a and b, counting each step of the bit order, in
    which -0.0 lies one step below +0.0; None if either is a NaN."""
    if math.isnan(a) or math.isnan(b):
        return None
    # the two's-complement order of sign-magnitude bits: negatives count down from -1
    ordered = [i if i >= 0 else -(i & 0x7FFF_FFFF_FFFF_FFFF) - 1 for i in map(_bits, (a, b))]
    return abs(ordered[0] - ordered[1])


def _from_zero(x: float) -> float:
    return math.inf if math.isnan(x) else abs(x)


def number_diff(old, new, path: str = "$") -> list[dict]:
    """Every value of two parsed JSON documents that differs: path, old, new,
    and for two floats their distance in ulps and relative change, and for a
    ``residual`` whether it got closer to 0 (None at the same distance).
    Floats differ when their bits do; a key or item on one side only is a
    move with the other side None."""
    if isinstance(old, dict) and isinstance(new, dict):
        return [move for key in sorted(old.keys() | new.keys(), key=str)
                for move in number_diff(old.get(key), new.get(key), f"{path}.{key}")]
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [move for i, (a, b) in enumerate(zip(old, new))
                for move in number_diff(a, b, f"{path}[{i}]")]
    if isinstance(old, float) and isinstance(new, float):
        if _bits(old) == _bits(new):
            return []
        move = {"path": path, "old": old, "new": new, "ulps": ulps(old, new),
                "relative": (new - old) / abs(old) if old != 0.0 else None}
        if path.endswith(".residual"):
            distances = _from_zero(old), _from_zero(new)
            move["closer"] = None if distances[0] == distances[1] else distances[1] < distances[0]
        return [move]
    if type(old) is type(new) and old == new:
        return []
    return [{"path": path, "old": old, "new": new, "ulps": None, "relative": None}]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("child", type=Path)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "child": args.child.resolve()}
    identical, moves = 0, []
    with tempfile.TemporaryDirectory(prefix="report_diff-") as tmp:
        workdirs = {side: Path(tmp) / side for side in trees}
        for workdir in workdirs.values():
            workdir.mkdir()
        for name, kind, report_args in reports():
            old, new = (build(trees[side], name, kind, report_args, workdirs[side])
                        for side in ("parent", "child"))
            for side in workdirs:  # a truncate report is tens of MB
                (workdirs[side] / f"{name}.json").unlink()
            if old == new:
                identical += 1
                continue
            moved = number_diff(json.loads(old), json.loads(new))
            if not moved:
                print(f"{name}: the bytes differ, no value moved", flush=True)
            for move in moved:
                moves.append(move)
                note = TOWARD_ZERO[move["closer"]] if "closer" in move else ""
                print(f"{name} {move['path']}: {reprlib.repr(move['old'])} -> "
                      f"{reprlib.repr(move['new'])}, {move['ulps']} ulps, "
                      f"relative {move['relative']!r}{note}", flush=True)
    largest = max((m["ulps"] for m in moves if m["ulps"] is not None), default=0)
    closer = [m["closer"] for m in moves if "closer" in m]
    print(f"report_diff: {identical} of {len(reports())} reports identical, "
          f"{len(moves)} values moved, {closer.count(True)} residuals closer to 0 and "
          f"{closer.count(False)} further, largest move {largest} ulps")
    return 0 if identical == len(reports()) else 1


if __name__ == "__main__":
    sys.exit(main())
