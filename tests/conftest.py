"""Helpers shared by the test modules."""

import os
import subprocess
import sys

import numpy as np

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def same_bits(a, b) -> bool:
    """a and b have one shape and the same raw bits, read as uint64 words:
    -0.0 is not 0.0, a NaN matches only a NaN of the same bits, and a float
    array never matches a complex one."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(np.ascontiguousarray(a).view(np.uint64),
                                                 np.ascontiguousarray(b).view(np.uint64))


def run_cli_process(*argv: str) -> subprocess.CompletedProcess:
    """``python -m fockops.cli *argv`` in a child interpreter that imports
    this checkout's package, its stdout and stderr captured as bytes: a
    crash of the CLI is the child's return code (-11 for a segfault), where in
    process it would end the test run."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "fockops.cli", *argv], capture_output=True,
                          env=env)
