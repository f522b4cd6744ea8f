"""Seeded inputs for the three workloads.

Everything the program receives is generated here from the workload
seed: the operators, the point sets and the CLI configuration files.
The same seed always gives the same inputs.  Only numpy and the standard
library are used, so the inputs do not depend on the code under test.
"""

from __future__ import annotations

import json
import os
import zlib

import numpy as np

WORKLOADS = ("verify-default", "cli-batch", "two-route-ladder")

# (n, per-axis Hermite degree) rungs of the two-route ladder.
LADDER_RUNGS = ((1, 10), (2, 6), (3, 4), (3, 6))
LADDER_POINTS = 8

KERNEL_POINTS = 10_000
TRANSFORM_POINTS = 1_000
TRANSFORM_ALPHA = (3, 2)
TRUNCATE_MAX_N = 1_000_000

# Points of the CLI batches that the correctness gates recompute by an
# independent route (kernel_from_densities / CallableField quadrature).
KERNEL_SAMPLE = 24
TRANSFORM_SAMPLE = 12

VERIFY_CHECKS = 47

# Eigenvalue band of the random weight blocks.  It matches the band the
# verify suite uses for its quadrature-backed checks, so the fixed node
# counts of the quadrature routes converge far below the 1e-6 gates.
EIG_LOW, EIG_HIGH = 0.5, 2.5


def _rng(seed: int, stream: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(stream.encode())])


def spd_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    """Dense random SPD matrix with eigenvalues in [EIG_LOW, EIG_HIGH]."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    m = (q * rng.uniform(EIG_LOW, EIG_HIGH, size=n)) @ q.T
    return 0.5 * (m + m.T)


def block_operator(rng: np.random.Generator, n: int) -> dict:
    """A block weight d(R, T) in the CLI's JSON form."""
    return {"n": n, "R": spd_matrix(rng, n).tolist(), "T": spd_matrix(rng, n).tolist()}


def ladder_inputs(seed: int) -> list[dict]:
    """One block weight and LADDER_POINTS complex points per rung."""
    rungs = []
    for n, degree in LADDER_RUNGS:
        rng = _rng(seed, f"ladder-{n}-{degree}")
        op = block_operator(rng, n)
        Z = 0.5 * (rng.standard_normal((LADDER_POINTS, n))
                   + 1j * rng.standard_normal((LADDER_POINTS, n)))
        rungs.append({"n": n, "degree": degree, "R": op["R"], "T": op["T"],
                      "points": [[z.real.tolist(), z.imag.tolist()] for z in Z]})
    return rungs


def cli_batch_configs(seed: int) -> dict[str, dict]:
    """The three CLI configurations of the ``cli-batch`` workload."""
    rng = _rng(seed, "cli-kernel")
    kernel_points = 0.6 * rng.standard_normal((KERNEL_POINTS, 8))
    kernel = {
        "operator": block_operator(rng, 2),
        "eval": {
            "target": "kernel",
            "points": [{"z": p[:4].tolist(), "w": p[4:].tolist()} for p in kernel_points],
        },
    }
    rng = _rng(seed, "cli-transform")
    transform_points = 0.5 * rng.standard_normal((TRANSFORM_POINTS, 4))
    transform = {
        "operator": block_operator(rng, 2),
        "eval": {
            "target": "weighted_transform",
            "function": {"kind": "hermite", "alpha": list(TRANSFORM_ALPHA)},
            "points": [{"z": p.tolist()} for p in transform_points],
        },
    }
    # A power below about 1.4 makes the truncate report up to 40% longer
    # (57 MB against 41 MB at maxN 10^6), and with it the time and peak
    # memory of the invocation, so the range keeps the work the same
    # from seed to seed.
    rng = _rng(seed, "cli-truncate")
    truncate = {
        "kind": "perturbation",
        "base": float(rng.uniform(0.5, 2.0)),
        "amplitude": float(rng.uniform(0.1, 1.0)),
        "power": float(rng.uniform(1.5, 2.0)),
        "maxN": TRUNCATE_MAX_N,
    }
    return {"kernel": kernel, "transform": transform, "truncate": truncate}


def gate_sample(seed: int, name: str, total: int, count: int) -> list[int]:
    """Seeded indices of the points whose values the gates recompute."""
    rng = _rng(seed, f"gate-{name}")
    return sorted(rng.choice(total, size=count, replace=False).tolist())


def report_path(workdir: str, name: str, tag: str) -> str:
    return os.path.join(workdir, f"{name}-{tag}.report.json")


def cli_invocations(workload: str, workdir: str, tag: str) -> dict[str, list[str]]:
    """Arguments of each CLI invocation of a workload; reports go to WORKDIR."""
    if workload == "verify-default":
        return {"verify": ["verify", "--out", report_path(workdir, "verify", tag)]}
    return {
        name: [command, "--config", os.path.join(workdir, f"{name}.json"),
               "--out", report_path(workdir, name, tag)]
        for name, command in (("kernel", "eval"), ("transform", "eval"),
                              ("truncate", "truncate"))
    }


def write_inputs(workload: str, seed: int, workdir: str) -> None:
    """Write the workload's input files into ``workdir``."""
    if workload == "cli-batch":
        files = cli_batch_configs(seed)
    elif workload == "two-route-ladder":
        files = {"ladder": ladder_inputs(seed)}
    else:
        return
    for name, content in files.items():
        with open(os.path.join(workdir, f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(content, fh)
