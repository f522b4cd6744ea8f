#!/usr/bin/env python3
"""In-process timings of the ROADMAP item-1 layer rows, with their inputs.

    python3 perfbench/roadmap_rows.py

Prints one JSON line per row: the call, the exact input and the median
of REPEAT timings.  These are single library calls in a warm interpreter,
so they are not what a CLI user pays; ``run.py`` measures that.  Inputs
come from perfbench/inputs.py at SEED, so the rows use the same weights
and points as the benchmark's workloads at that seed.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import inputs  # noqa: E402

import fockops as fo  # noqa: E402

SEED = 1
REPEAT = 5


def timed(repeat: int, fn) -> float:
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main() -> int:
    rng = np.random.default_rng(SEED)
    k = REPEAT

    def row(what: str, given: str, seconds: float) -> None:
        print(json.dumps({"row": what, "input": given, "ms": round(seconds * 1e3, 4)}))

    for n in (1, 2, 8):
        A = fo.RealLinearMap.from_blocks(inputs.spd_matrix(rng, n), inputs.spd_matrix(rng, n))
        row("build_context", f"n={n}, block weight d(R,T), R,T SPD eig in [0.5,2.5]",
            timed(k, lambda: fo.build_context(A)))
    ctx1 = fo.build_context(fo.RealLinearMap.from_blocks(np.array([[4.0]]), np.array([[1.0]])))
    row("kernel (scalar)", "n=1, R=4, T=1, z=w=[0.3+0.2j]",
        timed(k * 100, lambda: fo.kernel(ctx1, [0.3 + 0.2j], [0.3 + 0.2j])))
    kernel_cfg = inputs.cli_batch_configs(SEED)["kernel"]
    op = kernel_cfg["operator"]
    ctx2 = fo.build_context(fo.RealLinearMap.from_blocks(np.array(op["R"]), np.array(op["T"])))
    pts = [(fo.operators.to_complex_coords(np.array(p["z"])),
            fo.operators.to_complex_coords(np.array(p["w"])))
           for p in kernel_cfg["eval"]["points"]]
    row("kernel loop, 10k points", f"cli-batch kernel config, seed {SEED}",
        timed(k, lambda: [fo.kernel(ctx2, z, w) for z, w in pts]))
    for dim, nodes in ((2, 40), (4, 20)):
        rule = fo.QuadratureRule(dim=dim, nodes_per_axis=nodes)
        row("QuadratureRule.grid", f"dim={dim}, {nodes} nodes per axis ({nodes**dim} nodes)",
            timed(k, rule.grid))
    F = fo.HolomorphicFunction.monomial(2, (2, 1))
    row("fock_inner_product", "n=2 cli-batch kernel weight, F=G=z1^2 z2, fock_rule(ctx, 20)"
        " (160000 nodes)", timed(k, lambda: fo.fock_inner_product(ctx2, F, F,
                                                               fo.fock_rule(ctx2, 20))))
    for rung in inputs.ladder_inputs(SEED):
        n, d = rung["n"], rung["degree"]
        ctx = fo.build_context(fo.RealLinearMap.from_blocks(np.array(rung["R"]),
                                                            np.array(rung["T"])))
        f = fo.hermite_function((d,) * n)
        given = f"hermite_function({(d,) * n}), two-route-ladder weight, seed {SEED}"
        reps = 1 if n * d >= 18 else k  # (3,6) takes seconds per call
        row(f"segal_bargmann_fn ({n},{d})", given, timed(reps, lambda: fo.segal_bargmann_fn(ctx, f)))
        h = f.as_holomorphic()
        row(f"classical_to_weighted ({n},{d})", "f.as_holomorphic() for the same f",
            timed(reps, lambda: fo.classical_to_weighted(ctx, h)))
        row(f"l2_inner_product ({n},{d})", "<f, f> for the same f",
            timed(reps, lambda: fo.l2_inner_product(f, f)))
    spec = fo.TruncationSpec.perturbation(1.0, 0.5, 1.0, 100_000)
    row("ca_sequence", "perturbation base 1, amplitude 0.5, power 1, maxN 1e5",
        timed(k, lambda: fo.ca_sequence(spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
