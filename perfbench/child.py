"""One benchmark step in a fresh interpreter.

``run.py`` starts this script once per timed repetition, so no state of
the package survives from one repetition to the next, as for a user who
starts ``fockops`` anew every time.  Modes:

  setup WORKLOAD WORKDIR [META_OUT]
      import fockops and fockops.cli and build the workload's
      program-side inputs; run.py times the whole process.
  ladder WORKDIR OUT
      one repetition of the two-route ladder; per-route times go to OUT.
  inproc WORKLOAD WORKDIR [--trace] OUT
      the whole workload in this process (the CLI through
      ``fockops.cli.main``); with --trace, per-layer metrics go to OUT.
  reference SEED WORKDIR OUT
      values at the cli-batch gate points by the independent routes.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from importlib import metadata

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import tracer  # noqa: E402

import fockops as fo  # noqa: E402
import fockops.cli  # noqa: E402
from fockops.symbolic import CallableField  # noqa: E402

if not os.path.abspath(fo.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
    sys.exit(f"fockops was imported from {fo.__file__}, not from this checkout")


def _pair(value: complex) -> list[float]:
    return [value.real, value.imag]


def _context(op: dict):
    return fo.build_context(fo.RealLinearMap.from_blocks(np.array(op["R"]), np.array(op["T"])))


def _load(workdir: str, name: str):
    with open(os.path.join(workdir, f"{name}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def build_inputs(workload: str, workdir: str):
    """The program-side inputs built before the first timed call."""
    if workload == "verify-default":
        return fo.verification.VerifyConfig()
    if workload == "cli-batch":
        kernel, transform = _load(workdir, "kernel"), _load(workdir, "transform")
        return (_context(kernel["operator"]), _context(transform["operator"]),
                fo.hermite_function(inputs.TRANSFORM_ALPHA))
    rungs = []
    for rung in _load(workdir, "ladder"):
        Z = np.array([np.array(re) + 1j * np.array(im) for re, im in rung["points"]])
        rungs.append((rung, _context(rung), fo.hermite_function((rung["degree"],) * rung["n"]), Z))
    return rungs


def run_ladder(rungs) -> dict:
    """Closed route, then quadrature route, over every rung."""
    closed, lifted, quad, norms = [], [], [], []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for _, ctx, f, Z in rungs:
        F = fo.segal_bargmann_fn(ctx, f)
        h = f.as_holomorphic()
        G = fo.classical_to_weighted(ctx, h)
        norms.append(_pair(fo.l2_inner_product(f, f)))
        closed.append([F.evaluate(z) for z in Z])
        lifted.append((h, [G.evaluate(z) for z in Z]))
    wall1, cpu1 = time.perf_counter(), time.process_time()
    for _, ctx, f, Z in rungs:
        field = CallableField(f.n, f.evaluate_many)
        quad.append([_pair(fo.segal_bargmann(ctx, field, z)) for z in Z])
    wall2, cpu2 = time.perf_counter(), time.process_time()
    # classical_to_weighted against its defining formula
    # (1/c_a) exp(w.conj(C)w/2) h(sqrt(H) w), evaluated pointwise.
    c2w_residual = []
    for (_, ctx, _, Z), (h, got) in zip(rungs, lifted):
        worst = 0.0
        for z, g in zip(Z, got):
            want = (np.exp(0.5 * np.dot(z, np.conj(ctx.K_matrix) @ z))
                    * h.evaluate(ctx.sqrt_H_matrix @ z) / ctx.c_a)
            worst = max(worst, abs(g - want) / max(1.0, abs(want)))
        c2w_residual.append(worst)
    return {
        "closed": [[_pair(v) for v in values] for values in closed],
        "quadrature": quad, "l2": norms, "c2w_residual": c2w_residual,
        "closed_s": wall1 - wall0, "quadrature_s": wall2 - wall1,
        "clock": [wall0, wall1, wall2],
        "closed_cpu_s": cpu1 - cpu0, "quadrature_cpu_s": cpu2 - cpu1,
    }


def run_inproc(workload: str, workdir: str, trace: bool) -> dict:
    prepared = build_inputs(workload, workdir) if workload == "two-route-ladder" else None
    tag = "traced" if trace else "untraced"
    tr = tracer.Tracer()
    if trace:
        tr.install()
    result: dict = {}
    start = time.perf_counter()
    try:
        if prepared is not None:
            result["ladder"] = run_ladder(prepared)
        else:
            result["exit"] = {name: fockops.cli.main(argv)
                              for name, argv in
                              inputs.cli_invocations(workload, workdir, tag).items()}
    finally:
        elapsed = time.perf_counter() - start
        tr.uninstall()
    result["wall_s"] = elapsed
    if trace:
        result["layers"] = tr.metrics()
        result["missing_calls"] = [p for p in tracer.required_calls(workload)
                                   if not tr.records.get(p, {}).get("calls")]
    return result


def run_reference(seed: int, workdir: str) -> dict:
    kernel, transform = _load(workdir, "kernel"), _load(workdir, "transform")
    kctx, tctx = _context(kernel["operator"]), _context(transform["operator"])
    ref_kernel = {}
    for i in inputs.gate_sample(seed, "kernel", inputs.KERNEL_POINTS, inputs.KERNEL_SAMPLE):
        point = kernel["eval"]["points"][i]
        z, w = (fo.operators.to_complex_coords(point[k]) for k in ("z", "w"))
        ref_kernel[i] = _pair(fo.kernel_from_densities(kctx, z, w))
    f = fo.hermite_function(inputs.TRANSFORM_ALPHA)
    field = CallableField(f.n, f.evaluate_many)
    ref_transform = {}
    for i in inputs.gate_sample(seed, "transform", inputs.TRANSFORM_POINTS,
                                inputs.TRANSFORM_SAMPLE):
        z = fo.operators.to_complex_coords(transform["eval"]["points"][i]["z"])
        ref_transform[i] = _pair(fo.segal_bargmann(tctx, field, z))
    return {"kernel": ref_kernel, "transform": ref_transform}


def meta() -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "jsonschema": metadata.version("jsonschema"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "fockops": fo.__version__,
    }


def _write(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        build_inputs(argv[1], argv[2])
        if len(argv) > 3:
            _write(argv[3], meta())
    elif mode == "ladder":
        _write(argv[2], run_ladder(build_inputs("two-route-ladder", argv[1])))
    elif mode == "inproc":
        _write(argv[-1], run_inproc(argv[1], argv[2], trace="--trace" in argv))
    elif mode == "reference":
        _write(argv[3], run_reference(int(argv[1]), argv[2]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
