"""Per-layer tracing from outside the package.

The tracer replaces public functions of ``fockops`` with timing wrappers
for the duration of one in-process run.  A function imported with
``from .x import y`` is a separate binding in every importing module, so
each wrapper is installed in every ``fockops`` module that holds the
original object; methods are wrapped on their class, and the CLI stages
and verify groups through the dicts that dispatch them.

Each traced function records its calls, its inclusive time ``s`` and its
self time ``self_s`` (inclusive time minus the time spent in traced
functions it called).  Hooks add counts measured at the same boundary.
"""

from __future__ import annotations

import functools
import sys
import time

# Workloads on which a traced function must be called at least once.
VERIFY, CLI, LADDER = "verify-default", "cli-batch", "two-route-ladder"

# Keys of fockops.verification.GROUPS; a group missing from the package
# reads 0 calls and fails the trace self-check.
VERIFY_GROUPS = (
    "operator-core", "kernel-constants", "determinant-identities", "kernel-geometry",
    "reproducing-property", "space-unitary", "transform-tower", "gaussian-formulation",
    "quadrature", "truncation-diagnostics",
)


def _grid_hook(rec, args, kwargs, out):
    rule = args[0]
    center = kwargs.get("center", args[1] if len(args) > 1 else None)
    X, W = out
    rec["nodes"] += W.shape[0]
    rec["mb_computed"] += (X.nbytes + W.nbytes) / 1e6
    rec["_keys"].add((rule.dim, rule.nodes_per_axis, rule.scaling.tobytes(),
                      None if center is None else center.tobytes()))


def _convolve_hook(rec, args, kwargs, out):
    rec["out_terms"] += len(out.poly.terms)


def _evaluate_many_hook(rec, args, kwargs, out):
    rec["points"] += len(out)


def _sb_fn_hook(rec, args, kwargs, out):
    ctx, f = args[0], args[1]
    rec["_keys"].add((ctx.A.entries.tobytes(), tuple(sorted(f.poly.terms.items())),
                      f.P.tobytes(), f.b.tobytes(), complex(f.gamma)))


def _render_hook(rec, args, kwargs, out):
    rec["report_mb"] += len(out.encode()) / 1e6


# (metric prefix, module, attribute, extra counts, hook, workloads that
# must call it).  The last column names the workload on which the layer
# dominates; transform helpers that only the verify suite calls are
# checked there.
FUNCTIONS = [
    ("quadrature.grid", "fockops.quadrature", "QuadratureRule.grid",
     ("nodes", "mb_computed", "distinct_frac"), _grid_hook, (VERIFY, LADDER)),
    ("quadrature.integrate", "fockops.quadrature", "integrate", (), None, (VERIFY,)),
    ("quadrature.integrate_shifted", "fockops.quadrature", "integrate_shifted", (), None,
     (VERIFY, LADDER)),
    ("quadrature.mc_integrate", "fockops.quadrature", "mc_integrate", (), None, (VERIFY,)),
    ("symbolic.convolve_gaussian", "fockops.symbolic", "convolve_gaussian",
     ("out_terms",), _convolve_hook, (LADDER, CLI)),
    ("symbolic.compose_affine", "fockops.symbolic", "Polynomial.compose_affine", (), None,
     (LADDER,)),
    ("symbolic.gaussian_integral", "fockops.symbolic", "gaussian_integral", (), None,
     (LADDER,)),
    ("symbolic.evaluate_many", "fockops.symbolic", "HolomorphicFunction.evaluate_many",
     ("points",), _evaluate_many_hook, (LADDER, CLI)),
    ("symbolic.evaluate_many", "fockops.symbolic", "GaussPoly.evaluate_many",
     ("points",), _evaluate_many_hook, (LADDER,)),
    ("transforms.segal_bargmann_fn", "fockops.transforms", "segal_bargmann_fn",
     ("distinct_frac",), _sb_fn_hook, (CLI, LADDER)),
    ("transforms.segal_bargmann", "fockops.transforms", "segal_bargmann", (), None,
     (CLI, LADDER)),
    ("transforms.segal_bargmann_classical_fn", "fockops.transforms",
     "segal_bargmann_classical_fn", (), None, (VERIFY,)),
    ("transforms.segal_bargmann_gaussian_fn", "fockops.transforms",
     "segal_bargmann_gaussian_fn", (), None, (VERIFY,)),
    ("transforms.multiplier", "fockops.transforms", "multiplier", (), None, (VERIFY,)),
    ("transforms.kernel_from_densities", "fockops.transforms", "kernel_from_densities",
     (), None, (VERIFY,)),
    ("kernels.kernel", "fockops.kernels", "kernel", (), None, (VERIFY, CLI)),
    ("kernels.fock_inner_product", "fockops.kernels", "fock_inner_product", (), None,
     (VERIFY,)),
    ("kernels.kernel_section", "fockops.kernels", "kernel_section", (), None, (VERIFY,)),
    ("kernels.classical_to_weighted", "fockops.kernels", "classical_to_weighted", (), None,
     (VERIFY, LADDER)),
    ("cli.load_config", "fockops.cli", "load_config", (), None, (CLI, VERIFY)),
    ("cli.render_report", "fockops.cli", "render_report", ("report_mb",), _render_hook,
     (CLI, VERIFY)),
    ("truncation.ca_sequence", "fockops.truncation", "ca_sequence", (), None, (CLI, VERIFY)),
    ("operators.build_context", "fockops.operators", "build_context", (), None, (VERIFY,)),
]
COMMAND_PREFIX = "cli.command"
COMMAND_WORKLOADS = (CLI, VERIFY)
GROUP_WORKLOADS = (VERIFY,)
OVERHEAD_METRICS = ("trace.untraced_s", "trace.traced_s", "trace.overhead_s")

UNITS = {"calls": "count", "s": "s", "self_s": "s", "nodes": "count",
         "mb_computed": "MB", "distinct_frac": "fraction", "out_terms": "count",
         "points": "count", "report_mb": "MB"}
BETTER = {"distinct_frac": "higher"}


def metric_names() -> list[str]:
    """Every per-layer metric, in report order."""
    names = []
    for prefix, _, _, extras, _, _ in FUNCTIONS:
        for suffix in ("calls", "s", "self_s") + tuple(extras):
            name = f"{prefix}.{suffix}"
            if name not in names:
                names.append(name)
    names += [f"{COMMAND_PREFIX}.{s}" for s in ("calls", "s", "self_s")]
    names += [f"verification.{group}.s" for group in VERIFY_GROUPS]
    names += list(OVERHEAD_METRICS)
    return names


def unit_of(name: str) -> str:
    return UNITS.get(name.rsplit(".", 1)[1], "s")


def better_of(name: str) -> str:
    return BETTER.get(name.rsplit(".", 1)[1], "lower")


def required_calls(workload: str) -> list[str]:
    """Prefixes whose ``calls`` must be positive on ``workload``."""
    need = [prefix for prefix, _, _, _, _, where in FUNCTIONS if workload in where]
    if workload in COMMAND_WORKLOADS:
        need.append(COMMAND_PREFIX)
    if workload in GROUP_WORKLOADS:
        need += [f"verification.{group}" for group in VERIFY_GROUPS]
    return list(dict.fromkeys(need))


class Tracer:
    """Timing wrappers with a call stack for self time."""

    def __init__(self):
        self.records: dict[str, dict] = {}
        self._stack: list[list[float]] = []
        self._undo: list[tuple] = []

    def _record(self, prefix: str, extras=()) -> dict:
        rec = self.records.get(prefix)
        if rec is None:
            rec = {"calls": 0, "s": 0.0, "self_s": 0.0, "_depth": 0, "_keys": set()}
            rec.update({k: 0 for k in extras if k != "distinct_frac"})
            self.records[prefix] = rec
        return rec

    def wrap(self, prefix: str, fn, extras=(), hook=None):
        rec = self._record(prefix, extras)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            rec["_depth"] += 1
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                rec["_depth"] -= 1
                rec["calls"] += 1
                rec["self_s"] += elapsed - frame[0]
                if rec["_depth"] == 0:  # count a recursive call's time once
                    rec["s"] += elapsed
                if stack:
                    stack[-1][0] += elapsed
            if hook is not None:
                hook(rec, args, kwargs, out)
            return out

        return wrapper

    def _rebind(self, original, wrapper) -> int:
        bound = 0
        for name, module in list(sys.modules.items()):
            if name != "fockops" and not name.startswith("fockops."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)
                    bound += 1
        return bound

    def install(self) -> None:
        """Wrap every traced function; call after importing ``fockops.cli``."""
        import fockops.cli
        import fockops.verification

        for prefix, module_name, attr, extras, hook, _ in FUNCTIONS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = vars(cls)[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self.wrap(prefix, original, extras, hook))
            else:
                original = getattr(module, attr)
                if not self._rebind(original, self.wrap(prefix, original, extras, hook)):
                    raise RuntimeError(f"{module_name}.{attr} is bound nowhere")
        for table, prefix_of in ((fockops.cli.COMMANDS, lambda key: COMMAND_PREFIX),
                                 (fockops.verification.GROUPS,
                                  lambda key: f"verification.{key}")):
            for key, original in list(table.items()):
                self._undo.append((table, key, original))
                table[key] = self.wrap(prefix_of(key), original)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo.clear()

    def metrics(self) -> dict[str, float]:
        """Flat per-layer metrics; functions never called read 0."""
        out = {}
        for name in metric_names():
            prefix, suffix = name.rsplit(".", 1)
            if prefix == "trace":
                continue
            rec = self.records.get(prefix, {})
            if suffix == "distinct_frac":
                calls = rec.get("calls", 0)
                out[name] = len(rec["_keys"]) / calls if calls else 0.0
            else:
                out[name] = rec.get(suffix, 0)
        return out
