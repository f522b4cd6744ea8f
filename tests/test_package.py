"""Package-wide checks."""

import ast
import importlib
import importlib.util
import json
import os
import pathlib
import inspect
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

import fockops

ROOT = pathlib.Path(__file__).resolve().parents[1]

MODULES = ["fockops"] + [
    f"fockops.{info.name}" for info in pkgutil.iter_modules(fockops.__path__)
]


ERRORS = [value for value in vars(fockops).values()
          if isinstance(value, type) and issubclass(value, fockops.FockError)]


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_every_error_payload_is_its_kind_message_and_details(cls):
    err = cls("m", a=1)
    assert err.payload() == {"kind": cls.kind, "message": "m", "a": 1}
    assert err.a == 1


def test_no_two_errors_share_a_kind():
    kinds = [cls.kind for cls in ERRORS]
    assert len(set(kinds)) == len(kinds) > 1


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", []) if not hasattr(module, name)]
    assert not missing


def test_benchmark_tracer_still_binds_and_its_hooks_fire():
    """The benchmark's per-layer tracer wraps functions by name and reads
    ``Polynomial.terms`` in its hooks, and its timed ladder and layer rows
    call ``GaussPoly.as_holomorphic`` and ``HolomorphicFunction.monomial``;
    a rename here would otherwise only show up as a broken benchmark run."""
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)

    ctx = fockops.build_context(fockops.RealLinearMap.from_blocks(np.eye(2), 2.0 * np.eye(2)))
    f = fockops.hermite_function((2, 1))
    originals = (fockops.transforms.segal_bargmann_fn,
                 vars(fockops.symbolic.Polynomial)["compose_affine"],
                 vars(fockops.GaussPoly)["evaluate_many"])
    tr = tracer.Tracer()
    tr.install()  # raises if a traced function is missing
    try:
        fockops.transforms.segal_bargmann_fn(ctx, f)
        fockops.symbolic.convolve_gaussian(1.0, np.eye(2), f)
        f.evaluate_many(np.zeros((3, 2)))
    finally:
        tr.uninstall()
    records = tr.records
    assert records["transforms.segal_bargmann_fn"]["calls"] == 1
    assert len(records["transforms.segal_bargmann_fn"]["_keys"]) == 1
    assert records["symbolic.convolve_gaussian"]["calls"] == 2
    assert records["symbolic.convolve_gaussian"]["out_terms"] > 0
    assert records["symbolic.compose_affine"]["calls"] >= 2
    assert records["symbolic.evaluate_many"]["calls"] >= 1
    assert records["symbolic.evaluate_many"]["points"] >= 3
    # both tracer rows wrap the one method; undone in reverse, it is the original again
    assert originals == (fockops.transforms.segal_bargmann_fn,
                         vars(fockops.symbolic.Polynomial)["compose_affine"],
                         vars(fockops.GaussPoly)["evaluate_many"])
    assert f.as_holomorphic() is f
    assert fockops.HolomorphicFunction is fockops.GaussPoly
    assert fockops.HolomorphicFunction.monomial(2, (2, 1)).poly.terms == {(2, 1): 1.0}


# exported names no caller reaches, each kept for a reason
UNREACHED_ON_PURPOSE = {
    "phase_factor": "a formula of the paper, tested against a reference",
}


class _Uses(ast.NodeVisitor):
    """Names and attributes read in a module, outside the body of the
    function or class of the same name; definitions, imports and the
    strings of ``__all__`` are not reads."""

    def __init__(self):
        self.names, self.inside = set(), []

    def _definition(self, node):
        self.inside.append(node.name)
        self.generic_visit(node)
        self.inside.pop()

    visit_FunctionDef = visit_ClassDef = _definition

    def _use(self, name, node):
        if name not in self.inside:
            self.names.add(name)
        self.generic_visit(node)

    def visit_Name(self, node):
        self._use(node.id, node)

    def visit_Attribute(self, node):
        self._use(node.attr, node)


def test_every_exported_function_and_class_has_a_caller():
    """The package, its CLI and the benchmark are the callers; a public
    name only the tests reach is surface nothing uses."""
    uses = _Uses()
    for path in [*(ROOT / "src" / "fockops").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        uses.visit(ast.parse(path.read_text(encoding="utf-8")))
    exported = [name for name in fockops.__all__
                if inspect.isfunction(getattr(fockops, name))
                or inspect.isclass(getattr(fockops, name))]
    unreached = sorted(set(exported) - uses.names - set(UNREACHED_ON_PURPOSE))
    assert not unreached
    assert set(UNREACHED_ON_PURPOSE) <= set(exported) - uses.names


def test_no_module_imports_a_private_name_of_another():
    """A leading underscore keeps a name inside its module; what a second
    module needs is public where it is defined."""
    private = []
    for path in sorted((ROOT / "src" / "fockops").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                private += [f"{path.name}: {node.module}.{alias.name}" for alias in node.names
                            if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert not private


# every import made inside a function: the module it imports, and the
# command that loads the function's module without running the function
DEFERRED_IMPORTS = {
    "cli.write_csv": ("csv", "every command but eval --csv"),
    "operators.__call__": ("symbolic", "decompose"),
    "quadrature._hermite_rule": ("numpy.polynomial.hermite", "eval kernel"),
}


def test_a_module_imports_what_it_runs_at_its_top():
    """An import waits inside a function only where some command loads the
    module and never runs the function; every other import is at the top of
    its module, and the CLI reaches the computational modules through the
    lazy package."""
    deferred = {}
    for path in sorted((ROOT / "src" / "fockops").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # ast.walk meets an outer function before an inner one: a node maps to its innermost
        owner = {id(node): f"{path.stem}.{f.name}" for f in ast.walk(tree)
                 if isinstance(f, ast.FunctionDef) for node in ast.walk(f)}
        for node in ast.walk(tree):
            if id(node) in owner and isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = [node.module] if isinstance(node, ast.ImportFrom) else \
                    [alias.name for alias in node.names]
                deferred.setdefault(owner[id(node)], []).extend(modules)
    assert deferred == {name: [module] for name, (module, _) in DEFERRED_IMPORTS.items()}


def test_only_the_process_entry_freezes_the_heap():
    """gc.freeze is called once, in the CLI's process entry, and no module
    disables, unfreezes, tunes or runs the collector: a library user's
    collector is never touched."""
    calls, imported = {}, []
    for path in sorted((ROOT / "src" / "fockops").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}  # node -> the innermost function around it (ast.walk goes outside in)
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                owner.update((node, f"{path.stem}.{func.name}") for node in ast.walk(func))
            if isinstance(func, ast.ImportFrom) and func.module == "gc":
                imported.append(path.name)
        for call in ast.walk(tree):
            if (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                    and getattr(call.func.value, "id", None) == "gc"):
                calls.setdefault(call.func.attr, []).append(owner.get(call, path.stem))
    assert not imported
    assert calls.pop("freeze") == ["cli.main"]
    assert not {"disable", "unfreeze", "set_threshold", "collect"} & calls.keys()


def test_only_the_report_module_builds_a_check():
    """Every check comes from a constructor in report.py, so none can state
    its own pass rule."""
    builders = []
    for path in sorted((ROOT / "src" / "fockops").glob("*.py")):
        if path.name == "report.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and "CheckResult" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                builders.append(f"{path.name}:{node.lineno}")
    assert not builders


def test_only_exp_rows_raises_a_range_overflow():
    """One guarded exponential decides when a batch leaves the float range:
    RangeOverflowError is built only in errors.py and in symbolic.exp_rows,
    and no evaluator hands a callback (``lambda ok``) the rows left in range."""
    found = []
    for path in sorted((ROOT / "src" / "fockops").glob("*.py")):
        if path.name == "errors.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        guard = {id(node) for function in ast.walk(tree)
                 if isinstance(function, ast.FunctionDef) and function.name == "exp_rows"
                 and path.name == "symbolic.py" for node in ast.walk(function)}
        for node in ast.walk(tree):
            builds = (isinstance(node, ast.Call) and id(node) not in guard
                      and "RangeOverflowError" in ast.unparse(node.func).split("."))
            callback = isinstance(node, ast.Lambda) and [a.arg for a in node.args.args] == ["ok"]
            if builds or callback:
                found.append(f"{path.name}:{node.lineno}")
    assert not found


POINT_FUNCTIONS = {
    "kernels.py": {"measure_density", "kernel", "eval_functional_norm"},
    "transforms.py": {"multiplier", "_quadrature", "segal_bargmann", "coherent_state"},
}


def test_only_pointwise_lifts_a_point_to_a_batch():
    """symbolic.pointwise is the one place a point becomes its one-row batch:
    no other module tests for a 1-D point or takes row 0 of a lifted one, and
    the point functions are the ones it decorates.  symbolic.py is exempt,
    since Horner and composition read ``c.ndim == 1`` of coefficient arrays."""
    found = []
    for path in sorted((ROOT / "src" / "fockops").glob("*.py")):
        if path.name == "symbolic.py":
            continue
        text = path.read_text(encoding="utf-8")
        found += [f"{path.name}:{lineno}" for lineno, line in enumerate(text.splitlines(), 1)
                  if "ndim == 1" in line or "[None])[0]" in line]
        decorated = {node.name for node in ast.walk(ast.parse(text))
                     if isinstance(node, ast.FunctionDef)
                     and any(ast.unparse(d) == "pointwise" for d in node.decorator_list)}
        assert decorated == POINT_FUNCTIONS.get(path.name, set()), path.name
    assert not found


def test_only_the_completed_square_inverts_a_gaussians_form():
    """symbolic.complete_square is the one place a Gaussian's quadratic form is
    solved or inverted: no np.linalg.solve or np.linalg.inv call appears
    anywhere else in symbolic.py or transforms.py, so the centres of a
    Gaussian integral, a convolution and the kernel's density integral are
    one formula."""
    found = []
    for stem in ("symbolic", "transforms"):
        tree = ast.parse((ROOT / "src" / "fockops" / f"{stem}.py").read_text(encoding="utf-8"))
        # ast.walk meets an outer function before an inner one: a call maps to its innermost
        owner = {id(node): f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
                 for node in ast.walk(f)}
        found += [f"{stem}.{owner.get(id(node), '<module>')}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and ast.unparse(node.func).endswith(("linalg.solve", "linalg.inv"))]
    assert found == ["symbolic.complete_square"]


def _functions():
    """(module stem, definition) of every function and method in the package."""
    for path in sorted((ROOT / "src" / "fockops").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                yield path.stem, node


def _calls(function) -> set:
    """The names a function calls, bare or as an attribute."""
    return {ast.unparse(node.func).split(".")[-1] for node in ast.walk(function)
            if isinstance(node, ast.Call)}


def test_every_point_function_runs_the_shared_batch_check():
    """Each function ``pointwise`` decorates calls symbolic.require_rows, or a
    function that does (an evaluator, another point function), so a batch
    of another shape never reaches its arithmetic."""
    functions = list(_functions())
    checking = {"require_rows"}
    while grown := {f.name for _, f in functions if _calls(f) & checking} - checking:
        checking |= grown
    unchecked = [f"{stem}.{f.name}" for stem, f in functions
                 if any(ast.unparse(d) == "pointwise" for d in f.decorator_list)
                 and not _calls(f) & checking]
    assert not unchecked


# the dimension contracts outside symbolic.py that are no point's or vector's
# shape: a weight's matrix, its blocks, a rule's dimension, an integrand's values
OTHER_DIMENSION_CONTRACTS = {"operators.__post_init__", "operators.from_blocks",
                             "kernels.fock_gram", "quadrature._values"}


def test_only_symbolic_checks_the_shape_of_a_point_or_a_vector():
    """symbolic.require_rows and symbolic.as_vector are the one check of a
    point's, a batch's or a vector's shape: no other module builds a
    DimensionMismatchError but for the other contracts."""
    builders = {f"{stem}.{f.name}" for stem, f in _functions() if stem != "symbolic"
                and "DimensionMismatchError" in _calls(f)}
    assert builders == OTHER_DIMENSION_CONTRACTS


def test_only_the_chunk_loop_reduces_a_tensor_grid():
    """quadrature.grid_sums is the one tensor-grid reduction and the only
    function in the package that builds grid nodes, a chunk at a time from the
    shape's cached unit grid; the blocked sums it is built on are taken only
    by its pass over one chunk, _chunk_sums, which nothing else calls, by the
    whole-array _block_sum, and through that by mc_integrate, which draws its
    samples in one call."""
    callers = {}
    for path in sorted((ROOT / "src" / "fockops").glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(func, ast.FunctionDef):
                continue
            for call in ast.walk(func):
                if isinstance(call, ast.Call):
                    name = getattr(call.func, "attr", getattr(call.func, "id", None))
                    callers.setdefault(name, set()).add(f"{path.stem}.{func.name}")
    assert callers["_block_sums"] == {"quadrature._block_sum", "quadrature._chunk_sums"}
    assert callers["_chunk_sums"] == {"quadrature.grid_sums"}
    assert callers["_block_sum"] == {"quadrature.mc_integrate"}
    assert callers["grid"] == {"quadrature.grid_sums"}
    assert callers["_unit_grid"] == {"quadrature.grid"}
    assert callers["grid_sums"] == {"quadrature.integrate", "quadrature.integrate_shifted",
                                    "kernels.fock_gram"}


def test_the_quadrature_route_takes_no_exponential_per_node():
    """transforms._quadrature hands each row's oscillating factor to the rule
    as a phase vector, whose tensor product takes n k exponentials; a call of
    an exponential or a sine in the row loop would take one per grid node.
    The envelope's one exp_rows per batch runs outside the loop."""
    tree = ast.parse((ROOT / "src" / "fockops" / "transforms.py").read_text(encoding="utf-8"))
    (function,) = [node for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef) and node.name == "_quadrature"]
    (loop,) = [node for node in ast.walk(function)
               if isinstance(node, (ast.For, ast.ListComp, ast.GeneratorExp))]
    calls = [node for node in ast.walk(loop) if isinstance(node, ast.Call)]
    (shifted,) = [call for call in calls if ast.unparse(call.func) == "integrate_shifted"]
    assert len(shifted.args) == 4 and not shifted.keywords
    assert ast.unparse(shifted.args[2]) == "field.evaluate_many"
    assert ast.unparse(shifted.args[3]) == "G @ w.imag"
    assert not {name for name in map(ast.unparse, (call.func for call in calls))
                if name.rsplit(".", 1)[-1] in {"exp", "expm1", "exp_rows", "cos", "sin"}}
    assert [ast.unparse(node.func) for node in ast.walk(function) if isinstance(node, ast.Call)
            ].count("exp_rows") == 1


def test_composition_runs_one_axis_at_a_time():
    """symbolic._compose takes every line of an axis in one batched product:
    it neither calls itself, slab by slab, nor _mul, once per line and power."""
    tree = ast.parse((ROOT / "src" / "fockops" / "symbolic.py").read_text(encoding="utf-8"))
    (function,) = [node for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef) and node.name == "_compose"]
    calls = {ast.unparse(node.func) for node in ast.walk(function) if isinstance(node, ast.Call)}
    assert "_times_form" in calls
    assert not calls & {"_compose", "_mul"}


def _stores(target, value):
    """The (target, value) pairs of an assignment, tuples taken apart; a value
    that cannot be matched to its target is None."""
    if isinstance(target, (ast.Tuple, ast.List)):
        values = value.elts if isinstance(value, ast.Tuple) and len(value.elts) == len(
            target.elts) else [None] * len(target.elts)
        for t, v in zip(target.elts, values):
            yield from _stores(t, v)
    else:
        yield target, value


def test_only_from_coeffs_stores_a_coefficient_array():
    """Polynomial.from_coeffs is the one place a coefficient array is stored,
    so every zero in one is +0: no other code in the package assigns or sets
    ``coeffs``, and Polynomial.__init__ only copies the ``coeffs`` of a
    from_coeffs result."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "fockops").glob("*.py"))}
    (polynomial,) = [node for node in trees["symbolic.py"].body
                     if isinstance(node, ast.ClassDef) and node.name == "Polynomial"]
    methods = {f.name: f for f in polynomial.body if isinstance(f, ast.FunctionDef)}
    home, init = ({id(node) for node in ast.walk(methods[name])}
                  for name in ("from_coeffs", "__init__"))
    built = {f"{target.id}.coeffs" for node in ast.walk(methods["__init__"])
             if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
             and ast.unparse(node.value.func).endswith(".from_coeffs")
             for target in node.targets if isinstance(target, ast.Name)}
    found, homes = [], []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and "setattr" in ast.unparse(node.func) and any(
                    isinstance(arg, ast.Constant) and arg.value == "coeffs" for arg in node.args):
                found.append(f"{name}:{node.lineno}")
            if isinstance(node, ast.Assign):
                pairs = [pair for target in node.targets for pair in _stores(target, node.value)]
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                pairs = [(node.target, None)]
            else:
                continue
            for target, value in pairs:
                if isinstance(target, ast.Attribute) and target.attr == "coeffs":
                    if id(node) in home:
                        homes.append(f"{name}:{node.lineno}")
                    elif id(node) not in init or value is None or ast.unparse(value) not in built:
                        found.append(f"{name}:{node.lineno}")
    assert not found
    assert len(homes) == 1


@pytest.mark.parametrize("make", [
    lambda: fockops.RealLinearMap.identity(1),
    lambda: fockops.build_context(fockops.RealLinearMap.identity(1)),
    lambda: fockops.QuadratureRule(1, 5),
    lambda: fockops.ca_sequence(fockops.TruncationSpec.constant(1.0, 1.0, 3)),
    lambda: fockops.GaussPoly.constant(1, 1.0),
], ids=["RealLinearMap", "OperatorContext", "QuadratureRule", "CaSequence", "GaussPoly"])
def test_value_types_compare_by_identity(make):
    # the generated __eq__ compared array fields (ValueError: the truth value
    # of an array is ambiguous) and the generated __hash__ raised TypeError
    a, b = make(), make()
    assert a == a and a != b
    assert len({a, b, a}) == 2


def test_verify_config_fields_are_the_verify_config_keys():
    # cmd_verify passes the config keys to VerifyConfig as they are
    from dataclasses import fields

    from fockops.cli import CONFIG_SCHEMAS
    from fockops.verification import VerifyConfig

    keys = CONFIG_SCHEMAS["verify"]["properties"]
    assert sorted(field.name for field in fields(VerifyConfig)) == sorted(keys)


# fockops.__all__ as the package listed it when it imported every module
PUBLIC_NAMES = {
    "CaSequence", "CallableField", "ConfigError", "DimensionMismatchError", "DivergenceError",
    "EvaluatorError", "FockError", "GaussPoly", "HolomorphicFunction", "IllConditionedError",
    "NodeBudgetError", "NotPositiveDefiniteError", "NotSymmetricError", "OperatorContext",
    "OutputUnwritableError", "Polynomial", "QuadratureRule", "RangeOverflowError",
    "RealFormError", "RealLinearMap", "TruncationSpec", "UnsupportedFormError",
    "build_context", "ca_sequence", "classical_to_weighted", "coherent_inner", "coherent_state",
    "coherent_state_fn", "convolve_gaussian", "decompose", "density_s", "errors",
    "eval_functional_norm", "fock_gram", "fock_inner_product", "fock_norm", "fock_rule",
    "gaussian_integral", "ground_state", "heat_convolve", "heat_kernel", "hermite_function",
    "integrate", "integrate_gausspoly", "integrate_shifted", "inv_sqrt_spd", "kernel",
    "kernel_from_densities", "kernel_section", "kernels", "l2_inner_product", "mc_integrate",
    "measure_density", "multiplier", "normalized_monomial", "operators", "phase_factor",
    "quadrature", "require_spd", "restrict", "restrict_adjoint", "restriction_modulus",
    "sb_eigenfunction", "segal_bargmann", "segal_bargmann_classical_fn", "segal_bargmann_fn",
    "segal_bargmann_gaussian_fn", "sqrt_spd", "symbolic", "transforms", "translate",
    "truncation", "weighted_ground_state", "weighted_to_classical",
}


def _fresh(code: str, *argv: str) -> str:
    """stdout of ``code`` in a fresh interpreter that imports fockops from
    this checkout and writes no bytecode, as the benchmark runs it."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True)
    return done.stdout


# runs the CLI on argv, then prints the fockops modules it loaded
LOADED_BY_MAIN = """
import sys
import fockops.cli
fockops.cli.main(sys.argv[1:])
print(*sorted(name for name in sys.modules if name.startswith("fockops")))
"""


def _loaded_by(tmp_path, command: str, config: dict) -> set:
    """The fockops modules a fresh CLI process loads to run ``command``."""
    path = tmp_path / f"{command}.json"
    path.write_text(json.dumps(config))
    return set(_fresh(LOADED_BY_MAIN, command, "--config", str(path),
                      "--out", str(tmp_path / "report.json")).split())


# what any command loads: the package, the CLI, the error types and limits,
# and the report renderer
CLI_CORE = {"fockops", "fockops.cli", "fockops.errors", "fockops.report"}


def test_truncate_loads_only_the_modules_it_runs(tmp_path):
    loaded = _loaded_by(tmp_path, "truncate",
                        {"kind": "constant", "r": 2.0, "t": 1.0, "maxN": 10})
    assert loaded == CLI_CORE | {"fockops.truncation"}


def test_decompose_loads_only_the_modules_it_runs(tmp_path):
    loaded = _loaded_by(tmp_path, "decompose", {"operator": {"n": 1, "R": [[2.0]], "T": [[1.0]]}})
    assert loaded == CLI_CORE | {"fockops.operators"}


@pytest.mark.parametrize("target", ["kernel", "weighted_transform"])
def test_eval_leaves_the_verification_suite_unloaded(tmp_path, target):
    config = tmp_path / "eval.json"
    config.write_text(json.dumps({
        "operator": {"n": 1, "R": [[2.0]], "T": [[1.0]]},
        "eval": {"target": target, "points": [{"z": [0.1, 0.2], "w": [0.0, 0.3]}
                                              if target == "kernel" else {"z": [0.1, 0.2]}],
                 **({} if target == "kernel" else {"function": {"kind": "ground_state"}})},
    }))
    loaded = set(_fresh(LOADED_BY_MAIN, "eval", "--config", str(config),
                        "--out", str(tmp_path / "report.json")).split())
    assert "fockops.kernels" in loaded if target == "kernel" else "fockops.transforms" in loaded
    assert not {"fockops.verification", "fockops.testing", "fockops.truncation"} & loaded


def test_import_fockops_loads_only_the_error_types():
    loaded = _fresh("import sys, fockops\n"
                    "print(*sorted(m for m in sys.modules if m.startswith('fockops')))").split()
    assert loaded == ["fockops", "fockops.errors"]


def test_import_fockops_loads_no_numpy():
    """The shared limits in ``errors`` check integers by ``numbers.Integral``."""
    assert _fresh("import sys, fockops\nprint('numpy' in sys.modules)").strip() == "False"


def test_the_public_names_are_the_same_and_each_resolves():
    assert set(fockops.__all__) == PUBLIC_NAMES
    assert len(fockops.__all__) == len(PUBLIC_NAMES)
    assert PUBLIC_NAMES <= set(dir(fockops))
    resolves = ("import fockops\n"
                "print(all(hasattr(fockops, name) for name in fockops.__all__))")
    assert _fresh(resolves).split() == ["True"]
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        fockops.no_such_name  # noqa: B018


def test_submodules_resolve_as_attributes_of_a_bare_import():
    # perfbench/child.py reads fockops.verification and fockops.operators
    # after importing only fockops and fockops.cli
    code = ("import fockops, fockops.cli\n"
            "print(fockops.verification.VerifyConfig.__name__,"
            " fockops.operators.to_complex_coords.__name__, fockops.testing.__name__)")
    assert _fresh(code).split() == ["VerifyConfig", "to_complex_coords", "fockops.testing"]
