"""Package-wide checks."""

import ast
import importlib
import importlib.util
import pathlib
import inspect
import pkgutil

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
