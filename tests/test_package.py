"""Package-wide checks."""

import importlib
import importlib.util
import pathlib
import pkgutil

import numpy as np
import pytest

import fockops

MODULES = ["fockops"] + [
    f"fockops.{info.name}" for info in pkgutil.iter_modules(fockops.__path__)
]


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
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
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
