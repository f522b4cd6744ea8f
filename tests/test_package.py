"""Package-wide checks."""

import importlib
import pkgutil

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
