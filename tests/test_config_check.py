"""The in-tree config checker: the same decisions as JSON Schema 2020-12."""

import copy
import os
import subprocess
import sys

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockops.cli import CONFIG_SCHEMAS, _schema_error

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

STOCK = jsonschema.Draft202012Validator
# JSON Schema with the checker's integer rule: a JSON integer literal, so 10.0 is none
STRICT = jsonschema.validators.extend(
    STOCK,
    type_checker=STOCK.TYPE_CHECKER.redefine(
        "integer", lambda checker, value: isinstance(value, int) and not isinstance(value, bool)
    ),
)

# values of every JSON type, small and around the schemas' minimums
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 12),
    st.integers(-3, 12).map(float),
    st.floats(-5.0, 5.0),
    st.sampled_from(["", "kernel", "constant", "perturbation", "hermite", "x"]),
    st.lists(st.one_of(st.integers(-1, 2), st.floats(-1.0, 1.0), st.booleans()), max_size=2),
    st.just({}),
)
# keys a mutation adds: unknown ones and those of the other forms of a oneOf
EXTRA_KEYS = ["extra", "A", "R", "T", "kind", "r", "t", "maxN", "base", "function",
              "quadrature", "z"]


def fitting(schema: dict):
    """Values that satisfy ``schema`` (with integers as JSON integer literals)."""
    if "oneOf" in schema:
        return st.one_of([fitting(form) for form in schema["oneOf"]])
    if "enum" in schema:
        return st.sampled_from(schema["enum"])
    if "const" in schema:
        return st.just(schema["const"])
    kind = schema.get("type")
    if kind == "object":
        properties, required = schema.get("properties", {}), schema.get("required", [])
        return st.fixed_dictionaries(
            {key: fitting(properties[key]) for key in required},
            optional={key: fitting(sub) for key, sub in properties.items()
                      if key not in required},
        )
    if kind == "array":
        return st.lists(fitting(schema.get("items", {})),
                        min_size=schema.get("minItems", 0), max_size=3)
    if kind == "integer":
        low = schema.get("minimum", -3)
        return st.integers(low, low + 5)
    if kind == "number":
        return st.one_of(st.floats(-10.0, 10.0), st.integers(-5, 5))
    return JUNK


def paths(value, path=()):
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from paths(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from paths(item, path + (index,))


@st.composite
def configs(draw, schema: dict):
    """A config that fits ``schema``, or one with a single fault: a value of
    the wrong type, an integral float, a bool or a number below a minimum in
    place of a value, a key or an item left out or an unknown key added."""
    config = draw(fitting(schema))
    mutation = draw(st.sampled_from([None, "replace", "delete", "add"]))
    if mutation is None:
        return config
    config = copy.deepcopy(config)
    path = draw(st.sampled_from(list(paths(config))))
    if mutation == "replace":
        if not path:
            return draw(JUNK)
        parent = config
        for step in path[:-1]:
            parent = parent[step]
        parent[path[-1]] = draw(JUNK)
        return config
    target = config
    for step in path:
        target = target[step]
    if mutation == "delete" and isinstance(target, (dict, list)) and target:
        del target[draw(st.sampled_from(list(target) if isinstance(target, dict)
                                        else range(len(target))))]
    elif mutation == "add" and isinstance(target, dict):
        target[draw(st.sampled_from(EXTRA_KEYS))] = draw(JUNK)
    return config


def has_integral_float(value) -> bool:
    if isinstance(value, (dict, list)):
        return any(map(has_integral_float, value.values() if isinstance(value, dict) else value))
    return isinstance(value, float) and value.is_integer()


@pytest.mark.parametrize("command", sorted(CONFIG_SCHEMAS))
@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_checker_agrees_with_json_schema(command, data):
    schema = CONFIG_SCHEMAS[command]
    config = data.draw(configs(schema))
    accepted = _schema_error(config, schema) is None
    assert accepted == STRICT(schema).is_valid(config)
    if accepted != STOCK(schema).is_valid(config):  # only an integral float in an integer field
        assert has_integral_float(config) and not accepted


@pytest.mark.parametrize("value, valid", [(2.5, True), (3, False), ("x", False), (True, False)])
def test_one_of_needs_exactly_one_form(value, valid):
    # 3 fits both forms, "x" and true neither
    schema = {"oneOf": [{"type": "number"}, {"type": "integer"}]}
    assert STOCK(schema).is_valid(value) is valid
    assert (_schema_error(value, schema) is None) is valid


@pytest.mark.parametrize("command, config, path", [
    ("eval", {"operator": {"n": 1, "A": [[1.0]]}, "eval": {"target": "nope", "points": [{}]}},
     "config.eval.target"),
    ("decompose", {"operator": {"n": 1, "R": [[1.0]], "T": [[1.0, True]]}},
     "config.operator.T[0][1]"),
    ("truncate", {"kind": "constant", "r": 2.0, "t": 1.0, "maxN": 0}, "config.maxN"),
], ids=["enum", "oneOf-item", "oneOf-minimum"])
def test_errors_name_the_path_of_the_bad_value(command, config, path):
    assert _schema_error(config, CONFIG_SCHEMAS[command])[0] == path


def test_cli_import_leaves_jsonschema_out():
    code = ("import sys, fockops.cli; print(sorted(set(sys.modules) & "
            "{'jsonschema', 'referencing', 'attrs', 'rpds'}))")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.strip() == "[]"
