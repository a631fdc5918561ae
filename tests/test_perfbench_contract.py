"""The benchmark's span tracer wraps `deup` names by string; each must exist and,
where the tracer counts rows as `len(args[i])`, take its batch at position i."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_targets():
    """`TARGETS` of perfbench/tracer.py, read from its source without importing it."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


@pytest.mark.parametrize("target", tracer_targets(), ids=lambda target: target[0])
def test_tracer_target_resolves(target):
    span, module_name, attr, _ = target
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(module, cls_name)), f"{span}: {attr} is not defined on its class"
    else:
        assert callable(getattr(module, attr, None)), f"{span}: {module_name}.{attr} is missing"


def target_function(module_name, attr):
    """The plain function the tracer wraps: a method as its class defines it, so
    `self` counts as position 0, as it does in the tracer's `args`."""
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        return vars(getattr(module, cls_name))[meth]
    return getattr(module, attr)


@pytest.mark.parametrize(
    "target", [t for t in tracer_targets() if t[3] is not None], ids=lambda target: target[0]
)
def test_tracer_row_argument_is_the_batch(target):
    span, module_name, attr, index = target
    params = list(inspect.signature(target_function(module_name, attr)).parameters)
    expected = "d" if attr == "gp_fit" else "X"
    assert params[index] == expected, f"{span}: argument {index} of {attr} is {params[index]!r}, not {expected!r}"
