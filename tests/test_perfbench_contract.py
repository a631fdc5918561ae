"""The benchmark's span tracer wraps `deup` names by string; each must exist."""

import ast
import importlib
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
