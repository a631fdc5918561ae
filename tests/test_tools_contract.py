"""tools/microbench.py loads each source tree it times as a package, `pkg` (or
`pkgs[side]`), and reads or patches names on its modules as
`pkg.<module>.<name>`; each such name must exist on this tree's
`deup.<module>`, or the tool breaks only when it is run."""

import ast
import importlib
from pathlib import Path

import pytest

MICROBENCH = Path(__file__).resolve().parents[1] / "tools" / "microbench.py"


def module_names():
    """Every (module, name) of a `pkg.<module>.<name>` or `pkgs[...].<module>.<name>`
    in tools/microbench.py, read from its source without importing it."""
    found = set()
    for node in ast.walk(ast.parse(MICROBENCH.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute):
            owner = node.value
            package = owner.value.value if isinstance(owner.value, ast.Subscript) else owner.value
            if isinstance(package, ast.Name) and package.id in ("pkg", "pkgs"):
                found.add((owner.attr, node.attr))
    return sorted(found)


def test_the_tool_names_what_it_patches_through_pkg():
    """A tool that stopped writing `pkg.<module>.<name>` would slip past the check below."""
    names = set(module_names())
    for expected in [
        ("models", "_log_marginal_likelihood"),
        ("models", "_SearchKernel"),
        ("models", "loss_and_gradients"),
        ("acquisition", "SCORE_BLOCK"),
        ("acquisition", "score_candidates"),
    ]:
        assert expected in names, expected


@pytest.mark.parametrize("module, name", module_names(), ids=lambda v: v)
def test_microbench_name_exists(module, name):
    assert hasattr(importlib.import_module(f"deup.{module}"), name), f"deup.{module} has no {name}"
