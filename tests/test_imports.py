"""The `deup` module graph stays acyclic with every import at module top, and the
package itself imports nothing."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "deup"
MODULES = sorted(SRC.glob("*.py"))


def imports(tree):
    return [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    functions = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    inner = [f"{path.name}:{node.lineno}" for f in functions for node in imports(f)]
    assert inner == []


def test_benchmarks_imports_no_deup_module():
    tree = ast.parse((SRC / "benchmarks.py").read_text(encoding="utf-8"))
    modules = [alias.name for node in imports(tree) if isinstance(node, ast.Import) for alias in node.names]
    modules += ["." * node.level + (node.module or "") for node in imports(tree) if isinstance(node, ast.ImportFrom)]
    assert [m for m in modules if m.startswith(".") or m.split(".")[0] == "deup"] == []


def loaded_modules(module: str, prefix: str) -> list:
    """The modules under `prefix` that a fresh interpreter holds after `import module`."""
    probe = f"import sys, {module}; print(' '.join(sorted(m for m in sys.modules if m.startswith({prefix!r}))))"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    return subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True).stdout.split()


def test_a_module_loads_only_its_own_imports():
    # The package holds no import, so importing one module loads no sibling it does not import.
    package = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    assert imports(package) == []
    assert loaded_modules("deup.benchmarks", "deup") == ["deup", "deup.benchmarks"]


def test_cli_loads_no_scipy_stats():
    # Every `deup` command imports deup.cli; scipy.stats alone took most of that import's time.
    assert loaded_modules("deup.cli", "scipy.stats") == []
