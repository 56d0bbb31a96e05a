"""Package hygiene: modules use each other's public names only, the CLI
names no benchmark, and one module holds the dense square solve."""

import ast
from pathlib import Path

from exactopinf.benchmarks import SPECS

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "exactopinf"


def _tree(name):
    return ast.parse((PACKAGE / name).read_text(), filename=name)


def test_no_private_cross_module_imports():
    private = [
        f"{path.name}:{node.lineno}: from {'.' * node.level}{node.module or ''} import {alias.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(_tree(path.name))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_cli_names_no_benchmark():
    names = [
        f"cli.py:{node.lineno}: {node.value!r}"
        for node in ast.walk(_tree("cli.py"))
        if isinstance(node, ast.Constant) and node.value in SPECS
    ]
    assert names == []


def _imported_modules(tree):
    """Absolute module names an import statement binds or reads from."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_only_exact_opinf_imports_scipy_linalg():
    # every dense square solve goes through exact_opinf.solve_square
    importers = sorted(
        {
            path.name
            for path in PACKAGE.glob("*.py")
            for module in _imported_modules(_tree(path.name))
            if module == "scipy.linalg" or module.startswith("scipy.linalg.")
        }
    )
    assert importers == ["exact_opinf.py"]
