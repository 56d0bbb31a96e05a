"""Package hygiene: modules use each other's public names only, and the CLI
names no benchmark."""

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
