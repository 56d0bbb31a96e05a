"""Package hygiene: modules use each other's public names only and read
every name they import, the CLI names no benchmark, maps exceptions to
exit codes in ``main`` alone and chooses no structure check, one module
holds the dense square solve, one module takes an SVD, and neither
importing the package, building the benchmarks nor an implicit step loads
``scipy.sparse``."""

import ast
import os
import subprocess
import sys
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


def test_no_unused_imports():
    # __init__ imports to re-export; every other module must read each name
    # it imports
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = _tree(path.name)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.name}:{node.lineno}: {alias.asname or alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
            if (alias.asname or alias.name).split(".")[0] not in read
        ]
    assert unused == []


def test_cli_names_no_benchmark():
    names = [
        f"cli.py:{node.lineno}: {node.value!r}"
        for node in ast.walk(_tree("cli.py"))
        if isinstance(node, ast.Constant) and node.value in SPECS
    ]
    assert names == []


def test_exit_codes_decided_in_main_alone():
    # the subcommands raise; main maps each exception to its exit code
    tree = _tree("cli.py")
    main = next(
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "main"
    )
    in_main = {id(node) for node in ast.walk(main)}
    definitions = {
        id(target)
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
    }
    stray = [
        f"cli.py:{node.lineno}: {node.id}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Name)
        and node.id in ("EXIT_SCHEMA", "EXIT_RANK")
        and id(node) not in in_main | definitions
    ]
    assert stray == []



def test_structure_checks_chosen_outside_cli():
    # diagnostics.structure_metrics alone decides which structure metrics a
    # layout gets; the CLI tests no degree set for membership
    tests = [
        f"cli.py:{node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(_tree("cli.py"))
        if isinstance(node, ast.Compare)
        and any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops)
        and any(
            isinstance(side, ast.Attribute) and side.attr == "degree_set"
            for side in node.comparators
        )
    ]
    assert tests == []

def _imported_modules(tree):
    """Absolute module names an import statement binds or reads from."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_only_exact_opinf_imports_scipy_linalg():
    # every dense square solve goes through exact_opinf.solve_square; fom
    # takes the banded Newton solve, and nothing else, from scipy.linalg
    importers = {}
    for path in sorted(PACKAGE.glob("*.py")):
        modules = sorted(
            module
            for module in _imported_modules(_tree(path.name))
            if module == "scipy.linalg" or module.startswith("scipy.linalg.")
        )
        if modules:
            importers[path.name] = modules
    assert sorted(importers) == ["exact_opinf.py", "fom.py"]
    assert importers["fom.py"] == ["scipy.linalg", "scipy.linalg.solve_banded"]


def test_only_pod_calls_an_svd():
    # the POD basis is the one SVD; infer's cond_P comes from its LU and the
    # baseline's rank from its own lstsq
    svd_names = {"svd", "svdvals", "svds"}
    found = sorted(
        f"{path.name}:{node.lineno}"
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(_tree(path.name))
        if (isinstance(node, ast.Attribute) and node.attr in svd_names)
        or (isinstance(node, ast.Name) and node.id in svd_names)
        or (isinstance(node, ast.alias) and node.name in svd_names)
    )
    assert [name for name in found if not name.startswith("pod.py:")] == []
    assert found


def test_import_does_not_load_sparse_linalg():
    # Jacobians are bands solved by scipy.linalg, and the condition-number
    # estimate needs no scipy.sparse.linalg solver: no part of scipy.sparse
    # is loaded by the package, the three builders or an implicit ice step
    code = "\n".join(
        [
            "import sys, numpy as np, exactopinf, exactopinf.cli",
            "from exactopinf.benchmarks import SHALLOW_ICE, SPECS, build",
            "from exactopinf.fom import implicit_euler_step",
            "models = {name: build(spec) for name, spec in SPECS.items()}",
            "fom, _, x0 = models['shallow_ice']",
            "y = implicit_euler_step(fom, x0, None, SHALLOW_ICE.dt_pod)",
            "assert not np.array_equal(y, x0)",
            "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))",
        ]
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.strip() == "[]"
