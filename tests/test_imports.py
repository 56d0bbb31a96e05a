"""Package hygiene: modules use each other's public names only and read
every name they import, every public name is reached, the CLI names no
benchmark, maps exceptions to exit codes in ``main`` alone and chooses no
structure check, one function holds the dense square factorization, one
module takes an SVD, no bundled model and not the POD takes a matrix
product, the intrusive reference and the diagnostics take no BLAS product or
norm, ``tensor_poly`` alone defines ``norm`` and ``ordered_product``, the
shallow-ice model takes no power, one constant sizes every
block, no package
attribute shadows the submodule of its name, neither importing the
package, building the benchmarks nor an implicit step loads
``scipy.sparse``, and ``scipy.linalg`` is loaded by the implicit step's
band solve alone: not by the import, the builders, ``diagnose``, ``pod``,
an explicit ``experiment`` or ``infer``."""

import ast
import importlib
import os
import subprocess
import sys
import types
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


def _definitions(tree):
    """``(name, statement)`` of each top-level function, class and assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def _reads(nodes):
    """Names the nodes load, read as an attribute or import."""
    read = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return read


def test_every_public_name_is_reached():
    # a public name is read by cli.py, a demo, another module, or its own
    # module outside its definition; __init__'s re-exports reach nothing.
    # Kept unreached: the writer halves of formats the CLI reads, and the
    # builders, which benchmarks.build finds by name
    kept = {"serialize.py": {"write_snapshots", "write_ensemble"}}
    modules = {
        path.name: _tree(path.name)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    demos = [
        ast.parse(path.read_text(), filename=path.name)
        for path in sorted((PACKAGE.parents[1] / "demos").glob("*.py"))
    ]
    assert demos
    unreached = []
    for name, tree in modules.items():
        elsewhere = _reads([other for key, other in modules.items() if key != name] + demos)
        for public, definition in _definitions(tree):
            if public.startswith("_") or public in kept.get(name, ()):
                continue
            if name == "benchmarks.py" and public.startswith("build_"):
                continue
            if public not in elsewhere | _reads(n for n in tree.body if n is not definition):
                unreached.append(f"{name}: {public}")
    assert unreached == []


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


def test_one_block_size():
    # tensor_poly.PRODUCT_BLOCK_ENTRIES is the one module-level block size, and
    # every blocked loop reads it: galerkin's stacks, the lift's pair blocks,
    # which the ensemble steps and projects, compress_states' rows and the
    # trajectory's steps, which take no block size of their own
    sizes = sorted(
        f"{path.stem}.{name}"
        for path in PACKAGE.glob("*.py")
        for name, node in _definitions(_tree(path.name))
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        and any(word in name.upper() for word in ("BLOCK", "CHUNK", "BATCH", "ENTRIES", "COLUMNS", "ROWS"))
    )
    assert sizes == ["tensor_poly.PRODUCT_BLOCK_ENTRIES"]
    readers = {
        "galerkin.py": "intrusive_reduce",
        "exact_opinf.py": "_lift",
        "tensor_poly.py": "compress_states",
        "fom.py": "simulate",
    }
    for module, function in readers.items():
        body = next(definition for name, definition in _definitions(_tree(module)) if name == function)
        assert "PRODUCT_BLOCK_ENTRIES" in _reads([body]), f"{module}: {function}"
    # nor does simulate take a block size as a parameter
    simulate = next(definition for name, definition in _definitions(_tree("fom.py")) if name == "simulate")
    assert [a.arg for a in simulate.args.args + simulate.args.kwonlyargs] == ["fom", "x0", "signal", "dt", "K", "scheme"]


def test_only_fom_imports_scipy_linalg():
    # every square solve is exact_opinf's own numpy LU; fom takes the banded
    # Newton solve, and nothing else, from scipy.linalg: LAPACK's dgtsv for a
    # tridiagonal band and solve_banded for any other, inside the function
    # that solves, which the walk finds as it finds a module-level import
    importers = {}
    for path in sorted(PACKAGE.glob("*.py")):
        modules = sorted(
            module
            for module in _imported_modules(_tree(path.name))
            if module == "scipy.linalg" or module.startswith("scipy.linalg.")
        )
        if modules:
            importers[path.name] = modules
    assert importers == {
        "fom.py": [
            "scipy.linalg",
            "scipy.linalg.lapack",
            "scipy.linalg.lapack.dgtsv",
            "scipy.linalg.solve_banded",
        ]
    }


def _named(tree, names):
    """Line numbers of the names, attributes and imports among ``names``."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr in names)
        or (isinstance(node, ast.Name) and node.id in names)
        or (isinstance(node, ast.alias) and node.name in names)
    ]


def test_one_dense_square_factorization():
    # exact_opinf._factor_square's LU is the one dense square factorization:
    # no module solves, inverts or factors a matrix by a library routine
    names = {"lu_factor", "lu_solve", "solve", "inv", "pinv", "cholesky", "cho_factor"}
    found = sorted(
        f"{path.name}:{line}"
        for path in PACKAGE.glob("*.py")
        for line in _named(_tree(path.name), names)
    )
    assert found == []
    factorizations = [
        f"{path.name}:{node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(_tree(path.name))
        if isinstance(node, ast.FunctionDef) and "factor" in node.name
    ]
    assert factorizations == ["exact_opinf.py:_factor_square"]


def _products(tree, names):
    """Line numbers of ``@`` and of the names among ``names``."""
    return sorted(
        _named(tree, names)
        + [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
        ]
    )


def test_bundled_models_take_no_matrix_product():
    # every bundled model is a stencil on its state: no N x N operator, and
    # no BLAS product to decide the bits of a step
    assert _products(_tree("benchmarks.py"), {"dot", "matmul", "einsum"}) == []


def test_shallow_ice_takes_no_power():
    # the ice model's powers are products in one fixed order, so its bits do
    # not depend on which pow loop numpy dispatches; Chafee-Infante's x**3
    # is the package's last power of a state
    builder = next(
        node
        for node in _tree("benchmarks.py").body
        if isinstance(node, ast.FunctionDef) and node.name == "build_shallow_ice"
    )
    powers = [
        f"benchmarks.py:{node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(builder)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow)
    ]
    assert powers == []


def test_pod_takes_no_blas_product():
    # the POD's sums are np.einsum without optimize, fixed-order and
    # BLAS-free, so its bits depend on neither the BLAS nor its threads
    tree = _tree("pod.py")
    optimized = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and any(kw.arg == "optimize" for kw in node.keywords)
    ]
    assert _products(tree, {"dot", "matmul"}) + optimized == []


def test_reference_and_diagnostics_take_no_blas_product_or_norm():
    # the intrusive reference projects by tensor_poly.ordered_product and the
    # diagnostics take tensor_poly.norm, fixed-order sums, so no experiment CSV
    # depends on the BLAS or its threads
    for name in ("galerkin.py", "diagnostics.py"):
        tree = _tree(name)
        norms = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "norm"
        ]
        linalg = [module for module in _imported_modules(tree) if module.startswith("numpy.linalg")]
        assert _products(tree, {"dot", "matmul"}) + norms + linalg == [], name


def test_one_norm_and_one_ordered_product():
    # tensor_poly owns how the package sums: no other module defines, or
    # binds a variable to, a norm or an ordered product of its own
    names = {"norm", "ordered_product"}
    defined = sorted(
        f"{path.name}:{node.name if isinstance(node, ast.FunctionDef) else node.id}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(_tree(path.name))
        if (isinstance(node, ast.FunctionDef) and node.name in names)
        or (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and node.id in names)
    )
    assert defined == ["tensor_poly.py:norm", "tensor_poly.py:ordered_product"]


def test_only_pod_calls_an_svd():
    # the POD basis is the one SVD; infer's cond_P comes from its LU and the
    # baseline's rank from its own lstsq
    svd_names = {"svd", "svdvals", "svds"}
    found = sorted(
        f"{path.name}:{line}"
        for path in PACKAGE.glob("*.py")
        for line in _named(_tree(path.name), svd_names)
    )
    assert [name for name in found if not name.startswith("pod.py:")] == []
    assert found


def test_import_does_not_load_sparse_linalg(tmp_path):
    # Jacobians are bands solved by scipy.linalg, and the condition-number
    # estimate needs no scipy.sparse.linalg solver: no part of scipy.sparse
    # is loaded by the package, the three builders or an implicit ice step.
    # scipy.linalg itself is loaded by the band solve alone: not by the
    # import, the builders, diagnose, pod, an explicit experiment or infer
    code = "\n".join(
        [
            "import sys, numpy as np, exactopinf, exactopinf.cli",
            "from pathlib import Path",
            "from exactopinf import AggregatedOperator, MonomialBasis, SnapshotMatrix",
            "from exactopinf.benchmarks import SHALLOW_ICE, SPECS, build",
            "from exactopinf.fom import implicit_euler_step",
            "from exactopinf.serialize import write_operator, write_snapshots, write_table",
            "d, rng = Path(sys.argv[1]), np.random.default_rng(0)",
            "models = {name: build(spec) for name, spec in SPECS.items()}",
            "basis = MonomialBasis(n=2, degree_set=(1, 2), n_u=0)",
            "write_operator(AggregatedOperator(basis, rng.standard_normal((2, 5))), d / 'op.csv')",
            "assert exactopinf.cli.main(['diagnose', str(d / 'op.csv')]) == 0",
            "snaps = SnapshotMatrix(rng.standard_normal((4, 3)), np.arange(3.0), np.zeros((0, 3)))",
            "write_snapshots(snaps, d / 'snaps.csv')",
            "pod = ['pod', str(d / 'snaps.csv'), '--n', '2', '--out-basis', str(d / 'basis.csv'),",
            "       '--out-singular-values', str(d / 'sv.csv')]",
            "assert exactopinf.cli.main(pod) == 0",
            "assert 'scipy.linalg' not in sys.modules",
            "out = ['--out', str(d / 'burgers')]",
            "assert exactopinf.cli.main(['experiment', 'burgers', '--n-max', '3', *out]) == 0",
            "assert 'scipy.linalg' not in sys.modules",
            "V = np.linalg.qr(rng.standard_normal((SPECS['chafee_infante'].N, 3)))[0]",
            "write_table(d / 'V.csv', 'basis', ['mode_1', 'mode_2', 'mode_3'], V)",
            "infer = ['infer', '--benchmark', 'chafee-infante', '--basis', str(d / 'V.csv'),",
            "         '--dt', '1e-4', '--out', str(d / 'ci.csv')]",
            "assert exactopinf.cli.main(infer) == 0",
            "assert 'scipy.linalg' not in sys.modules",
            "fom, _, x0 = models['shallow_ice']",
            "y = implicit_euler_step(fom, x0, None, SHALLOW_ICE.dt_pod)",
            "assert not np.array_equal(y, x0)",
            "assert 'scipy.linalg' in sys.modules",
            "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))",
        ]
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    result = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert result.stdout.strip().splitlines()[-1] == "[]"


def test_submodules_are_not_shadowed():
    # a name re-exported under its module's name would replace the module
    # as the package attribute that ``import exactopinf.<name> as m`` binds
    import exactopinf
    import exactopinf.exact_opinf as m

    assert isinstance(m, types.ModuleType)
    names = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")
    for name in names:
        importlib.import_module(f"exactopinf.{name}")
    shadowed = [n for n in names if not isinstance(getattr(exactopinf, n), types.ModuleType)]
    assert shadowed == []
