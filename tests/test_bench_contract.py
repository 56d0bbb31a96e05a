"""The benchmark harness in ``bench/`` still runs against the package.

``bench/`` calls the package by name: the CLI through ``bench/launch.py``,
and ``pod_basis``, ``PodBasis(V=..., singular_values=...)``, ``.matrix``,
``estimate_dt`` and ``write_basis`` in the set-up of its one-shot workload.
A rename in ``src/`` that breaks one of them fails here, not only in a
benchmark run.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def test_launch_runs_experiment_and_captures_references(tmp_path):
    # no bytecode is written into bench/
    capture = tmp_path / "OUT.json"
    argv = ["experiment", "burgers", "--n-max", "2", "--out", str(tmp_path / "r")]
    result = subprocess.run(
        [sys.executable, str(BENCH / "launch.py"), str(capture), "plain", *argv],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    payload = json.loads(capture.read_text())
    assert [ref["n"] for ref in payload["references"]] == [1, 2]
    assert payload["hook_errors"] == []


def test_oneshot_prepare_writes_its_inputs(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # run.py imports tracer from there
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # nothing written in bench/
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    oneshot = run.OneShot()
    oneshot.prepare(tmp_path, 0)
    assert oneshot.basis_csv.is_file() and oneshot.ref_csv.is_file()
    assert oneshot.dt > 0
    assert oneshot.ref_norms["n"] == run.ONESHOT_N
