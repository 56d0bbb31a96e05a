"""Results do not depend on the BLAS thread count: a nested sweep, a single
wide ensemble with its inference, and the shallow-ice ensemble at ``n = 7``
with its inference, each on a fixed orthonormal basis, give bitwise the same
data, operators and ``cond_P`` under one and two OpenBLAS threads, and so do
the POD bases of the three bundled trajectories and every CSV that
``experiment`` writes for the three bundled systems.

All of it runs in one child process per thread count."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# Each section prints its name and one hash per array; then the three
# experiments write their CSVs under the directory given as argv[1].
CHILD = """
import contextlib
import hashlib
import io
import sys
import numpy as np
from exactopinf.benchmarks import BURGERS, CHAFEE_INFANTE, SHALLOW_ICE, SPECS, build
from exactopinf.cli import main
from exactopinf.exact_opinf import generate_ensemble, infer, sweep
from exactopinf.fom import simulate
from exactopinf.pod import pod_basis


def qr(spec, n):
    return np.linalg.qr(np.random.default_rng(7).standard_normal((spec.N, n)))[0]


def ensemble_and_inference(name, spec, n, dt):
    ensemble = generate_ensemble(build(spec)[0], qr(spec, n), dt, spec.state_scale)
    result = infer(ensemble)
    data = (ensemble.derivatives.tobytes(), result.operator.matrix.tobytes(), repr(result.cond_P).encode())
    print(name, *(hashlib.sha256(d).hexdigest() for d in data))


# nested sweeps n = 1..8 on the QR of a seeded Gaussian: one hash of every
# operator and cond_P
digest = hashlib.sha256()
for spec, dt in ((BURGERS, 0.1), (CHAFEE_INFANTE, 2e-4)):
    for _, result in sweep(build(spec)[0], qr(spec, 8), dt, spec.state_scale):
        digest.update(result.operator.matrix.tobytes())
        digest.update(repr(result.cond_P).encode())
print("sweep", digest.hexdigest())

# Chafee-Infante at n = 24 (2925 pairs), then shallow ice at n = 7 (3087
# pairs, degrees {3, 8}): the projected derivatives, the operator and cond_P
ensemble_and_inference("wide", CHAFEE_INFANTE, 24, 2e-4)
ensemble_and_inference("ice", SHALLOW_ICE, 7, 1e10)

# the three bundled trajectories and their POD bases at each sweep's width:
# per system the states, the modes and the singular values
hashes = []
for spec in SPECS.values():
    fom, signal, x0 = build(spec)
    snaps = simulate(fom, x0, signal, spec.dt_pod, spec.K_pod, scheme=spec.scheme)
    basis = pod_basis(snaps, spec.n_max)
    hashes += [hashlib.sha256(d.tobytes()).hexdigest() for d in (snaps.states, basis.V, basis.singular_values)]
print("pod", *hashes)

for name in ("burgers", "chafee-infante", "shallow-ice"):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["experiment", name, "--out", f"{sys.argv[1]}/{name}"])
    print("experiment", name, code)
"""


two_cores = pytest.mark.skipif(
    (os.cpu_count() or 1) < 2, reason="needs two cores for two BLAS threads"
)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Per thread count: each section's printed words, by section name, and
    the experiments' output directory."""
    runs = {}
    for threads in (1, 2):
        out = tmp_path_factory.mktemp(f"threads{threads}")
        env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=str(threads))
        result = subprocess.run(
            [sys.executable, "-c", CHILD, str(out)], capture_output=True, text=True, env=env, check=True
        )
        sections = {}
        for line in result.stdout.splitlines():
            name, *words = line.split()
            sections.setdefault(name, []).extend(words)
        runs[threads] = sections, out
    return runs


def _section(runs, name):
    one, two = (runs[threads][0][name] for threads in (1, 2))
    assert one
    return one, two


@two_cores
def test_nested_sweep_bitwise_equal_under_one_and_two_blas_threads(runs):
    one, two = _section(runs, "sweep")
    assert one == two


@two_cores
def test_wide_ensemble_and_inference_bitwise_equal_under_one_and_two_blas_threads(runs):
    # derivatives, operator and cond_P, in that order
    one, two = _section(runs, "wide")
    assert one == two


@two_cores
def test_ice_ensemble_bitwise_equal_under_one_and_two_blas_threads(runs):
    # derivatives, operator and cond_P, in that order
    one, two = _section(runs, "ice")
    assert one == two


@two_cores
def test_pod_bitwise_equal_under_one_and_two_blas_threads(runs):
    # per system: trajectory states, modes and singular values, in that order
    one, two = _section(runs, "pod")
    assert one == two


@two_cores
def test_experiment_csvs_bytewise_equal_under_one_and_two_blas_threads(runs):
    # every run exits 0, and every CSV of the three experiments is the same
    # bytes under one and two threads
    one, two = _section(runs, "experiment")
    assert one == two == ["burgers", "0", "chafee-infante", "0", "shallow-ice", "0"]
    tables = {
        threads: {
            path.relative_to(out).as_posix(): path.read_bytes()
            for path in sorted(out.rglob("*.csv"))
        }
        for threads, (_, out) in runs.items()
    }
    assert len(tables[1]) == 12  # 3 + 3 + 6 tables
    assert tables[1].keys() == tables[2].keys()
    differing = [name for name in tables[1] if tables[1][name] != tables[2][name]]
    assert differing == []
