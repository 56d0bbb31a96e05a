"""Results do not depend on the BLAS thread count: a nested sweep on a fixed
orthonormal basis gives bitwise the same operators and ``cond_P`` under one
and two OpenBLAS threads."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# nested sweeps n = 1..8 on the QR of a seeded Gaussian (not the POD, whose
# SVD is itself thread-dependent); prints one hash of every operator and cond_P
SWEEP = """
import hashlib
import numpy as np
from exactopinf.benchmarks import BURGERS, CHAFEE_INFANTE, build
from exactopinf.exact_opinf import extend_ensemble, generate_ensemble, infer

digest = hashlib.sha256()
for spec, dt in ((BURGERS, 0.1), (CHAFEE_INFANTE, 2e-4)):
    fom, _, _ = build(spec)
    Q, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((spec.N, 8)))
    ensemble = None
    for n in range(1, 9):
        V = np.ascontiguousarray(Q[:, :n])
        if ensemble is None:
            ensemble = generate_ensemble(fom, V, dt, spec.state_scale)
        else:
            ensemble = extend_ensemble(ensemble, fom, V)
        result = infer(ensemble)
        digest.update(result.operator.matrix.tobytes())
        digest.update(repr(result.cond_P).encode())
print(digest.hexdigest())
"""


def _sweep_hash(threads):
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=str(threads))
    result = subprocess.run(
        [sys.executable, "-c", SWEEP], capture_output=True, text=True, env=env, check=True
    )
    return result.stdout.strip()


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two cores for two BLAS threads")
def test_nested_sweep_bitwise_equal_under_one_and_two_blas_threads():
    assert _sweep_hash(1) == _sweep_hash(2)
