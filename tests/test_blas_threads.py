"""Results do not depend on the BLAS thread count: a nested sweep, a single
wide ensemble with its inference, and the shallow-ice ensemble at ``n = 7``
with its inference, each on a fixed orthonormal basis, give bitwise the same
data, operators and ``cond_P`` under one and two OpenBLAS threads, and so do
the POD bases of the three bundled trajectories."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# nested sweeps n = 1..8 on the QR of a seeded Gaussian; prints one hash of
# every operator and cond_P
SWEEP = """
import hashlib
import numpy as np
from exactopinf.benchmarks import BURGERS, CHAFEE_INFANTE, build
from exactopinf.exact_opinf import sweep

digest = hashlib.sha256()
for spec, dt in ((BURGERS, 0.1), (CHAFEE_INFANTE, 2e-4)):
    fom, _, _ = build(spec)
    Q, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((spec.N, 8)))
    for _, result in sweep(fom, Q, dt, spec.state_scale):
        digest.update(result.operator.matrix.tobytes())
        digest.update(repr(result.cond_P).encode())
print(digest.hexdigest())
"""

# Chafee-Infante at n = 24 (2925 pairs) on the same kind of basis; prints
# one hash each of the projected derivatives, the operator and cond_P
WIDE = """
import hashlib
import numpy as np
from exactopinf.benchmarks import CHAFEE_INFANTE as spec, build
from exactopinf.exact_opinf import generate_ensemble, infer

fom, _, _ = build(spec)
Q, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((spec.N, 24)))
ensemble = generate_ensemble(fom, Q, 2e-4, spec.state_scale)
result = infer(ensemble)
for data in (ensemble.derivatives.tobytes(), result.operator.matrix.tobytes(), repr(result.cond_P).encode()):
    print(hashlib.sha256(data).hexdigest())
"""

# shallow ice at n = 7 (3087 pairs, degrees {3, 8}) on the same kind of
# basis; prints one hash each of the projected derivatives, the operator and
# cond_P (the support-level solve has no BLAS call that decides a digit)
ICE = """
import hashlib
import numpy as np
from exactopinf.benchmarks import SHALLOW_ICE as spec, build
from exactopinf.exact_opinf import generate_ensemble, infer

fom, _, _ = build(spec)
Q, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((spec.N, 7)))
ensemble = generate_ensemble(fom, Q, 1e10, spec.state_scale)
result = infer(ensemble)
for data in (ensemble.derivatives.tobytes(), result.operator.matrix.tobytes(), repr(result.cond_P).encode()):
    print(hashlib.sha256(data).hexdigest())
"""


# the three bundled trajectories and their POD bases at each sweep's width;
# prints one hash each of the states, the modes and the singular values
POD = """
import hashlib
from exactopinf.benchmarks import SPECS, build
from exactopinf.fom import simulate
from exactopinf.pod import pod_basis

for spec in SPECS.values():
    fom, signal, x0 = build(spec)
    snaps = simulate(fom, x0, signal, spec.dt_pod, spec.K_pod, scheme=spec.scheme)
    basis = pod_basis(snaps, spec.n_max)
    for data in (snaps.states, basis.V, basis.singular_values):
        print(hashlib.sha256(data.tobytes()).hexdigest())
"""


def _hashes(script, threads):
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=str(threads))
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    return result.stdout.split()


two_cores = pytest.mark.skipif(
    (os.cpu_count() or 1) < 2, reason="needs two cores for two BLAS threads"
)


@two_cores
def test_nested_sweep_bitwise_equal_under_one_and_two_blas_threads():
    assert _hashes(SWEEP, 1) == _hashes(SWEEP, 2)


@two_cores
def test_wide_ensemble_and_inference_bitwise_equal_under_one_and_two_blas_threads():
    # derivatives, operator and cond_P, in that order
    assert _hashes(WIDE, 1) == _hashes(WIDE, 2)


@two_cores
def test_ice_ensemble_bitwise_equal_under_one_and_two_blas_threads():
    # derivatives, operator and cond_P, in that order
    assert _hashes(ICE, 1) == _hashes(ICE, 2)


@two_cores
def test_pod_bitwise_equal_under_one_and_two_blas_threads():
    # per system: trajectory states, modes and singular values, in that order
    assert _hashes(POD, 1) == _hashes(POD, 2)
