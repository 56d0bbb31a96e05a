"""Orthonormal snapshot bases by Golub-Kahan-Lanczos: singular-value properties,
sign fix, rank guard, repeated values and layout independence."""

import numpy as np
import pytest

from exactopinf.fom import SnapshotMatrix
from exactopinf.pod import PodBasis, RankDeficiencyError, pod_basis


def _snapshots(X):
    K = X.shape[1]
    return SnapshotMatrix(states=X, times=np.arange(K, dtype=float), inputs=np.zeros((0, K)))


class TestPodBasis:
    def test_rank_one_repeated_unit(self):
        e1 = np.zeros(4)
        e1[0] = 1.0
        X = np.stack([e1, e1], axis=1)
        basis = pod_basis(_snapshots(X), 1)
        np.testing.assert_allclose(basis.V[:, 0], e1, atol=1e-14)
        np.testing.assert_allclose(basis.singular_values[0], np.sqrt(2.0), rtol=1e-14)

    def test_orthogonal_columns_known_sigmas(self):
        X = np.zeros((5, 2))
        X[0, 0] = 3.0
        X[1, 1] = 2.0
        basis = pod_basis(_snapshots(X), 2)
        np.testing.assert_allclose(basis.singular_values[:2], [3.0, 2.0], rtol=1e-14)
        # V spans the same plane as the snapshots
        proj = basis.V @ (basis.V.T @ X)
        np.testing.assert_allclose(proj, X, atol=1e-13)

    def test_orthonormality_and_tail_optimality(self, rng):
        X = rng.standard_normal((20, 50))
        basis = pod_basis(_snapshots(X), 7)
        V = basis.V
        np.testing.assert_allclose(V.T @ V, np.eye(7), atol=1e-12)
        # Gram-matrix eigendecomposition oracle: sigma^2 = eigenvalues of X X^T
        eigs = np.sort(np.linalg.eigvalsh(X @ X.T))[::-1]
        np.testing.assert_allclose(basis.singular_values**2, eigs[:7], rtol=1e-8)
        # reconstruction error equals the tail sum of squared singular values,
        # which the basis holds only the leading 7 of
        err = np.linalg.norm(X - V @ (V.T @ X)) ** 2
        tail = np.linalg.svd(X, compute_uv=False)[7:]
        np.testing.assert_allclose(err, np.sum(tail**2), rtol=1e-9)

    def test_sign_fix_deterministic(self, rng):
        X = rng.standard_normal((10, 30))
        a = pod_basis(_snapshots(X), 4)
        b = pod_basis(_snapshots(-X), 4)  # flipped data gives the same fixed signs
        for j in range(4):
            lead = np.argmax(np.abs(a.V[:, j]))
            assert a.V[lead, j] > 0
        np.testing.assert_allclose(np.abs(a.V), np.abs(b.V), atol=1e-12)

    def test_rank_guard(self, rng):
        u = rng.standard_normal(6)
        v = rng.standard_normal(9)
        X = np.outer(u, v)
        with pytest.raises(RankDeficiencyError) as excinfo:
            pod_basis(_snapshots(X), 2)
        assert excinfo.value.numerical_rank == 1

    @pytest.mark.parametrize(
        "sigmas, n, rank",
        [((1.0, 0.5, 0.25), 5, 3), ((1.0, 0.5, 1e-15), 3, 2), ((1.0, 1.0, 1.0), 4, 3), ((0.0,), 1, 0)],
        ids=["breakdown", "small-sigma", "repeated", "zero"],
    )
    def test_rank_deficiency_raises_with_the_count(self, rng, sigmas, n, rank):
        # the row space runs out (a breakdown) or sigma_n is at most 1e-13 sigma_1
        Q = np.linalg.qr(rng.standard_normal((10, len(sigmas))))[0]
        W = np.linalg.qr(rng.standard_normal((12, len(sigmas))))[0]
        with pytest.raises(RankDeficiencyError) as excinfo:
            pod_basis(_snapshots(Q @ np.diag(sigmas) @ W.T), n)
        assert excinfo.value.numerical_rank == rank

    @pytest.mark.parametrize("shape", [(20, 50), (50, 20)], ids=["wide", "tall"])
    def test_complete_bidiagonalization_is_exact(self, rng, shape):
        # min(N, K) steps from a start in the row space: every singular value
        X = rng.standard_normal(shape)
        n = min(shape)
        basis = pod_basis(_snapshots(X), n)
        s = np.linalg.svd(X, compute_uv=False)
        np.testing.assert_allclose(basis.singular_values, s, rtol=0, atol=1e-14 * s[0])
        np.testing.assert_allclose(basis.V.T @ basis.V, np.eye(n), rtol=0, atol=1e-14)
        gram = X @ (X.T @ basis.V)
        np.testing.assert_allclose(gram, basis.V * s**2, rtol=0, atol=1e-14 * s[0] ** 2)

    def test_repeated_singular_values_restart(self, rng):
        # X X^T = I leaves every Krylov space invariant after one step: each
        # mode comes from a restart in the row space
        Q = np.linalg.qr(rng.standard_normal((10, 6)))[0]
        W = np.linalg.qr(rng.standard_normal((12, 6)))[0]
        basis = pod_basis(_snapshots(Q @ W.T), 6)
        np.testing.assert_allclose(basis.singular_values, np.ones(6), rtol=1e-14)
        np.testing.assert_allclose(basis.V @ basis.V.T, Q @ Q.T, atol=1e-14)

    def test_same_bits_in_either_layout(self, rng):
        # snapshots are stored C-ordered, so einsum's sums see one layout
        X = rng.standard_normal((30, 80))
        c = pod_basis(_snapshots(np.ascontiguousarray(X)), 5)
        f = pod_basis(_snapshots(np.asfortranarray(X)), 5)
        np.testing.assert_array_equal(c.V, f.V)
        np.testing.assert_array_equal(c.singular_values, f.singular_values)

    def test_truncation_nested(self, rng):
        X = rng.standard_normal((8, 12))
        basis = pod_basis(_snapshots(X), 5)
        np.testing.assert_array_equal(basis.matrix(2), basis.V[:, :2])

    def test_invalid_n_max(self, rng):
        X = rng.standard_normal((4, 10))
        with pytest.raises(ValueError):
            pod_basis(_snapshots(X), 0)
        with pytest.raises(ValueError):
            pod_basis(_snapshots(X), 5)

    def test_benchmark_basis_orthonormal(self, burgers_data):
        V = burgers_data["pod"].V
        np.testing.assert_allclose(V.T @ V, np.eye(V.shape[1]), atol=1e-12)
