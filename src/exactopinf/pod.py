"""Nested orthonormal bases from snapshot data by Golub-Kahan-Lanczos bidiagonalization."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fom import SnapshotMatrix
from .tensor_poly import norm


class RankDeficiencyError(ValueError):
    """Requested more basis vectors than the numerical rank of the data."""

    def __init__(self, message, numerical_rank):
        super().__init__(message)
        self.numerical_rank = numerical_rank


@dataclass(frozen=True)
class PodBasis:
    """Column-orthonormal basis with its singular values of the snapshot data.

    Its first ``n`` columns (:meth:`matrix`) are themselves a valid basis, so
    one decomposition serves a whole sweep of reduced dimensions.
    """

    V: np.ndarray  # (N, n_max)
    singular_values: np.ndarray  # (n_max,)

    @property
    def n_max(self) -> int:
        return self.V.shape[1]

    def matrix(self, n: int) -> np.ndarray:
        return self.V[:, :n]


def reorthogonalize(w, basis):
    """``w`` with its components along the orthonormal ``basis`` removed
    (two classical Gram-Schmidt passes, fixed-order sums)."""
    if basis:
        Q = np.array(basis)
        for _ in range(2):
            w = w - np.einsum("ki,k->i", Q, np.einsum("ki,i->k", Q, w))
    return w


def bidiagonalize(apply, apply_transpose, v):
    """Golub-Kahan-Lanczos bidiagonalization ``A V_k = U_k B_k`` of ``x -> apply(x)`` from ``v``.

    Both Krylov bases are fully reorthogonalized.  Step ``k`` yields ``B_k``'s diagonal, its
    superdiagonal and then ``beta_k`` (a Ritz triplet ``(sigma, U_k y, V_k z)`` of ``B_k`` has
    residual ``beta_k |y_k|``), and ``U_k``'s columns.  A ``beta_k`` at most ``1e-14 max(alphas)``
    restarts in ``A^T``'s range (``beta_k`` then reads 0), ending once that range is exhausted.
    It also ends, without a step, where ``alpha_k`` would be 0: ``A v_k`` adds no direction.
    """
    V, U, alphas, betas = [v / norm(v)], [], [], []
    while True:
        u = reorthogonalize(apply(V[-1]) - (betas[-1] * U[-1] if U else 0.0), U)
        if not (alpha := norm(u)) > 0:
            return
        alphas.append(alpha)
        U.append(u / alpha)
        v = reorthogonalize(apply_transpose(U[-1]) - alphas[-1] * V[-1], V)
        betas.append(norm(v))
        yield alphas, betas, U
        if not betas[-1] > 1e-14 * max(alphas):  # an invariant subspace
            w = apply_transpose(np.random.default_rng(len(V)).standard_normal(u.shape))
            v, betas[-1] = reorthogonalize(w, V), 0.0
            if not norm(v) > 1e-14 * norm(w):
                return
        V.append(v / norm(v))


def pod_basis(snapshots: SnapshotMatrix, n_max: int) -> PodBasis:
    """Leading left singular vectors of the snapshots' raw state matrix ``X``, no mean removed.

    :func:`bidiagonalize` of ``X`` from ``X^T w``, ``w`` standard normal from ``default_rng(0)``,
    in the row space, so ``min(X.shape)`` steps complete it; it stops once every top-``n_max``
    Ritz residual is at most ``1e-15 sigma_1``.  Every product is an ``np.einsum`` without
    ``optimize``, so the bits depend on neither the BLAS nor its threads.  A flat spectrum takes
    many steps: white noise 512 x 2001 at ``n_max = 7`` takes 141 steps, 0.64-0.70 s against the
    full SVD's 0.31-0.36 s (2 cores).  Each column's largest entry (first on ties) is positive.
    A ``sigma_{n_max}`` at most ``1e-13 sigma_1``, or a breakdown with fewer values above that,
    raises :class:`RankDeficiencyError` with the count of values above it.
    """
    X = snapshots.states
    if n_max < 1 or n_max > min(X.shape):
        raise ValueError(f"n_max must be in 1..{min(X.shape)}, got {n_max}")
    start = np.einsum("ij,i->j", X, np.random.default_rng(0).standard_normal(X.shape[0]))
    steps = bidiagonalize(lambda x: np.einsum("ij,j->i", X, x), lambda y: np.einsum("ij,i->j", X, y), start)
    rank = 0  # of a zero X, which has no start
    for k, (alphas, betas, U) in enumerate(steps if norm(start) > 0 else (), 1):
        Y, s, _ = np.linalg.svd(np.diag(alphas) + np.diag(betas[:-1], 1))
        rank = int(np.sum(s > 1e-13 * s[0]))
        converged = k >= n_max and max(betas[-1] * abs(Y[-1, :n_max])) <= 1e-15 * s[0]
        if converged or k == min(X.shape) or rank < min(k, n_max):
            break
    if rank < n_max:
        raise RankDeficiencyError(f"requested {n_max} modes but numerical rank is {rank}", rank)
    V = np.einsum("ki,kj->ij", np.array(U), Y[:, :n_max])
    V *= np.sign(V[np.argmax(np.abs(V), axis=0), np.arange(n_max)])
    return PodBasis(V=V, singular_values=s[:n_max])
