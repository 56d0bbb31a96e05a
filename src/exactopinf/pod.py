"""Nested orthonormal bases from snapshot data via the SVD."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fom import SnapshotMatrix


class RankDeficiencyError(ValueError):
    """Requested more basis vectors than the numerical rank of the data."""

    def __init__(self, message, numerical_rank):
        super().__init__(message)
        self.numerical_rank = numerical_rank


@dataclass(frozen=True)
class PodBasis:
    """Column-orthonormal basis with the singular values of the snapshot data.

    Its first ``n`` columns (:meth:`matrix`) are themselves a valid basis, so
    one decomposition serves a whole sweep of reduced dimensions.
    """

    V: np.ndarray  # (N, n_max)
    singular_values: np.ndarray

    @property
    def n_max(self) -> int:
        return self.V.shape[1]

    def matrix(self, n: int) -> np.ndarray:
        return self.V[:, :n]


def pod_basis(snapshots: SnapshotMatrix, n_max: int) -> PodBasis:
    """Leading left singular vectors of the snapshots' raw state matrix.

    No mean subtraction and no quadrature weighting are applied.  Each
    column's sign is fixed so that its entry of largest magnitude (lowest
    row index on ties) is positive, making the output reproducible.
    Singular values below ``1e-13 * sigma_1`` count as zero; asking for more
    columns than the numerical rank raises :class:`RankDeficiencyError`.
    """
    X = snapshots.states
    if n_max < 1 or n_max > min(X.shape):
        raise ValueError(f"n_max must be in 1..{min(X.shape)}, got {n_max}")
    U, s, _ = np.linalg.svd(X, full_matrices=False)
    rank = int(np.sum(s > 1e-13 * s[0])) if s.size else 0
    if n_max > rank:
        raise RankDeficiencyError(
            f"requested {n_max} modes but numerical rank is {rank}", numerical_rank=rank
        )
    V = U[:, :n_max].copy()
    for j in range(n_max):
        lead = np.argmax(np.abs(V[:, j]))
        if V[lead, j] < 0:
            V[:, j] = -V[:, j]
    return PodBasis(V=V, singular_values=s)
