"""Intrusive reduction onto an orthonormal basis, given as an (N, n) array.

The reduced right-hand side is a single matrix acting on the feature vector
of the reduced state and input.  Reduction never materializes the
full-order degree matrices: each operator column comes from one evaluation
of the corresponding symmetric multilinear map on basis columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fom import PolynomialFOM
from .tensor_poly import MonomialBasis, enumerate_monomials, multiplicity


@dataclass(frozen=True)
class AggregatedOperator:
    """Reduced operator: one column block per degree, then the input block.

    ``matrix`` has shape (n, n_f) with columns laid out exactly like the
    feature vector of ``basis``.
    """

    basis: MonomialBasis
    matrix: np.ndarray

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=float)
        if matrix.shape != (self.basis.n, self.basis.n_f):
            raise ValueError(
                f"matrix has shape {matrix.shape}, expected "
                f"({self.basis.n}, {self.basis.n_f})"
            )
        if not np.all(np.isfinite(matrix)):
            raise ValueError("operator entries must be finite")
        object.__setattr__(self, "matrix", matrix)

    @property
    def n(self) -> int:
        return self.basis.n

    def degree_block(self, i: int) -> np.ndarray:
        """The (n, n_i) column block acting on the degree-``i`` monomials."""
        return self.matrix[:, self.basis.degree_slice(i)]

    @property
    def input_block(self) -> np.ndarray:
        """The (n, n_u) column block acting on the input."""
        return self.matrix[:, self.basis.input_slice]


class MissingMultilinearAccess(ValueError):
    """Intrusive reduction needs structured operator access."""


def intrusive_reduce(fom: PolynomialFOM, V: np.ndarray) -> AggregatedOperator:
    """Project the model onto the basis array ``V`` using its multilinear maps.

    The column for a monomial with index tuple ``(j_1, ..., j_i)`` is the
    projected multilinear map evaluated on the corresponding basis columns,
    scaled by the number of distinct orderings of the tuple.  That scaling
    accounts for the repeated cross terms of the full Kronecker power that
    the compressed monomial carries only once.
    """
    n = V.shape[1]
    if fom.multilinear is None:
        raise MissingMultilinearAccess(
            "model provides no multilinear access; use the single-step "
            "inference path instead"
        )
    missing = [i for i in fom.degree_set if i not in fom.multilinear]
    if missing:
        raise MissingMultilinearAccess(f"multilinear maps missing for degrees {missing}")
    if fom.n_u > 0 and fom.input_map is None:
        raise MissingMultilinearAccess("model has inputs but no input map")

    basis = MonomialBasis(n=n, degree_set=fom.degree_set, n_u=fom.n_u)
    matrix = np.empty((n, basis.n_f))
    for i in basis.degree_set:
        block = matrix[:, basis.degree_slice(i)]
        h = fom.multilinear[i]
        for col, tup in enumerate(enumerate_monomials(n, i)):
            args = [V[:, j - 1] for j in tup]
            block[:, col] = multiplicity(tup) * (V.T @ h(*args))
    if fom.n_u > 0:
        block = matrix[:, basis.input_slice]
        for j in range(fom.n_u):
            e = np.zeros(fom.n_u)
            e[j] = 1.0
            block[:, j] = V.T @ fom.input_map(e)
    return AggregatedOperator(basis=basis, matrix=matrix)
