"""Intrusive reduction onto an orthonormal basis, given as an (N, n) array.

The reduced right-hand side is a single matrix acting on the feature vector
of the reduced state and input.  Reduction never materializes the
full-order degree matrices: each chunk of operator columns comes from one
evaluation of the corresponding symmetric multilinear map on stacks of
basis columns, one stack per argument.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fom import PolynomialFOM
from .tensor_poly import PRODUCT_BLOCK_ENTRIES, MonomialBasis, enumerate_monomials
from .tensor_poly import monomial_index_array, multiplicity, ordered_product


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
    the compressed monomial carries only once.  Each map is called once per
    ``PRODUCT_BLOCK_ENTRIES // N`` columns, on ``(N, m)`` stacks of their basis columns, and
    projected by :func:`ordered_product`, so ``V[:, :n]`` gives bitwise a cut of ``V``'s result.
    A ``V`` other than 2-D with ``fom.dimension`` rows raises ``ValueError``.
    """
    if V.ndim != 2 or V.shape[0] != fom.dimension:
        raise ValueError(f"basis has shape {V.shape}, model dimension is {fom.dimension}")
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

    basis = MonomialBasis(n=V.shape[1], degree_set=fom.degree_set, n_u=fom.n_u)
    matrix, width = np.empty((basis.n, basis.n_f)), max(1, PRODUCT_BLOCK_ENTRIES // V.shape[0])
    for i in basis.degree_set:
        block = matrix[:, basis.degree_slice(i)]
        idx = monomial_index_array(basis.n, i)
        counts = np.array([multiplicity(tup) for tup in enumerate_monomials(basis.n, i)], dtype=float)
        for start in range(0, len(idx), width):
            cols = slice(start, start + width)
            H = fom.multilinear[i](*(V[:, idx[cols, k]] for k in range(i)))  # (N,) at degree 0
            block[:, cols] = ordered_product(V, H.reshape(len(V), -1)) * counts[cols]
    if fom.n_u > 0:
        B = np.stack([fom.input_map(e) for e in np.eye(fom.n_u)], axis=1)
        matrix[:, basis.input_slice] = ordered_product(V, B)
    return AggregatedOperator(basis=basis, matrix=matrix)
