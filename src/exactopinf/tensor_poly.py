"""Canonical monomial indexing, compressed state powers, feature matrices and fixed-order sums.

The degree-``i`` "compressed power" of a vector ``x`` of length ``n`` lists
every distinct product of ``i`` entries of ``x`` exactly once.  Entries are
indexed by non-decreasing index tuples ``(j_1, ..., j_i)`` with 1-based
indices, ordered lexicographically.  This ordering is the single canonical
ordering used everywhere in the package: feature vectors, operator columns
and the generated inference states all follow it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_INT64_MAX = np.iinfo(np.int64).max
# entries (64 KiB) of every block: compress_states' and the lift's rows, the ensemble's pairs,
# galerkin's stacks; small temporaries keep malloc's mmap threshold, and so the peak RSS, low
PRODUCT_BLOCK_ENTRIES = 2**13


def monomial_count(n: int, i: int) -> int:
    """Number of distinct degree-``i`` monomials in ``n`` variables.

    Equals the binomial coefficient C(n+i-1, i).  Counts too large for a
    64-bit index raise ``OverflowError`` instead of wrapping.
    """
    if n < 1:
        raise ValueError(f"state dimension must be >= 1, got {n}")
    if i < 0:
        raise ValueError(f"degree must be >= 0, got {i}")
    count = math.comb(n + i - 1, i)
    if count > _INT64_MAX:
        raise OverflowError(f"monomial count C({n + i - 1},{i}) exceeds 64-bit range")
    return count


@lru_cache(maxsize=None)
def enumerate_monomials(n: int, i: int) -> tuple[tuple[int, ...], ...]:
    """All non-decreasing 1-based index tuples of length ``i`` over ``1..n``.

    Returned in lexicographic order; the empty tuple represents the constant
    monomial for ``i = 0``.
    """
    monomial_count(n, i)  # validates and guards overflow
    return tuple(itertools.combinations_with_replacement(range(1, n + 1), i))


def multiplicity(indices: tuple[int, ...]) -> int:
    """Number of distinct orderings of a monomial index tuple.

    For ``(j_1, ..., j_i)`` this is the multinomial coefficient
    ``i! / prod_k m_k!`` where ``m_k`` are the index multiplicities.
    """
    count = math.factorial(len(indices))
    for j in set(indices):
        count //= math.factorial(indices.count(j))
    return count


@lru_cache(maxsize=None)
def monomial_index_array(n: int, i: int) -> np.ndarray:
    """0-based (n_i, i) index array of the canonical monomial tuples."""
    mons = enumerate_monomials(n, i)
    arr = np.array(mons, dtype=np.int64).reshape(len(mons), i)
    return arr - 1


def ordered_product(A, B) -> np.ndarray:
    """``A.T @ B`` summed row by row from zero: each entry's bits depend only on its columns of
    ``A`` and ``B``, not on widths, layouts, BLAS or pairwise sums.  The rows go in chunks of at
    most ``PRODUCT_BLOCK_ENTRIES`` products, after the sums so far, so the temporary stays in
    cache.  ``np.add`` reduces an outer axis row by row, but the only axis left pairwise, so a
    ``1 x 1`` product accumulates."""
    entries = max(1, A.shape[1] * B.shape[1])
    rows = max(1, min(A.shape[0], PRODUCT_BLOCK_ENTRIES // entries - 1))
    terms = np.zeros((rows + 1, A.shape[1], B.shape[1]))  # row 0: the sums so far, from zero
    for start in range(0, A.shape[0], rows):
        a, b = A[start : start + rows], B[start : start + rows]
        chunk = terms[: len(a) + 1]
        np.multiply(a[:, :, None], b[:, None, :], out=chunk[1:])
        if entries == 1:
            terms[0] = np.add.accumulate(chunk, axis=0, out=chunk)[-1]
        else:
            terms[0] = np.add.reduce(chunk, axis=0)
    return terms[0].copy()


def norm(x) -> float:
    """The 2-norm of ``x``: ``max|x|`` times that of ``x / max|x|``, a fixed-order sum of squares
    that neither overflows nor underflows, in one temporary (Newton takes it every iteration)."""
    a = np.abs(x, dtype=float)
    scale = np.maximum.reduce(a, axis=None, initial=0.0)
    if not 0 < scale < np.inf:
        return float(scale)
    np.divide(a, scale, out=a)
    return float(scale * math.sqrt(np.add.reduce(np.multiply(a, a, out=a), axis=None)))


def compress_states(X, i: int, out=None) -> np.ndarray:
    """Compressed degree-``i`` powers of the columns of an (n, K) matrix.

    The package's one monomial-product kernel.  It fills ``out`` (a new
    array by default; :func:`feature_matrix` passes its degree block) by
    row blocks of ``PRODUCT_BLOCK_ENTRIES``, each set to ones and multiplied
    by the entries one index slot names at a time, so each entry is the
    product of its ``i`` factors left to right; degree 0 gives ones.
    """
    X = np.asarray(X, dtype=float)
    n, K = X.shape
    idx = monomial_index_array(n, i)
    out = np.empty((idx.shape[0], K)) if out is None else out
    rows = max(1, PRODUCT_BLOCK_ENTRIES // K)
    for start in range(0, idx.shape[0], rows):
        block = out[start : start + rows]
        block[...] = 1.0
        for slot in idx[start : start + rows].T:
            block *= X[slot]
    return out


@dataclass(frozen=True)
class MonomialBasis:
    """Layout of the aggregated feature vector: degree blocks then inputs.

    Fixes the state dimension ``n``, the sorted degree set and the input
    dimension ``n_u``.  The feature vector stacks the compressed state
    powers for each degree in ascending order, followed by the input.
    """

    n: int
    degree_set: tuple[int, ...]
    n_u: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"state dimension must be >= 1, got {self.n}")
        if self.n_u < 0:
            raise ValueError(f"input dimension must be >= 0, got {self.n_u}")
        degrees = tuple(sorted(set(int(i) for i in self.degree_set)))
        if not degrees:
            raise ValueError("degree set must not be empty")
        if degrees[0] < 0:
            raise ValueError("degrees must be non-negative")
        object.__setattr__(self, "degree_set", degrees)

    @property
    def block_sizes(self) -> tuple[int, ...]:
        return tuple(monomial_count(self.n, i) for i in self.degree_set)

    @property
    def n_f(self) -> int:
        return sum(self.block_sizes) + self.n_u

    def degree_slice(self, i: int) -> slice:
        """Index range of the degree-``i`` block inside the feature vector."""
        offset = 0
        for d, size in zip(self.degree_set, self.block_sizes):
            if d == i:
                return slice(offset, offset + size)
            offset += size
        raise KeyError(f"degree {i} not in degree set {self.degree_set}")

    @property
    def input_slice(self) -> slice:
        return slice(self.n_f - self.n_u, self.n_f)


def feature_matrix(basis: MonomialBasis, X, U=None) -> np.ndarray:
    """Feature vectors of (n, K) states and (n_u, K) inputs as columns.

    Each column stacks the compressed powers per degree, then the input.
    The package's one view of the feature layout: a single feature vector
    is the one-column case.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != basis.n:
        raise ValueError(f"states have shape {X.shape}, expected ({basis.n}, K)")
    K = X.shape[1]
    if U is None:
        U = np.zeros((basis.n_u, K))
    U = np.asarray(U, dtype=float)
    if U.shape != (basis.n_u, K):
        raise ValueError(f"inputs have shape {U.shape}, expected ({basis.n_u}, {K})")
    P = np.empty((basis.n_f, K))
    for i in basis.degree_set:
        compress_states(X, i, out=P[basis.degree_slice(i)])
    P[basis.input_slice] = U
    return P
