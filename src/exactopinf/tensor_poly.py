"""Canonical monomial indexing, compressed state powers and feature vectors.

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


def compress_state(x, i: int) -> np.ndarray:
    """Compressed degree-``i`` power of ``x``: one entry per distinct monomial.

    Degree 0 yields the length-1 vector ``[1.0]``.
    """
    x = np.asarray(x, dtype=float)
    if i == 0:
        return np.ones(1)
    idx = monomial_index_array(x.shape[0], i)
    return np.prod(x[idx], axis=1)


def compress_states(X, i: int) -> np.ndarray:
    """Column-wise :func:`compress_state` of an (n, K) matrix of states."""
    X = np.asarray(X, dtype=float)
    n, K = X.shape
    if i == 0:
        return np.ones((1, K))
    idx = monomial_index_array(n, i)
    return np.prod(X[idx, :], axis=1)


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
    def n_p(self) -> int:
        return sum(self.block_sizes)

    @property
    def n_f(self) -> int:
        return self.n_p + self.n_u

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
        return slice(self.n_p, self.n_f)


def feature_vector(basis: MonomialBasis, x, u=None) -> np.ndarray:
    """Assemble the feature vector: compressed powers per degree, then input."""
    x = np.asarray(x, dtype=float)
    if x.shape != (basis.n,):
        raise ValueError(f"state has shape {x.shape}, expected ({basis.n},)")
    if u is None:
        u = np.zeros(basis.n_u)
    u = np.asarray(u, dtype=float)
    if u.shape != (basis.n_u,):
        raise ValueError(f"input has shape {u.shape}, expected ({basis.n_u},)")
    blocks = [compress_state(x, i) for i in basis.degree_set]
    blocks.append(u)
    return np.concatenate(blocks)


def feature_matrix(basis: MonomialBasis, X, U=None) -> np.ndarray:
    """Column-wise :func:`feature_vector` for (n, K) states and (n_u, K) inputs."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != basis.n:
        raise ValueError(f"states have shape {X.shape}, expected ({basis.n}, K)")
    K = X.shape[1]
    if U is None:
        U = np.zeros((basis.n_u, K))
    U = np.asarray(U, dtype=float)
    if U.shape != (basis.n_u, K):
        raise ValueError(f"inputs have shape {U.shape}, expected ({basis.n_u}, {K})")
    blocks = [compress_states(X, i) for i in basis.degree_set]
    blocks.append(U)
    return np.concatenate(blocks, axis=0)
