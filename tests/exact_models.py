"""Test oracle: models whose single steps are exact in floating point.

A :func:`~exactopinf.fom.from_dense_operators` model of integer matrices, each
degree's times one power of two, with the identity as basis (``N = n``), has its
own matrices as the reduced operator.  With power-of-two pair amplitude and
time step and small integers, every feature, product, sum and step of the
ensemble is exact, so the stepped data are exactly ``D = O P`` and any error
of the inferred operator is the solver's own.
"""

import math

import numpy as np

from exactopinf.exact_opinf import pair_tags, rank_ensuring_pairs
from exactopinf.fom import from_dense_operators
from exactopinf.tensor_poly import MonomialBasis, feature_matrix


def exact_model(rng, basis: MonomialBasis, powers: dict):
    """``(fom, O)``: a model of ``basis.n`` cells, and its ``(n, n_f)`` operator ``O``.

    Every entry of ``O`` is a nonzero integer in ``-8..8``, times
    ``2 ** powers[i]`` in the degree-``i`` block; so no block is zero.
    """

    def entries(shape):
        return rng.integers(1, 9, shape) * rng.choice([-1, 1], shape)

    n = basis.n
    matrices = {i: entries((n, math.comb(n + i - 1, i))) * 2.0 ** powers[i] for i in basis.degree_set}
    B = entries((n, basis.n_u)) * 1.0
    fom = from_dense_operators(matrices, B if basis.n_u else None)
    return fom, np.hstack([matrices[i] for i in basis.degree_set] + [B])


def level_condition(basis: MonomialBasis, scale: float) -> float:
    """The largest condition number of the diagonal blocks of ``P``, one per support.

    The pairs and features of one support (the indices a tuple names; none
    for degree 0 and the inputs) make one diagonal block of ``P``, which is
    block upper triangular by support size; the solver factors these blocks.
    """
    P = feature_matrix(basis, *rank_ensuring_pairs(basis, scale))
    supports = {}
    for f, tag in enumerate(pair_tags(basis)):
        supports.setdefault(frozenset(tag[2]) if tag[0] == "state" else frozenset(), []).append(f)
    return max(np.linalg.cond(P[np.ix_(fs, fs)]) for fs in supports.values())
