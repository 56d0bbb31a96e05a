"""Test oracle: a model's symmetric multilinear maps recovered from its
black-box right-hand side by polarization.

The tests check each model's structured maps (``PolynomialFOM.multilinear``)
against these, which read nothing but ``eval_rhs``.
"""

import itertools
import math

import numpy as np

from exactopinf.fom import PolynomialFOM, eval_rhs


def homogeneous_part(fom: PolynomialFOM, i: int, x) -> np.ndarray:
    """Degree-``i`` contribution of the rhs at ``x`` (zero input).

    Isolates the term from the black box by evaluating the rhs at scaled
    states ``t*x`` for the integer nodes ``t = 1, ..., |degree set|`` and
    solving the resulting Vandermonde system in the degrees present.
    """
    x = np.asarray(x, dtype=float)
    degrees = fom.degree_set
    if i not in degrees:
        return np.zeros(fom.dimension)
    nodes = np.arange(1, len(degrees) + 1, dtype=float)
    u0 = np.zeros(fom.n_u)
    samples = np.stack([eval_rhs(fom, t * x, u0) for t in nodes])
    vand = np.array([[t**d for d in degrees] for t in nodes])
    parts = np.linalg.solve(vand, samples)
    return parts[degrees.index(i)]


def polarize(fom: PolynomialFOM, i: int, *vectors) -> np.ndarray:
    """Symmetric multilinear map of degree ``i`` recovered from the black box.

    Uses the polarization identity
    ``H(v_1,...,v_i) = 1/i! * sum_{S != {}} (-1)^(i-|S|) f_i(sum_{j in S} v_j)``
    where ``f_i`` is the degree-``i`` homogeneous part of the rhs.  Cost is
    2^i - 1 homogeneous-part evaluations, so only intended for small ``i``.
    """
    if len(vectors) != i:
        raise ValueError(f"expected {i} vectors, got {len(vectors)}")
    if i == 0:
        return homogeneous_part(fom, 0, np.zeros(fom.dimension))
    if i > 8:
        raise ValueError("polarization limited to degree <= 8")
    vectors = [np.asarray(v, dtype=float) for v in vectors]
    acc = np.zeros(fom.dimension)
    for size in range(1, i + 1):
        sign = (-1.0) ** (i - size)
        for subset in itertools.combinations(range(i), size):
            acc += sign * homogeneous_part(fom, i, sum(vectors[j] for j in subset))
    return acc / math.factorial(i)
