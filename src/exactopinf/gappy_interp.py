"""Multivariate polynomial interpolation with gaps in the degree set.

The generated inference states double as interpolation nodes: for every
state dimension and degree set, the square matrix pairing nodes with the
monomials of those degrees is invertible, which is exactly why the
single-step data matrix has full rank.  This module exposes that matrix,
the interpolation solve, and the univariate "hit one degree, miss the rest"
polynomials used to stitch degree blocks together.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exact_opinf import SingularDataMatrixError, rank_ensuring_pairs, solve_square
from .tensor_poly import MonomialBasis, feature_matrix


@dataclass(frozen=True)
class GappyProblem:
    """Interpolation of given finite values at the canonical unit-vector-sum
    nodes."""

    n: int
    degree_set: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        basis = MonomialBasis(n=self.n, degree_set=self.degree_set)
        object.__setattr__(self, "degree_set", basis.degree_set)
        values = np.asarray(self.values, dtype=float)
        if values.shape != (basis.n_p,):
            raise ValueError(f"expected {basis.n_p} values, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "values", values)

    @property
    def nodes(self) -> list[np.ndarray]:
        return list(rank_ensuring_pairs(MonomialBasis(n=self.n, degree_set=self.degree_set))[0].T)


def interpolation_matrix(n: int, degree_set) -> np.ndarray:
    """Square (n_p, n_p) matrix whose column j stacks the monomials of node j.

    The single-step data matrix of the state pairs, built by the same call.
    """
    basis = MonomialBasis(n=n, degree_set=tuple(degree_set))
    return feature_matrix(basis, *rank_ensuring_pairs(basis))


def gappy_interpolate(problem: GappyProblem) -> np.ndarray:
    """Coefficients (canonical monomial order) interpolating the given values.

    Solves with the inference solve, :func:`solve_square`, and verifies the
    residual at the nodes.
    """
    M = interpolation_matrix(problem.n, problem.degree_set)
    coeffs = solve_square(M, problem.values)
    residual = np.max(np.abs(M.T @ coeffs - problem.values))
    bound = 1e-10 * (1.0 + np.max(np.abs(problem.values), initial=0.0))
    if not residual <= bound:
        raise SingularDataMatrixError(
            f"interpolation residual {residual:.3e} exceeds {bound:.3e}"
        )
    return coeffs


def univariate_specific(degree_set, i_star: int) -> np.ndarray:
    """Univariate polynomial that is 1 at ``i_star`` and 0 at the other degrees.

    The degree set doubles as the node set.  The polynomial's support is the
    degree set shifted down by ``i_star``, which requires ``i_star`` to be
    its smallest element.  Coefficients are returned in ascending order of
    the shifted degrees.
    """
    degrees = tuple(sorted(set(int(i) for i in degree_set)))
    if i_star not in degrees:
        raise ValueError(f"{i_star} is not in the degree set {degrees}")
    others = [i for i in degrees if i != i_star]
    if others and i_star >= min(others):
        raise ValueError(f"{i_star} must be below the remaining degrees {others}")
    support = [i - i_star for i in degrees]
    nodes = np.array(degrees, dtype=float)
    # column j holds the support monomials at node j, as in the data matrix
    M = np.array([[x**d for x in nodes] for d in support])
    target = np.array([1.0 if i == i_star else 0.0 for i in degrees])
    return solve_square(M, target)
