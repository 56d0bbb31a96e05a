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
import scipy.linalg

from .exact_opinf import rank_ensuring_pairs
from .tensor_poly import MonomialBasis, feature_matrix


class SingularInterpolationError(RuntimeError):
    """The interpolation system is numerically singular.

    The node construction guarantees unisolvence, so this indicates an
    assembly bug rather than a genuinely unsolvable problem.
    """


@dataclass(frozen=True)
class GappyProblem:
    """Interpolation of given values at the canonical unit-vector-sum nodes."""

    n: int
    degree_set: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        basis = MonomialBasis(n=self.n, degree_set=self.degree_set)
        object.__setattr__(self, "degree_set", basis.degree_set)
        values = np.asarray(self.values, dtype=float)
        if values.shape != (basis.n_p,):
            raise ValueError(f"expected {basis.n_p} values, got shape {values.shape}")
        object.__setattr__(self, "values", values)

    @property
    def nodes(self) -> list[np.ndarray]:
        return [p.state for p in rank_ensuring_pairs(self.n, self.degree_set)]


def interpolation_matrix(n: int, degree_set) -> np.ndarray:
    """Square (n_p, n_p) matrix whose column j stacks the monomials of node j.

    Identical to the state block of the single-step data matrix.
    """
    basis = MonomialBasis(n=n, degree_set=tuple(degree_set))
    pairs = rank_ensuring_pairs(n, basis.degree_set)
    return feature_matrix(basis, np.stack([p.state for p in pairs], axis=1))


def gappy_interpolate(problem: GappyProblem) -> np.ndarray:
    """Coefficients (canonical monomial order) interpolating the given values.

    Solves the transposed interpolation matrix by LU and verifies the
    residual at the nodes.
    """
    M = interpolation_matrix(problem.n, problem.degree_set)
    try:
        coeffs = scipy.linalg.solve(M.T, problem.values)
    except scipy.linalg.LinAlgError as exc:
        raise SingularInterpolationError(str(exc)) from exc
    if not np.all(np.isfinite(coeffs)):
        raise SingularInterpolationError("solve produced non-finite coefficients")
    residual = np.max(np.abs(M.T @ coeffs - problem.values))
    bound = 1e-10 * (1.0 + np.max(np.abs(problem.values), initial=0.0))
    if residual > bound:
        raise SingularInterpolationError(
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
    M = np.array([[x**d for d in support] for x in nodes])
    target = np.array([1.0 if i == i_star else 0.0 for i in degrees])
    try:
        coeffs = scipy.linalg.solve(M, target)
    except scipy.linalg.LinAlgError as exc:
        raise SingularInterpolationError(str(exc)) from exc
    if not np.all(np.isfinite(coeffs)):
        raise SingularInterpolationError("solve produced non-finite coefficients")
    return coeffs
