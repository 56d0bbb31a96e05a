"""Multivariate polynomial interpolation with gaps in the degree set.

The generated inference states double as interpolation nodes: for every
state dimension and degree set, the square matrix pairing nodes with the
monomials of those degrees is invertible, which is exactly why the
single-step data matrix has full rank.  This module exposes that matrix,
the interpolation solve by :func:`pair_solver`, and, as the 1-D case of
that solve, the univariate "hit one degree, miss the rest" polynomials used
to stitch degree blocks together.
"""

from __future__ import annotations

import numpy as np

from .exact_opinf import SingularDataMatrixError, pair_solver, rank_ensuring_pairs
from .tensor_poly import MonomialBasis, feature_matrix


def interpolation_matrix(n: int, degree_set) -> np.ndarray:
    """Square (n_f, n_f) matrix whose column j stacks the monomials of node j.

    The single-step data matrix of the state pairs, built by the same call.
    """
    basis = MonomialBasis(n=n, degree_set=tuple(degree_set))
    return feature_matrix(basis, *rank_ensuring_pairs(basis))


def gappy_interpolate(n: int, degree_set, values) -> np.ndarray:
    """Coefficients (canonical monomial order) interpolating ``values`` at the nodes.

    The nodes are the states of the rank-ensuring pairs, one finite value
    each.  The interpolation matrix is their pair matrix: :func:`pair_solver`
    solves, and its product verifies the residual at the nodes.
    """
    basis = MonomialBasis(n=n, degree_set=tuple(degree_set))
    values = np.asarray(values, dtype=float)
    if values.shape != (basis.n_f,):
        raise ValueError(f"expected {basis.n_f} values, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError("values must be finite")
    solver = pair_solver(basis)
    coeffs = solver.right_solve(values)
    residual = np.max(np.abs(solver.right_product(coeffs) - values))
    bound = 1e-10 * (1.0 + np.max(np.abs(values), initial=0.0))
    if not residual <= bound:
        raise SingularDataMatrixError(
            f"interpolation residual {residual:.3e} exceeds {bound:.3e}"
        )
    return coeffs


def univariate_specific(degree_set, i_star: int) -> np.ndarray:
    """Univariate polynomial that is 1 at ``i_star`` and 0 at the other degrees.

    The degree set doubles as the node set: the 1-D rank-ensuring pair of
    degree ``i`` is ``x = i``.  The polynomial's support is the degree set
    shifted down by ``i_star``, which requires ``i_star`` to be its smallest
    element.  Coefficients are returned in ascending order of the shifted
    degrees; they are those of ``x**i_star`` times the polynomial, which
    :func:`gappy_interpolate` gives from ``i_star**i_star`` at ``i_star``.
    """
    degrees = tuple(sorted(set(int(i) for i in degree_set)))
    if i_star not in degrees:
        raise ValueError(f"{i_star} is not in the degree set {degrees}")
    if i_star != degrees[0]:
        raise ValueError(f"{i_star} must be below the remaining degrees {list(degrees[1:])}")
    return gappy_interpolate(1, degrees, [float(i_star) ** i_star if i == i_star else 0.0 for i in degrees])
