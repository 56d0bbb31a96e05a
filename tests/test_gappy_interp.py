"""Interpolation with gapped degree sets and its link to the data matrix."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from exactopinf.exact_opinf import SingularDataMatrixError, rank_ensuring_pairs
from exactopinf.gappy_interp import (
    gappy_interpolate,
    interpolation_matrix,
    univariate_specific,
)
from exactopinf.tensor_poly import MonomialBasis, feature_matrix


def _evaluate(n, degree_set, coeffs, x):
    """Evaluate the interpolant with canonical monomial ordering at x."""
    feats = feature_matrix(MonomialBasis(n=n, degree_set=degree_set), x[:, None])[:, 0]
    return feats @ coeffs


def _exact_solve(rows, rhs):
    """The solution of the square rational system ``rows @ c = rhs``, by Gauss–Jordan."""
    A = [list(row) + [b] for row, b in zip(rows, rhs)]
    for k in range(len(A)):
        p = next(r for r in range(k, len(A)) if A[r][k] != 0)
        A[k], A[p] = A[p], A[k]
        for r in range(len(A)):
            if r != k and A[r][k] != 0:
                f = A[r][k] / A[k][k]
                A[r] = [a - f * b for a, b in zip(A[r], A[k])]
    return [A[k][-1] / A[k][k] for k in range(len(A))]


class TestInterpolationMatrix:
    def test_matches_state_block_of_data_matrix(self):
        basis = MonomialBasis(n=2, degree_set=(1, 2), n_u=2)
        P = feature_matrix(basis, *rank_ensuring_pairs(basis))
        M = interpolation_matrix(2, (1, 2))
        np.testing.assert_array_equal(M, P[:5, :5])

    def test_univariate_vandermonde(self):
        M = interpolation_matrix(1, (1, 2, 3))
        nodes = [1.0, 2.0, 3.0]
        expected = np.array([[x**d for x in nodes] for d in (1, 2, 3)])
        np.testing.assert_array_equal(M, expected)

    def test_degree_zero_row_of_ones(self):
        M = interpolation_matrix(3, (0, 2))
        assert M.shape == (7, 7)
        np.testing.assert_array_equal(M[0], np.ones(7))

    def test_unisolvence_sweep(self):
        degrees_pool = (0, 1, 2, 3, 4, 5)
        for n in range(1, 5):
            for r in range(1, len(degrees_pool) + 1):
                for I in itertools.combinations(degrees_pool, r):
                    M = interpolation_matrix(n, I)
                    svals = np.linalg.svd(M, compute_uv=False)
                    assert svals[-1] > 1e-10 * svals[0], (n, I)

    def test_homogeneous_singleton(self):
        for l in (1, 2, 3):
            M = interpolation_matrix(3, (l,))
            assert M.shape[0] == M.shape[1]
            assert np.linalg.matrix_rank(M) == M.shape[0]


class TestGappyInterpolate:
    def test_constant_only(self):
        coeffs = gappy_interpolate(1, (0,), [1.0])
        np.testing.assert_array_equal(coeffs, [1.0])

    def test_univariate_even_gap(self):
        # 1 at the origin, 0 at the degree-two node x = 2: p(x) = 1 - x^2/4
        coeffs = gappy_interpolate(1, (0, 2), [1.0, 0.0])
        np.testing.assert_allclose(coeffs, [1.0, -0.25], rtol=1e-14)

    def test_univariate_odd_gap(self):
        # nodes x = 1 (degree-one) and x = 3 (degree-three):
        # p(x) = (9/8) x - (1/8) x^3 hits 1 at 1 and 0 at 3
        coeffs = gappy_interpolate(1, (1, 3), [1.0, 0.0])
        np.testing.assert_allclose(coeffs, [9.0 / 8.0, -1.0 / 8.0], rtol=1e-13)

    def test_values_reproduced_at_nodes(self, rng):
        for n, I in [(2, (1, 2)), (3, (0, 2)), (3, (1, 3)), (2, (0, 1, 3))]:
            basis = MonomialBasis(n=n, degree_set=I)
            values = rng.standard_normal(basis.n_f)
            coeffs = gappy_interpolate(n, I, values)
            for node, target in zip(rank_ensuring_pairs(basis)[0].T, values):
                got = _evaluate(n, I, coeffs, node)
                assert abs(got - target) < 1e-10 * (1 + abs(target))

    def test_matches_the_dense_solve(self, rng):
        # the pair solver's coefficients are those of a dense solve with the
        # interpolation matrix, with and without degree gaps
        for n, I in [(2, (1, 2)), (3, (0, 2)), (3, (1, 3)), (2, (0, 1, 3)), (4, (2, 4)), (3, (0, 5))]:
            M = interpolation_matrix(n, I)
            values = rng.standard_normal(len(M))
            expected = np.linalg.solve(M.T, values)
            np.testing.assert_allclose(
                gappy_interpolate(n, I, values), expected, rtol=1e-10, atol=1e-12 * np.max(np.abs(expected))
            )

    def test_value_count_validated(self):
        with pytest.raises(ValueError, match="expected 5 values"):
            gappy_interpolate(2, (1, 2), [1.0, 2.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            gappy_interpolate(1, (0, 2), [1.0, bad])


class TestUnivariateSpecific:
    def test_constant(self):
        np.testing.assert_array_equal(univariate_specific((0,), 0), [1.0])

    def test_even_gap(self):
        np.testing.assert_allclose(
            univariate_specific((0, 2), 0), [1.0, -0.25], rtol=1e-14
        )

    def test_odd_gap(self):
        np.testing.assert_allclose(
            univariate_specific((1, 3), 1), [9.0 / 8.0, -1.0 / 8.0], rtol=1e-13
        )

    def test_hits_and_misses(self):
        degrees = (1, 2, 4)
        coeffs = univariate_specific(degrees, 1)
        support = [d - 1 for d in degrees]
        for x, want in zip(degrees, (1.0, 0.0, 0.0)):
            val = sum(c * x**d for c, d in zip(coeffs, support))
            assert val == pytest.approx(want, abs=1e-12)

    def test_requires_membership(self):
        with pytest.raises(ValueError):
            univariate_specific((1, 3), 2)

    def test_requires_smallest(self):
        with pytest.raises(ValueError):
            univariate_specific((1, 3), 3)


    def test_matches_the_exact_shifted_vandermonde_solve(self):
        # every degree set of at most 7 degrees in 0..8, against the exact
        # rational solve of sum_d c_d x^(d - i*) = [x == i*] at the nodes
        # x in the set: the parent solved that system in floating point
        for k in range(1, 8):
            for degrees in itertools.combinations(range(9), k):
                i_star = degrees[0]
                rows = [[Fraction(x) ** (d - i_star) for d in degrees] for x in degrees]
                exact = _exact_solve(rows, [Fraction(int(x == i_star)) for x in degrees])
                want = np.array([float(c) for c in exact])
                got = univariate_specific(degrees, i_star)
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), degrees

    @pytest.mark.parametrize("degrees", [range(1, 13), range(0, 15)], ids=["1..12", "0..14"])
    def test_long_runs_fail_the_residual_check(self, degrees):
        # coefficients this wide miss their nodes by more than the
        # interpolation's residual bound, so they are refused, not returned
        with pytest.raises(SingularDataMatrixError, match="interpolation residual"):
            univariate_specific(degrees, degrees[0])


class TestBlockTriangularStructure:
    def test_data_matrix_assembles_from_blocks(self):
        # full data matrix = [[state-node interpolation matrix, F], [0, I]]
        # where F holds the state monomials evaluated at the zero state
        for n, I, n_u in [(2, (1, 2), 2), (3, (0, 2), 1), (2, (1, 3), 3)]:
            basis = MonomialBasis(n=n, degree_set=I, n_u=n_u)
            P = feature_matrix(basis, *rank_ensuring_pairs(basis))
            top_left = interpolation_matrix(n, I)
            zero_cols = feature_matrix(
                MonomialBasis(n=n, degree_set=I), np.zeros((n, n_u))
            )
            assembled = np.block(
                [
                    [top_left, zero_cols],
                    [np.zeros((n_u, len(top_left))), np.eye(n_u)],
                ]
            )
            np.testing.assert_array_equal(P, assembled)


class TestTriangularComposition:
    def test_fifty_random_univariate_cases(self, rng):
        # build hit-one-miss-the-rest polynomials degree block by degree
        # block: evaluated at the nodes they form a lower-triangular matrix
        # with unit diagonal, and composing them reproduces the direct
        # interpolant on the full gapped basis
        for case in range(50):
            m = int(rng.integers(1, 5))
            degrees = np.sort(rng.choice(np.arange(0, 9), size=m, replace=False))
            nodes = np.sort(0.5 + 2.0 * rng.random(m))
            while m > 1 and np.min(np.diff(nodes)) < 0.1:
                nodes = np.sort(0.5 + 2.0 * rng.random(m))

            # p_k uses only the k smallest degrees, is 1 at node k and 0 at
            # the earlier nodes
            basis_polys = []
            for k in range(m):
                M = np.array(
                    [[x ** float(d) for d in degrees[: k + 1]] for x in nodes[: k + 1]]
                )
                target = np.zeros(k + 1)
                target[k] = 1.0
                coeffs = np.linalg.solve(M, target)
                full = np.zeros(m)
                full[: k + 1] = coeffs
                basis_polys.append(full)

            def ev(coeffs, x):
                return sum(c * x ** float(d) for c, d in zip(coeffs, degrees))

            A = np.array([[ev(p, x) for p in basis_polys] for x in nodes])
            np.testing.assert_allclose(np.triu(A, 1), 0.0, atol=1e-8)
            np.testing.assert_allclose(np.diag(A), 1.0, rtol=1e-8)

            values = rng.standard_normal(m)
            import scipy.linalg

            comp = scipy.linalg.solve_triangular(A, values, lower=True)
            composed = sum(c * p for c, p in zip(comp, basis_polys))
            direct = np.linalg.solve(
                np.array([[x ** float(d) for d in degrees] for x in nodes]), values
            )
            scale = np.max(np.abs(direct)) + 1.0
            assert np.max(np.abs(composed - direct)) / scale < 1e-6, case
