"""Monomial indexing, compressed powers and feature layout."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactopinf.exact_opinf import rank_ensuring_pairs
from exactopinf.tensor_poly import (
    PRODUCT_BLOCK_ENTRIES,
    MonomialBasis,
    compress_states,
    enumerate_monomials,
    feature_matrix,
    monomial_count,
    monomial_index_array,
    multiplicity,
    ordered_product,
)


class TestMonomialCount:
    def test_two_vars_degree_two(self):
        assert monomial_count(2, 2) == 3

    def test_degree_zero_is_constant(self):
        for n in (1, 3, 17):
            assert monomial_count(n, 0) == 1

    def test_fourteen_vars_degree_three(self):
        assert monomial_count(14, 3) == 560

    def test_matches_binomial(self):
        for n in range(1, 8):
            for i in range(0, 6):
                assert monomial_count(n, i) == math.comb(n + i - 1, i)

    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            monomial_count(10**6, 12)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            monomial_count(0, 2)
        with pytest.raises(ValueError):
            monomial_count(3, -1)


class TestEnumerateMonomials:
    def test_two_vars_degree_two(self):
        assert enumerate_monomials(2, 2) == ((1, 1), (1, 2), (2, 2))

    def test_single_var(self):
        assert enumerate_monomials(1, 3) == ((1, 1, 1),)

    def test_three_vars_degree_two(self):
        assert enumerate_monomials(3, 2) == (
            (1, 1),
            (1, 2),
            (1, 3),
            (2, 2),
            (2, 3),
            (3, 3),
        )

    def test_matches_kronecker_dedup(self):
        # oracle: sorted unique index tuples of the full 3x3x3 Kronecker grid
        n, i = 3, 3
        dedup = sorted({tuple(sorted(t)) for t in itertools.product(range(1, n + 1), repeat=i)})
        assert list(enumerate_monomials(n, i)) == dedup

    @given(st.integers(1, 6), st.integers(0, 4))
    def test_count_and_order(self, n, i):
        mons = enumerate_monomials(n, i)
        assert len(mons) == monomial_count(n, i)
        assert list(mons) == sorted(mons)
        for tup in mons:
            assert all(a <= b for a, b in zip(tup, tup[1:]))
            assert all(1 <= j <= n for j in tup)


class TestMultiplicity:
    def test_known_values(self):
        assert multiplicity((1, 1)) == 1
        assert multiplicity((1, 2)) == 2
        assert multiplicity((1, 2, 3)) == 6
        assert multiplicity((1, 1, 2)) == 3
        assert multiplicity(()) == 1

    @given(st.lists(st.integers(1, 4), min_size=0, max_size=6))
    def test_counts_distinct_permutations(self, indices):
        tup = tuple(sorted(indices))
        assert multiplicity(tup) == len(set(itertools.permutations(tup)))


def compress_column(x, i):
    """Compressed degree-``i`` power of one state vector."""
    return compress_states(np.asarray(x)[:, None], i)[:, 0]


class TestCompressState:
    def test_ones_squared(self):
        assert np.array_equal(compress_column(np.array([1.0, 1.0]), 2), [1.0, 1.0, 1.0])

    def test_unit_times_two_squared(self):
        assert np.array_equal(compress_column(np.array([2.0, 0.0]), 2), [4.0, 0.0, 0.0])

    def test_degree_zero(self):
        assert np.array_equal(compress_column(np.array([5.0, -3.0]), 0), [1.0])

    def test_degree_one_identity(self):
        x = np.array([3.0, -1.0, 2.0])
        assert np.array_equal(compress_column(x, 1), x)

    def test_matches_kronecker_dedup(self, rng):
        # oracle: the Kronecker cube at the slots whose index tuple is
        # non-decreasing, which np.kron orders lexicographically
        n = 3
        x = rng.standard_normal(n)
        kron = np.kron(np.kron(x, x), x)
        slots = [
            k
            for k, t in enumerate(itertools.product(range(n), repeat=3))
            if t[0] <= t[1] <= t[2]
        ]
        np.testing.assert_allclose(compress_column(x, 3), kron[slots], rtol=1e-14)

    def test_compress_states_columnwise(self, rng):
        X = rng.standard_normal((4, 6))
        stacked = compress_states(X, 2)
        for k in range(6):
            np.testing.assert_array_equal(stacked[:, k], compress_column(X[:, k], 2))

    @pytest.mark.parametrize("case", ["ice-pairs", "one-column", "partial-block"])
    def test_row_blocks_are_bitwise_the_whole_array_product(self, rng, case):
        if case == "ice-pairs":  # the ice n = 7 pairs at degree 8
            X, _ = rank_ensuring_pairs(MonomialBasis(n=7, degree_set=(3, 8)))
            i = 8
        elif case == "one-column":
            X, i = rng.standard_normal((10, 1)), 3
        else:
            X, i = rng.standard_normal((5, 1000)), 4
            rows = PRODUCT_BLOCK_ENTRIES // X.shape[1]
            n_i = monomial_count(5, 4)
            assert n_i > rows and n_i % rows != 0
        # reference: the whole block at once, one index slot at a time
        whole = np.ones((monomial_count(X.shape[0], i), X.shape[1]))
        for slot in monomial_index_array(X.shape[0], i).T:
            whole *= X[slot]
        np.testing.assert_array_equal(compress_states(X, i), whole)

    def test_compress_states_memory_does_not_grow_with_degree(self, rng):
        # one index slot at a time: the block and one slot's factors, never
        # an (n_i, i, K) array of all factors (590 MB for the ice data
        # matrix at n = 7)
        n, i, K = 7, 8, 50
        X = rng.standard_normal((n, K))
        monomial_index_array(n, i)  # cached index table, not part of the product
        block_bytes = monomial_count(n, i) * K * 8
        tracemalloc.start()
        try:
            compress_states(X, i)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * block_bytes

    def test_feature_matrix_writes_blocks_in_place(self, rng):
        # each degree block is computed inside the result, so assembly holds
        # the result and one slot's factors, not a second block-sized array
        basis = MonomialBasis(n=14, degree_set=(1, 2, 3), n_u=1)
        X = rng.standard_normal((basis.n, basis.n_f))
        for i in basis.degree_set:
            monomial_index_array(basis.n, i)  # cached index tables
        P_bytes = basis.n_f * basis.n_f * 8
        block_bytes = max(basis.block_sizes) * basis.n_f * 8
        tracemalloc.start()
        try:
            feature_matrix(basis, X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= P_bytes + 1.5 * block_bytes


class TestMonomialBasis:
    def test_layout_sizes(self):
        basis = MonomialBasis(n=2, degree_set=(1, 2), n_u=2)
        assert basis.block_sizes == (2, 3)
        assert sum(basis.block_sizes) == 5
        assert basis.n_f == 7

    def test_degree_set_normalized(self):
        basis = MonomialBasis(n=3, degree_set=(3, 1, 3))
        assert basis.degree_set == (1, 3)

    def test_slices(self):
        basis = MonomialBasis(n=2, degree_set=(1, 2), n_u=2)
        assert basis.degree_slice(1) == slice(0, 2)
        assert basis.degree_slice(2) == slice(2, 5)
        assert basis.input_slice == slice(5, 7)
        with pytest.raises(KeyError):
            basis.degree_slice(3)

    def test_empty_degree_set_rejected(self):
        with pytest.raises(ValueError):
            MonomialBasis(n=2, degree_set=())

    @given(
        st.integers(1, 5),
        st.sets(st.integers(0, 4), min_size=1, max_size=5),
        st.integers(0, 3),
    )
    def test_nf_formula(self, n, degrees, n_u):
        basis = MonomialBasis(n=n, degree_set=tuple(degrees), n_u=n_u)
        assert basis.n_f == sum(monomial_count(n, i) for i in degrees) + n_u


class TestFeatureVector:
    def test_worked_example_column_one(self):
        basis = MonomialBasis(n=2, degree_set=(1, 2), n_u=2)
        p = feature_matrix(basis, np.array([[1.0], [0.0]]), np.zeros((2, 1)))[:, 0]
        np.testing.assert_array_equal(p, [1, 0, 1, 0, 0, 0, 0])

    def test_worked_example_input_column(self):
        basis = MonomialBasis(n=2, degree_set=(1, 2), n_u=2)
        p = feature_matrix(basis, np.zeros((2, 1)), np.array([[1.0], [0.0]]))[:, 0]
        np.testing.assert_array_equal(p, [0, 0, 0, 0, 0, 1, 0])

    def test_degree_zero_only(self):
        basis = MonomialBasis(n=3, degree_set=(0,), n_u=2)
        X, U = np.array([[7.0, -2.0, 1.0]]).T, np.array([[3.0, 4.0]]).T
        p = feature_matrix(basis, X, U)[:, 0]
        np.testing.assert_array_equal(p, [1, 3, 4])

    def test_feature_matrix_columnwise(self, rng):
        basis = MonomialBasis(n=3, degree_set=(1, 3), n_u=1)
        X = rng.standard_normal((3, 5))
        U = rng.standard_normal((1, 5))
        P = feature_matrix(basis, X, U)
        for k in range(5):
            np.testing.assert_array_equal(P[:, [k]], feature_matrix(basis, X[:, [k]], U[:, [k]]))

    def test_shape_validation(self):
        basis = MonomialBasis(n=2, degree_set=(1,), n_u=1)
        with pytest.raises(ValueError):
            feature_matrix(basis, np.zeros((3, 1)))
        with pytest.raises(ValueError):
            feature_matrix(basis, np.zeros(2))
        with pytest.raises(ValueError):
            feature_matrix(basis, np.zeros((2, 1)), np.zeros((2, 1)))


@settings(max_examples=30)
@given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 100))
def test_compress_scaling_homogeneity(n, i, seed):
    """Compressed powers are homogeneous of degree i."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    t = 1.0 + rng.random()
    np.testing.assert_allclose(
        compress_column(t * x, i), t**i * compress_column(x, i), rtol=1e-12
    )


class TestOrderedProduct:
    @staticmethod
    def row_sum(A, B):
        """``A.T @ B`` as the sequential row sum from zero, one outer product per row."""
        D = np.zeros((A.shape[1], B.shape[1]))
        for a, b in zip(A, B):
            D += np.multiply.outer(a, b)
        return D

    @pytest.mark.parametrize(
        "N, n, m, order",
        [(512, 7, 1, "C"), (512, 1, 16, "C"), (1, 7, 16, "C"), (512, 7, 16, "F"),
         (100, 1, 1, "C"), (100, 1, 1, "F"), (9, 2, 1, "F"), (1, 1, 1, "C"),
         (20000, 1, 1, "C"), (5000, 3, 1, "F")],
        ids=["one-pair", "n-1", "N-1", "F-order", "1x1", "1x1-F", "small-F", "scalar",
             "1x1-chunks", "chunks-F"],
    )
    def test_bitwise_the_sequential_row_sum(self, rng, N, n, m, order):
        # np.add sums the only axis of a 1 x 1 product pairwise, from N = 8 on;
        # rows beyond one chunk of PRODUCT_BLOCK_ENTRIES products add to its sums
        A = np.asarray(rng.standard_normal((N, n)), order=order)
        B = rng.standard_normal((N, m))
        assert ordered_product(A, B).tobytes() == self.row_sum(A, B).tobytes()

    def test_each_column_is_its_own_product(self, rng):
        A, B = rng.standard_normal((300, 5)), rng.standard_normal((300, 40))
        whole = ordered_product(A, B)
        for k in range(B.shape[1]):
            assert whole[:, k].tobytes() == ordered_product(A, B[:, k : k + 1])[:, 0].tobytes()

    def test_zero_sum_is_positive_zero(self):
        # summed from +0.0: negative zero products add up to +0.0, as the row sum does
        D = ordered_product(-np.ones((3, 2)), np.zeros((3, 1)))
        assert not np.signbit(D).any()
