"""Intrusive reduction against dense oracles."""

import numpy as np
import pytest

from exactopinf.benchmarks import BURGERS, build
from exactopinf.exact_opinf import rank_ensuring_pairs
from exactopinf.fom import PolynomialFOM, eval_rhs, from_dense_operators
from exactopinf.galerkin import AggregatedOperator, MissingMultilinearAccess, intrusive_reduce
from exactopinf.tensor_poly import (
    MonomialBasis,
    compress_states,
    enumerate_monomials,
    feature_matrix,
    monomial_count,
    multiplicity,
)


def per_monomial_blocks(fom, V):
    """The reference kernel: one multilinear-map call per monomial column."""
    n = V.shape[1]
    return {
        i: np.stack(
            [
                multiplicity(tup) * (V.T @ fom.multilinear[i](*(V[:, j - 1] for j in tup)))
                for tup in enumerate_monomials(n, i)
            ],
            axis=1,
        )
        for i in fom.degree_set
    }


class TestAggregatedOperator:
    def test_block_access(self, rng):
        basis = MonomialBasis(n=2, degree_set=(1, 2), n_u=2)
        M = rng.standard_normal((2, basis.n_f))
        op = AggregatedOperator(basis=basis, matrix=M)
        np.testing.assert_array_equal(op.degree_block(1), M[:, 0:2])
        np.testing.assert_array_equal(op.degree_block(2), M[:, 2:5])
        np.testing.assert_array_equal(op.input_block, M[:, 5:7])

    def test_shape_and_finiteness_validation(self):
        basis = MonomialBasis(n=2, degree_set=(1,))
        with pytest.raises(ValueError):
            AggregatedOperator(basis=basis, matrix=np.zeros((2, 3)))
        bad = np.zeros((2, 2))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            AggregatedOperator(basis=basis, matrix=bad)


class TestIntrusiveReduce:
    def test_identity_basis_diagonal_linear(self, rng):
        N = 5
        A1 = rng.standard_normal((N, N))
        fom = from_dense_operators({1: A1})
        V = np.eye(N)[:, :3]
        red = intrusive_reduce(fom, V)
        np.testing.assert_allclose(red.degree_block(1), A1[:3, :3], rtol=1e-13)

    def test_dimension_one_scalar_operators(self, rng):
        N = 6
        fom, = (from_dense_operators(
            {i: rng.standard_normal((N, monomial_count(N, i))) for i in (1, 2)}
        ),)
        v = rng.standard_normal(N)
        v /= np.linalg.norm(v)
        red = intrusive_reduce(fom, v.reshape(N, 1))
        # n=1: each block is the scalar v^T H_i(v, ..., v), multiplicity 1
        for i in (1, 2):
            expected = v @ fom.multilinear[i](*([v] * i))
            np.testing.assert_allclose(red.degree_block(i)[0, 0], expected, rtol=1e-12)

    def test_quadratic_action_oracle(self, rng):
        # reduced block applied to compressed reduced squares must equal the
        # projected full-order quadratic action: the multiplicity bookkeeping
        N, n = 6, 3
        A2 = rng.standard_normal((N, monomial_count(N, 2)))
        fom = from_dense_operators({2: A2})
        V = np.linalg.qr(rng.standard_normal((N, n)))[0]
        red = intrusive_reduce(fom, V)
        for _ in range(20):
            xt = rng.standard_normal(n)
            lhs = red.degree_block(2) @ compress_states(xt[:, None], 2)[:, 0]
            rhs = V.T @ (A2 @ compress_states((V @ xt)[:, None], 2)[:, 0])
            np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-12)

    def test_input_block(self, rng):
        N = 5
        B = rng.standard_normal((N, 2))
        fom = from_dense_operators({1: rng.standard_normal((N, N))}, B)
        V = np.linalg.qr(rng.standard_normal((N, 2)))[0]
        red = intrusive_reduce(fom, V)
        np.testing.assert_allclose(red.input_block, V.T @ B, rtol=1e-12)

    def test_missing_multilinear(self):
        fom = PolynomialFOM(dimension=2, degree_set=(1,), n_u=0, rhs=lambda x, u: x)
        with pytest.raises(MissingMultilinearAccess):
            intrusive_reduce(fom, np.eye(2))

    @pytest.mark.parametrize("shape", [(64, 3), (128,)], ids=["short", "one-d"])
    def test_basis_of_another_height_rejected(self, shape):
        # generate_ensemble's check and message, before any map is called
        fom, _, _ = build(BURGERS)
        with pytest.raises(ValueError, match=r"basis has shape .*, model dimension is 128"):
            intrusive_reduce(fom, np.ones(shape))

    @pytest.mark.parametrize("full", [False, True], ids=["orthonormal", "identity"])
    def test_matches_projected_rhs(self, rng, full):
        # the reduced operator on reduced features is the projected model;
        # on the full basis V = I it is the model itself
        N = 6
        fom = from_dense_operators(
            {i: rng.standard_normal((N, monomial_count(N, i))) for i in (0, 1, 2)}
        )
        V = np.eye(N) if full else np.linalg.qr(rng.standard_normal((N, 3)))[0]
        red = intrusive_reduce(fom, V)
        for _ in range(10):
            xt = rng.standard_normal(V.shape[1])
            np.testing.assert_allclose(
                red.matrix @ feature_matrix(red.basis, xt[:, None])[:, 0],
                V.T @ eval_rhs(fom, V @ xt, None),
                rtol=1e-11,
                atol=1e-12,
            )

    @pytest.mark.parametrize(
        "data, n", [("ice_data", 4), ("chafee_data", 14), ("burgers_data", 10)]
    )
    def test_chunked_matches_per_monomial_loop(self, request, data, n):
        d = request.getfixturevalue(data)
        V = d["pod"].matrix(n)
        red = intrusive_reduce(d["fom"], V)
        for i, ref in per_monomial_blocks(d["fom"], V).items():
            got = red.degree_block(i)
            assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref), i

    @pytest.mark.parametrize("data", ["ice_data", "chafee_data", "burgers_data"])
    def test_every_width_is_a_cut_of_the_widest(self, request, data):
        # the reference on V[:, :n] is bitwise the rows 1..n of the widest one
        # and the columns of the pairs whose states vanish beyond row n, the
        # columns narrow keeps of an ensemble: the inference's nesting rule
        d = request.getfixturevalue(data)
        V = d["pod"].V
        widest = intrusive_reduce(d["fom"], V)
        states, _ = rank_ensuring_pairs(widest.basis)
        for n in range(1, V.shape[1] + 1):
            cut = widest.matrix[:n, ~states[n:].any(axis=0)]
            assert intrusive_reduce(d["fom"], V[:, :n]).matrix.tobytes() == cut.tobytes(), n
