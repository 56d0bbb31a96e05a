"""Single-step ensembles and the square inference solve."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from exactopinf.benchmarks import CHAFEE_INFANTE, SPECS, build
from exactopinf.diagnostics import relative_operator_error
import exactopinf.exact_opinf as exact_opinf
from exactopinf.exact_opinf import (
    SingularDataMatrixError,
    SnapshotEnsemble,
    _condition_number,
    _largest_singular_value,
    _square_solver,
    estimate_dt,
    generate_ensemble,
    infer,
    narrow,
    pair_solver,
    pair_tags,
    rank_ensuring_pairs,
    solve_square,
    standard_opinf,
    sweep,
)
from exactopinf.fom import (
    NonFiniteStateError,
    PolynomialFOM,
    SnapshotMatrix,
    eval_rhs,
    explicit_euler_step,
    from_dense_operators,
    simulate,
)
from exactopinf.galerkin import intrusive_reduce
from exactopinf.pod import PodBasis, pod_basis
from exactopinf.tensor_poly import MonomialBasis, feature_matrix, monomial_count

# The two-dimensional worked example with degrees {1, 2} and two inputs:
# seven pairs whose feature vectors form this square integer matrix.
WORKED_EXAMPLE_P = np.array(
    [
        [1, 0, 2, 1, 0, 0, 0],
        [0, 1, 0, 1, 2, 0, 0],
        [1, 0, 4, 1, 0, 0, 0],
        [0, 0, 0, 1, 0, 0, 0],
        [0, 1, 0, 1, 4, 0, 0],
        [0, 0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 0, 1],
    ],
    dtype=float,
)


def pairs_P(n, degree_set, n_u=0, scale=1.0):
    """The feature matrix of the rank-ensuring pairs of a layout."""
    basis = MonomialBasis(n=n, degree_set=degree_set, n_u=n_u)
    return feature_matrix(basis, *rank_ensuring_pairs(basis, scale))


def random_dense_fom(rng, N, degrees, n_u=0, scale=1.0):
    matrices = {
        i: scale * rng.standard_normal((N, monomial_count(N, i))) for i in degrees
    }
    B = scale * rng.standard_normal((N, n_u)) if n_u else None
    return from_dense_operators(matrices, B)


class TestRankEnsuringStates:
    # the states of the rank-ensuring pairs, the columns of rank_ensuring_pairs
    def test_two_vars_degrees_one_two(self):
        states, _ = rank_ensuring_pairs(MonomialBasis(n=2, degree_set=(1, 2)))
        expected = [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
        assert [tuple(s) for s in states.T] == expected

    def test_degree_zero_is_origin(self):
        basis = MonomialBasis(n=3, degree_set=(0,))
        states, _ = rank_ensuring_pairs(basis)
        assert states.shape[1] == 1
        assert pair_tags(basis) == [("state", 0, ())]
        np.testing.assert_array_equal(states[:, 0], np.zeros(3))

    def test_degree_two_in_three_vars(self):
        states = list(rank_ensuring_pairs(MonomialBasis(n=3, degree_set=(2,)))[0].T)
        assert len(states) == 6
        seen = {tuple(s) for s in states}
        assert len(seen) == 6
        for s in states:
            assert s.sum() == 2
            assert np.all(s >= 0)
            assert np.all(s == np.round(s))


class TestRankEnsuringPairs:
    def test_worked_example_pairs(self):
        basis = MonomialBasis(n=2, degree_set=(1, 2), n_u=2)
        states, inputs = rank_ensuring_pairs(basis)
        tags = pair_tags(basis)
        assert states.shape == (2, 7) and inputs.shape == (2, 7) and len(tags) == 7
        assert [tuple(x) for x in states[:, :5].T] == [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
        for s in range(5):
            assert np.all(inputs[:, s] == 0)
            assert tags[s][0] == "state"
        for j, s in enumerate(range(5, 7), start=1):
            assert np.all(states[:, s] == 0)
            assert tags[s] == ("input", j)
            expected = np.zeros(2)
            expected[j - 1] = 1.0
            np.testing.assert_array_equal(inputs[:, s], expected)

    def test_golden_counts(self):
        assert rank_ensuring_pairs(MonomialBasis(14, (1, 2, 3), 1))[0].shape[1] == 680
        assert rank_ensuring_pairs(MonomialBasis(7, (3, 8), 0))[0].shape[1] == 3087

    def test_worked_example_feature_matrix(self):
        P = pairs_P(2, (1, 2), 2)
        np.testing.assert_array_equal(P, WORKED_EXAMPLE_P)

    def test_column_order_matches_feature_layout(self):
        # the tag of the s-th state pair is the s-th monomial tuple, and its
        # state is the sum of the unit vectors that tuple names
        from exactopinf.tensor_poly import enumerate_monomials

        n, degrees = 3, (1, 3)
        basis = MonomialBasis(n=n, degree_set=degrees)
        expected = [tup for i in degrees for tup in enumerate_monomials(n, i)]
        assert [tag[2] for tag in pair_tags(basis)] == expected
        states, _ = rank_ensuring_pairs(basis)
        for tup, x in zip(expected, states.T):
            np.testing.assert_array_equal(x, np.bincount(np.array(tup) - 1, minlength=n))

    def test_scale_multiplies_feature_rows_by_powers(self):
        # P(cS) = diag(c^i) P(S), exact for a power of two; inputs stay unit
        basis = MonomialBasis(n=2, degree_set=(1, 2), n_u=2)
        states, inputs = rank_ensuring_pairs(basis, scale=8.0)
        np.testing.assert_array_equal(states, 8.0 * rank_ensuring_pairs(basis)[0])
        np.testing.assert_array_equal(inputs, rank_ensuring_pairs(basis)[1])
        row_scale = np.array([8.0, 8.0, 64.0, 64.0, 64.0, 1.0, 1.0])
        np.testing.assert_array_equal(
            pairs_P(2, (1, 2), 2, scale=8.0), row_scale[:, None] * WORKED_EXAMPLE_P
        )

    @pytest.mark.parametrize("scale", [0.0, -1.0, np.inf, np.nan])
    def test_scale_must_be_positive_and_finite(self, scale):
        with pytest.raises(ValueError):
            rank_ensuring_pairs(MonomialBasis(n=2, degree_set=(1, 2)), scale=scale)


class TestFullRankSweep:
    def test_all_small_cases_invertible(self):
        # every dimension up to 5, every nonempty degree subset of {0..4},
        # and three input widths: the square feature matrix is invertible
        import itertools

        degrees_pool = (0, 1, 2, 3, 4)
        count = 0
        for n in range(1, 6):
            for r in range(1, len(degrees_pool) + 1):
                for I in itertools.combinations(degrees_pool, r):
                    for n_u in (0, 1, 3):
                        basis = MonomialBasis(n=n, degree_set=I, n_u=n_u)
                        P = pairs_P(n, I, n_u)
                        assert P.shape == (basis.n_f, basis.n_f)
                        svals = np.linalg.svd(P, compute_uv=False)
                        assert svals[-1] > 0, (n, I, n_u)
                        count += 1
        assert count == 5 * 31 * 3  # 465 cases


class TestEstimateDt:
    def test_hand_computed_value(self):
        # single relevant mode: s goes 1 -> 3 over unit time; I = {1, 2}
        X = np.zeros((2, 2))
        X[0] = [1.0, 3.0]
        snaps = SnapshotMatrix(
            states=X, times=np.array([0.0, 1.0]), inputs=np.zeros((0, 2))
        )
        basis = PodBasis(V=np.eye(2)[:, :1], singular_values=np.array([1.0]))
        dt = estimate_dt(snaps, basis, (1, 2), 0)
        assert dt == pytest.approx(np.sqrt(2.0) / 2.0)

    def test_skips_vanishing_features(self):
        X = np.zeros((2, 3))
        X[0] = [0.0, 1.0, 2.0]
        snaps = SnapshotMatrix(
            states=X, times=np.arange(3.0), inputs=np.zeros((0, 3))
        )
        basis = PodBasis(V=np.eye(2)[:, :1], singular_values=np.array([1.0]))
        # k=0 has zero feature norm and is skipped; k=1 gives ratio 1/1
        assert estimate_dt(snaps, basis, (1,), 0) == pytest.approx(1.0)

    def test_all_vanishing_raises(self):
        snaps = SnapshotMatrix(
            states=np.zeros((2, 3)), times=np.arange(3.0), inputs=np.zeros((0, 3))
        )
        basis = PodBasis(V=np.eye(2)[:, :1], singular_values=np.array([1.0]))
        with pytest.raises(ValueError):
            estimate_dt(snaps, basis, (1,), 0)

    def test_input_in_denominator(self):
        X = np.zeros((2, 2))
        X[0] = [0.0, 2.0]
        snaps = SnapshotMatrix(
            states=X, times=np.array([0.0, 1.0]), inputs=np.full((1, 2), 3.0)
        )
        basis = PodBasis(V=np.eye(2)[:, :1], singular_values=np.array([1.0]))
        # num = 2, den = sqrt(0 + 3^2) = 3
        assert estimate_dt(snaps, basis, (1,), 1) == pytest.approx(1.5)

    @pytest.mark.parametrize("n_u", [0, 2])
    def test_input_count_must_match(self, n_u):
        # the snapshots carry one input row; the layout is read, not ignored
        snaps = SnapshotMatrix(
            states=np.array([[0.0, 2.0], [0.0, 0.0]]),
            times=np.array([0.0, 1.0]),
            inputs=np.full((1, 2), 3.0),
        )
        basis = PodBasis(V=np.eye(2)[:, :1], singular_values=np.array([1.0]))
        with pytest.raises(ValueError, match="inputs have shape"):
            estimate_dt(snaps, basis, (1,), n_u)


class TestGenerateEnsemble:
    def test_zero_rhs_zero_derivatives(self):
        fom = PolynomialFOM(dimension=3, degree_set=(1,), n_u=0, rhs=lambda x, u: np.zeros_like(x))
        ens = generate_ensemble(fom, np.eye(3), 0.1)
        np.testing.assert_array_equal(ens.derivatives, np.zeros((3, 3)))

    def test_dt_cancels_for_polynomial_rhs(self, rng):
        # the quotient equals the rhs at the start state for any dt
        N = 4
        A1 = rng.standard_normal((N, N))
        fom = from_dense_operators({1: A1})
        for dt in (1e-3, 1.0, 1e3):
            ens = generate_ensemble(fom, np.eye(N), dt)
            np.testing.assert_allclose(ens.derivatives[:, 0], A1[:, 0], rtol=1e-12)

    def test_quotients_match_rhs_oracle(self, rng):
        N, n = 6, 3
        fom = random_dense_fom(rng, N, (1, 2))
        V = np.linalg.qr(rng.standard_normal((N, n)))[0]
        ens = generate_ensemble(fom, V, 1e-3)
        states, _ = rank_ensuring_pairs(ens.basis)
        for s, state in enumerate(states.T):
            expected = V.T @ eval_rhs(fom, V @ state, None)
            scale = np.linalg.norm(expected)
            np.testing.assert_allclose(
                ens.derivatives[:, s], expected, rtol=1e-10, atol=1e-12 * scale
            )

    def test_minimality_square(self):
        ens_basis = MonomialBasis(n=3, degree_set=(1, 2), n_u=2)
        fom = PolynomialFOM(
            dimension=5, degree_set=(1, 2), n_u=2, rhs=lambda x, u: np.zeros_like(x)
        )
        V = np.eye(5)[:, :3]
        ens = generate_ensemble(fom, V, 1.0)
        assert ens.size == ens_basis.n_f
        assert ens.derivatives.shape == (3, ens_basis.n_f)

    @pytest.mark.parametrize("scale", [1.0, 8.0])
    def test_pairs_follow_model_and_basis(self, rng, scale):
        fom = random_dense_fom(rng, 6, (0, 1, 3), n_u=1)
        V = np.linalg.qr(rng.standard_normal((6, 3)))[0]
        ens = generate_ensemble(fom, V, 0.1, scale)
        layout = MonomialBasis(n=V.shape[1], degree_set=fom.degree_set, n_u=fom.n_u)
        assert ens.basis == layout
        assert ens.scale == scale
        assert ens.derivatives.shape == (3, layout.n_f)
        assert pair_tags(ens.basis)[-1] == ("input", 1)

    @pytest.mark.parametrize("scale", [1.0, 8.0, 2.0**-20])
    def test_high_degree_lifts_are_left_to_right_sums(self, scale):
        # each start state is scale times the basis columns its tag names,
        # added left to right from zero; a lift by V @ X rounds differently
        # for most of these degree-{3, 8} states
        starts = []

        def rhs(x, u):
            starts.extend(x.T.copy())  # a block's columns, in pair order
            return np.zeros_like(x)

        fom = PolynomialFOM(dimension=6, degree_set=(3, 8), n_u=0, rhs=rhs)
        V = np.linalg.qr(np.random.default_rng(11).standard_normal((6, 3)))[0]
        ensemble = generate_ensemble(fom, V, 0.1, scale)
        expected = []
        for _, _, tup in pair_tags(ensemble.basis):
            state = []
            for row in V.tolist():
                total = 0.0
                for j in tup:
                    total += row[j - 1]
                state.append(total * scale)
            expected.append(state)
        assert len(starts) == 55
        assert np.array_equal(np.array(starts), np.array(expected))

    @pytest.mark.filterwarnings("ignore:divide by zero", "ignore:invalid value")
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_non_finite_column_names_its_pair(self, k):
        # the three pairs are one block, stepped by one rhs call; only the
        # unit state e_(k+1) divides by zero
        fom = PolynomialFOM(
            dimension=3, degree_set=(1,), n_u=0, rhs=lambda x, u: x / (1.0 - x[k : k + 1])
        )
        match = rf"^single step failed for pair \('state', 1, \({k + 1},\)\): right-hand side returned"
        with pytest.raises(NonFiniteStateError, match=match):
            generate_ensemble(fom, np.eye(3), 0.1)

    def test_memory_is_bounded_by_a_block_of_pairs(self):
        # shallow ice at n = 7: the (n_f, N) lift and the (N, n_f) quotients
        # were 12.6 MB each (a 25.9 MB peak); stepped and projected in blocks
        # of PRODUCT_BLOCK_ENTRIES // N pairs, the peak is a few blocks and
        # the n x n_f data, and grows from n = 5 by far less than such a lift
        spec = SPECS["shallow_ice"]
        fom, _, _ = build(spec)
        V = np.linalg.qr(np.random.default_rng(7).standard_normal((spec.N, 7)))[0]
        peaks, sizes = [], []
        for n in (5, 7):
            pair_tags(MonomialBasis(n=n, degree_set=spec.degree_set))  # fill the caches
            tracemalloc.start()
            try:
                ensemble = generate_ensemble(fom, V[:, :n], 1e10, spec.state_scale)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            sizes.append(ensemble.size)
        assert peaks[1] < 4e6
        assert peaks[1] - peaks[0] < 0.1 * 8 * spec.N * (sizes[1] - sizes[0])

    @pytest.mark.parametrize("shape", [(4,), (5, 2), (3, 2)], ids=["1-d", "5-rows", "3-rows"])
    @pytest.mark.parametrize(
        "build",
        [generate_ensemble, lambda *args: next(sweep(*args))],
        ids=["generate_ensemble", "sweep"],
    )
    def test_basis_must_match_model(self, rng, build, shape):
        fom = random_dense_fom(rng, 4, (1, 2))
        with pytest.raises(ValueError, match=r"basis has shape .*model dimension is 4"):
            build(fom, np.ones(shape), 0.1)


class TestSolveSquare:
    def test_solves_from_the_right(self, rng):
        P = rng.standard_normal((5, 5)) + 5 * np.eye(5)
        X = rng.standard_normal((3, 5))
        np.testing.assert_allclose(solve_square(P, X @ P), X, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(solve_square(P, X[0] @ P), X[0], rtol=1e-12, atol=1e-12)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            solve_square(np.ones((2, 3)), np.ones(3))


class TestInfer:
    def test_identity_data_matrix(self):
        basis = MonomialBasis(n=2, degree_set=(1,))
        derivs = np.array([[1.0, 2.0], [3.0, 4.0]])
        # the pairs e_1, e_2 of this layout give P = I
        ens = SnapshotEnsemble(basis=basis, dt=1.0, derivatives=derivs)
        res = infer(ens)
        np.testing.assert_allclose(res.operator.matrix, derivs, rtol=1e-14)

    def test_worked_example_recovers_random_operator(self, rng):
        basis = MonomialBasis(n=2, degree_set=(1, 2), n_u=2)
        O = rng.standard_normal((2, 7))
        ens = SnapshotEnsemble(basis=basis, dt=1.0, derivatives=O @ WORKED_EXAMPLE_P)
        res = infer(ens)
        np.testing.assert_allclose(res.operator.matrix, O, rtol=1e-13)
        assert res.residual < 1e-12

    def test_singular_guard(self):
        with pytest.raises(SingularDataMatrixError):
            solve_square(np.ones((2, 2)), np.zeros(2))

    def test_guard_is_invariant_to_state_scale(self):
        # a cubic term weakened by 2^-48 matches the linear term in data
        # stepped at amplitude 2^24, where P(cS) = diag(c^i) P(S) spans
        # sixteen orders of magnitude: a pivot guard relative to max|P|
        # calls that invertible matrix singular
        rng = np.random.default_rng(3)
        N, n, degrees, scale = 5, 2, (1, 3), 2.0**24
        fom = from_dense_operators(
            {
                1: rng.standard_normal((N, N)),
                3: 2.0**-48 * rng.standard_normal((N, monomial_count(N, 3))),
            }
        )
        V = np.linalg.qr(rng.standard_normal((N, n)))[0]
        ens = generate_ensemble(fom, V, 0.1, scale)
        P = pairs_P(n, degrees, 0, scale)
        lu, _ = scipy.linalg.lu_factor(P.T)
        assert np.min(np.abs(np.diag(lu))) < 1e-14 * np.max(np.abs(P))
        res = infer(ens)
        assert relative_operator_error(res.operator, intrusive_reduce(fom, V)) < 1e-10

    def test_degenerate_constant_only(self):
        # degree set {0} with no inputs: P = [1], recover the constant column
        c = np.array([2.0, -1.0, 0.5])
        fom = from_dense_operators({0: c.reshape(3, 1)})
        res = infer(generate_ensemble(fom, np.eye(3), 1.0))
        np.testing.assert_allclose(res.operator.matrix[:, 0], c, rtol=1e-14)


def _zero_ensemble(basis, scale=1.0):
    """An ensemble of the pairs of ``basis`` at ``scale`` with zero derivatives."""
    return SnapshotEnsemble(basis, 1.0, np.zeros((basis.n, basis.n_f)), scale)


def _support_order(basis):
    """Feature indices by (support size, support, canonical index), and their supports."""
    supports = [
        tuple(sorted(set(tag[2]))) if tag[0] == "state" else () for tag in pair_tags(basis)
    ]
    order = sorted(range(basis.n_f), key=lambda f: (len(supports[f]), supports[f], f))
    return order, [supports[f] for f in order]


# the layouts of the structure and recovery tests: (basis, scale)
SUPPORT_LAYOUTS = [
    pytest.param(MonomialBasis(4, (1, 2, 3), 1), 1.0, id="1-2-3-input"),
    pytest.param(MonomialBasis(4, (3, 8)), 1.0, id="3-8"),
    pytest.param(MonomialBasis(4, (0, 3), 1), 1.0, id="0-3-input"),
    pytest.param(MonomialBasis(4, (1, 2)), 8.0, id="1-2-scale-8"),
    pytest.param(MonomialBasis(4, (0,)), 1.0, id="0"),
]


class TestSupportLevels:
    """``P`` ordered by support: block upper triangular by support size, and
    block diagonal with one repeated block within a size."""

    @pytest.mark.parametrize("basis, scale", SUPPORT_LAYOUTS)
    def test_block_triangular_with_equal_blocks(self, basis, scale):
        order, supports = _support_order(basis)
        P = feature_matrix(basis, *rank_ensuring_pairs(basis, scale))[np.ix_(order, order)]
        sizes = np.array([len(S) for S in supports])
        blocks = np.cumsum([0] + [a != b for a, b in zip(supports, supports[1:])])
        assert np.all(P[sizes[:, None] > sizes[None, :]] == 0)
        same_level = sizes[:, None] == sizes[None, :]
        assert np.all(P[same_level & (blocks[:, None] != blocks[None, :])] == 0)
        for k in np.unique(sizes):
            first, *rest = np.unique(blocks[sizes == k])
            block = P[np.ix_(blocks == first, blocks == first)]
            for b in rest:
                assert np.array_equal(P[np.ix_(blocks == b, blocks == b)], block)

    @pytest.mark.parametrize("basis, scale", SUPPORT_LAYOUTS)
    def test_random_operator_recovered_per_block(self, basis, scale):
        # to 1e-13 relative in every degree and input block; P of degrees
        # {3, 8} at n = 4 has cond 2.4e7, too large for that in degree 3, so
        # there no block may be worse than the dense LU's
        P = feature_matrix(basis, *rank_ensuring_pairs(basis, scale))
        O = np.random.default_rng(5).standard_normal((basis.n, basis.n_f))
        X = pair_solver(basis, scale).right_solve(O @ P)
        dense = scipy.linalg.lu_solve(scipy.linalg.lu_factor(P.T), (O @ P).T).T
        blocks = [basis.degree_slice(i) for i in basis.degree_set] + [basis.input_slice]
        for cols in [cols for cols in blocks if cols.start < cols.stop]:

            def error(M):
                return np.linalg.norm(M[:, cols] - O[:, cols]) / np.linalg.norm(O[:, cols])

            assert error(X) <= (error(dense) if basis.degree_set == (3, 8) else 1e-13), cols

    @pytest.mark.parametrize("basis, scale", SUPPORT_LAYOUTS)
    def test_no_row_swap_crosses_a_degree(self, basis, scale):
        # each level block is eliminated degree by degree, lowest first, with the
        # inputs last: every pivot row of a column has that column's degree
        degrees = np.array([tag[1] if tag[0] == "state" else -1 for tag in pair_tags(basis)])
        for idx, _, (_, piv), _, _, _ in pair_solver(basis, scale).levels:
            assert np.array_equal(degrees[idx[0]][piv], degrees[idx[0]])

    def test_products_and_solves_match_the_dense_matrix(self, rng):
        basis = MonomialBasis(3, (0, 1, 3), 2)
        P = feature_matrix(basis, *rank_ensuring_pairs(basis, 2.0))
        solver = pair_solver(basis, 2.0)
        x, Y = rng.standard_normal(basis.n_f), rng.standard_normal((3, basis.n_f))
        np.testing.assert_allclose(solver.right_product(Y), Y @ P, rtol=1e-14, atol=1e-13)
        np.testing.assert_allclose(solver.left_product(x), P @ x, rtol=1e-14, atol=1e-13)
        np.testing.assert_allclose(P @ solver.inverse_times(x), x, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(solver.times_inverse(Y[0]) @ P, Y[0], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(solver.right_solve(Y) @ P, Y, rtol=1e-12, atol=1e-12)
        assert solver.max_abs == np.max(np.abs(P))


def _arpack_condition_number(P):
    """``cond_2(P)`` from ARPACK's largest eigenvalue of ``P^T P`` and of its inverse,
    by a dense LU of ``P``: an oracle that shares no code with the package."""
    from scipy.sparse.linalg import LinearOperator, eigsh

    lu = scipy.linalg.lu_factor(P)
    v0 = np.random.default_rng(0).standard_normal(len(P))

    def largest(matvec):
        operator = LinearOperator(P.shape, matvec=matvec, dtype=float)
        return eigsh(operator, k=1, which="LA", tol=1e-14, v0=v0, return_eigenvectors=False)[0]

    inverse = largest(lambda x: scipy.linalg.lu_solve(lu, scipy.linalg.lu_solve(lu, x, trans=1)))
    return float(np.sqrt(largest(lambda x: P.T @ (P @ x)) * inverse))


def _pair_matrix_cases():
    """``(spec, n)`` for every ``n`` of the three sweeps, and Chafee-Infante at 24."""
    cases = [(spec, n) for spec in SPECS.values() for n in range(1, spec.n_max + 1)]
    cases.append((CHAFEE_INFANTE, 24))
    return [pytest.param(spec, n, id=f"{spec.name}-{n}") for spec, n in cases]


class TestConditionNumber:
    """``infer``'s ``cond_P`` (Lanczos on ``P`` and ``P^-1`` through the
    support levels) against the singular values of ``P``, and the condition
    helper on arbitrary square matrices."""

    @pytest.mark.parametrize("spec, n", _pair_matrix_cases())
    def test_matches_svd_on_pair_matrices(self, spec, n):
        # the two largest, ice n = 7 and Chafee-Infante n = 24, against ARPACK,
        # where the dense SVD would take most of the suite's time
        basis = MonomialBasis(n=n, degree_set=spec.degree_set, n_u=spec.n_u)
        P = pairs_P(n, spec.degree_set, spec.n_u, spec.state_scale)
        cond = infer(_zero_ensemble(basis, spec.state_scale)).cond_P
        reference = _arpack_condition_number(P) if basis.n_f > 2000 else np.linalg.cond(P)
        assert cond == pytest.approx(reference, rel=1e-8)

    @pytest.mark.parametrize(
        "P",
        [
            *(np.random.default_rng(n_f).standard_normal((n_f, n_f)) for n_f in (1, 2, 4)),
            WORKED_EXAMPLE_P,
            # the estimate runs on P / max|P|, so a tiny scale is harmless
            np.array([[-1e-200]]),
        ],
        ids=["random-1", "random-2", "random-4", "worked-example", "scale-1e-200"],
    )
    def test_matches_svd_on_tiny_matrices(self, P):
        cond = _condition_number(_square_solver(P))
        assert cond == pytest.approx(np.linalg.cond(P), rel=1e-8)

    @pytest.mark.parametrize("small", [1e-20, 1e-200])
    def test_numerically_singular_is_infinite(self, small):
        # every pivot is its own row's largest entry, so the guard passes;
        # sigma_min is below the 2 * eps * sigma_max cutoff (at 1e-200 the
        # inverse's vectors would overflow a sum of squares)
        P = np.diag([1.0, small])
        assert np.linalg.matrix_rank(P) < 2
        assert _condition_number(_square_solver(P)) == np.inf

    def test_largest_singular_value_when_the_bidiagonalization_ends_early(self):
        # a zero operator maps the start to zero: no step, and sigma_max is 0;
        # the rank-one e_1 w^T gives A v_2 along u_1 after one step, and the
        # estimate is that step's Ritz value, a lower bound, not NaN or None
        assert _largest_singular_value(np.zeros_like, np.zeros_like, 3) == 0.0
        w = np.array([1.0, -2.0, 2.0])
        A = np.outer([1.0, 0.0, 0.0], w)
        sigma = _largest_singular_value(lambda x: A @ x, lambda y: A.T @ y, 3)
        assert 0 < sigma <= 3.0

    def test_deterministic(self):
        basis = MonomialBasis(n=6, degree_set=CHAFEE_INFANTE.degree_set, n_u=CHAFEE_INFANTE.n_u)
        first = infer(_zero_ensemble(basis)).cond_P
        second = infer(_zero_ensemble(basis)).cond_P
        assert np.array_equal(first, second)

    def test_one_factorization_and_no_svd(self, monkeypatch):
        # one factorization per support level, none larger than its block:
        # the worked example's levels are the inputs, {x_j, x_j^2} and x_1 x_2
        factorizations = []
        factor_square = exact_opinf._factor_square

        def counting_factor_square(P, groups):
            factorizations.append(np.shape(P))
            return factor_square(P, groups)

        def no_svd(*args, **kwargs):
            raise AssertionError("infer computed an SVD")

        monkeypatch.setattr(exact_opinf, "_factor_square", counting_factor_square)
        for module, name in [(np.linalg, "svd"), (scipy.linalg, "svd"), (scipy.linalg, "svdvals")]:
            monkeypatch.setattr(module, name, no_svd)
        basis = MonomialBasis(n=2, degree_set=(1, 2), n_u=2)
        infer(_zero_ensemble(basis))
        assert factorizations == [(2, 2), (2, 2), (1, 1)]

    def test_peak_memory_is_below_half_of_P(self):
        # a dense P alone would be 1.0 x 8 n_f^2 bytes, and its LU another
        spec, n = CHAFEE_INFANTE, 24
        basis = MonomialBasis(n=n, degree_set=spec.degree_set, n_u=spec.n_u)
        ensemble = SnapshotEnsemble(
            basis, 1.0, np.random.default_rng(1).standard_normal((n, basis.n_f))
        )
        tracemalloc.start()
        try:
            infer(ensemble)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 8 * basis.n_f**2


class TestExactRecovery:
    def test_random_dense_fom_with_inputs(self, rng):
        N, n = 8, 4
        fom = random_dense_fom(rng, N, (0, 1, 2), n_u=2)
        V = np.linalg.qr(rng.standard_normal((N, n)))[0]
        ref = intrusive_reduce(fom, V)
        res = infer(generate_ensemble(fom, V, 1e-2))
        assert relative_operator_error(res.operator, ref) < 1e-11

    def test_zero_fom(self):
        fom = PolynomialFOM(
            dimension=4, degree_set=(1, 2), n_u=0, rhs=lambda x, u: np.zeros_like(x)
        )
        res = infer(generate_ensemble(fom, np.eye(4)[:, :2], 1.0))
        np.testing.assert_allclose(res.operator.matrix, 0.0, atol=1e-15)

    def test_dt_invariance(self, rng):
        N, n = 6, 3
        fom = random_dense_fom(rng, N, (1, 2))
        V = np.linalg.qr(rng.standard_normal((N, n)))[0]
        ref = intrusive_reduce(fom, V)
        scale = 1.0 / np.linalg.norm(ref.matrix, 2)
        a = infer(generate_ensemble(fom, V, scale))
        b = infer(generate_ensemble(fom, V, 10 * scale))
        rel = np.linalg.norm(a.operator.matrix - b.operator.matrix) / np.linalg.norm(
            a.operator.matrix
        )
        assert rel < 1e-8

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_fifty_random_foms_beat_trajectory_baseline(self, rng):
        exact_better = 0
        for case in range(50):
            N = int(rng.integers(4, 11))
            degrees = sorted(
                rng.choice(np.arange(0, 4), size=int(rng.integers(1, 4)), replace=False)
            )
            n_u = int(rng.integers(0, 3))
            n = int(rng.integers(1, min(N, 5) + 1))
            fom = random_dense_fom(rng, N, tuple(int(d) for d in degrees), n_u, scale=0.3)
            V = np.linalg.qr(rng.standard_normal((N, n)))[0]
            ref = intrusive_reduce(fom, V)
            norm = np.linalg.norm(ref.matrix, 2)
            dt = 1.0 / norm if norm > 0 else 1.0
            res = infer(generate_ensemble(fom, V, dt))
            err_exact = relative_operator_error(res.operator, ref)
            assert err_exact < 1e-10, f"case {case}: exact inference error {err_exact}"

            # trajectory-data baseline on the same system
            x0 = 0.1 * rng.standard_normal(N)
            signal = None
            if n_u:
                freq = rng.uniform(0.5, 2.0, size=n_u)

                def make(freq):
                    return lambda t: 0.1 * np.sin(freq * t)

                signal = lambda t, f=freq: 0.1 * np.sin(f * t)
            try:
                snaps = simulate(fom, x0, signal, 1e-2, 200)
            except Exception:
                exact_better += 1  # baseline cannot even generate data
                continue
            reduced = SnapshotMatrix(
                states=V.T @ snaps.states, times=snaps.times, inputs=snaps.inputs
            )
            basis = MonomialBasis(n=n, degree_set=fom.degree_set, n_u=n_u)
            try:
                ls = standard_opinf(reduced, basis)
                err_ls = relative_operator_error(ls.operator, ref)
            except Exception:
                exact_better += 1
                continue
            if err_ls > err_exact:
                exact_better += 1
        assert exact_better >= 45, f"exact inference better in only {exact_better}/50"


def counting(fom):
    """``fom`` with a right-hand side that appends to the returned list per state it steps:
    one per column of a block."""
    calls = []

    def rhs(x, u):
        calls.extend([1] * (x.shape[1] if x.ndim == 2 else 1))
        return fom.rhs(x, u)

    return dataclasses.replace(fom, rhs=rhs), calls


class TestSweep:
    # sweep steps the widest ensemble once and cuts every width from it
    def test_reuse_count_linear(self, rng):
        fom, calls = counting(random_dense_fom(rng, 5, (1,)))
        V = np.linalg.qr(rng.standard_normal((5, 2)))[0]
        counts = []
        for _ in sweep(fom, V, 0.1):
            counts.append(len(calls))
        assert counts == [2, 2]  # all n_f = 2 steps before the first width

    def test_reuse_count_quadratic(self, rng):
        fom, calls = counting(random_dense_fom(rng, 6, (1, 2)))
        V = np.linalg.qr(rng.standard_normal((6, 3)))[0]
        ensembles = [ensemble for ensemble, _ in sweep(fom, V, 0.1)]
        assert len(calls) == 9  # 9 pairs at n=3: 2 + 3 + 4 steps, reusing 5
        assert [ens.size for ens in ensembles] == [2, 5, 9]

    def test_extension_equals_fresh_inference(self, rng):
        # every width, at unit and scaled amplitude: bitwise the fresh
        # inference
        model = random_dense_fom(rng, 8, (1, 2), n_u=1)
        V = np.linalg.qr(rng.standard_normal((8, 4)))[0]
        for scale in (1.0, 8.0):
            for ensemble, grown in sweep(model, V, 0.05, scale):
                n = ensemble.basis.n
                fresh = infer(generate_ensemble(model, V[:, :n], 0.05, scale))
                assert np.array_equal(grown.operator.matrix, fresh.operator.matrix)
                assert grown.cond_P == fresh.cond_P

    @pytest.mark.parametrize("grow", [1, 2])
    @pytest.mark.parametrize(
        "degrees, scale",
        [((1, 2, 3), 1.0), ((1, 2, 3), 8.0), ((0, 3), 1.0), ((0, 3), 8.0)],
        ids=["1.0", "8.0", "degrees-0-3-1.0", "degrees-0-3-8.0"],
    )
    def test_reused_steps_are_bitwise_fresh_steps(self, degrees, scale, grow):
        # the ensemble of width n = 5 - grow, from a sweep over a basis grow
        # columns wider, must be the very data a fresh ensemble of V[:, :n]
        # as its own array gives; a lift by V @ state rounds differently
        # once V has more columns, for states with three or more nonzero
        # entries; the degree-0 and input pairs, zero states, are kept at
        # every width, also when a degree gap follows degree 0
        rng = np.random.default_rng(7)
        N = 10
        fom = random_dense_fom(rng, N, degrees, n_u=1, scale=0.3)
        V = np.linalg.qr(rng.standard_normal((N, 5)))[0]
        n = 5 - grow
        grown, _ = list(sweep(fom, V, 0.01, scale))[n - 1]
        fresh = generate_ensemble(fom, np.ascontiguousarray(V[:, :n]), 0.01, scale)
        assert grown.scale == scale
        assert grown.basis == fresh.basis
        assert np.array_equal(grown.derivatives, fresh.derivatives)

    def test_first_width_matches_independent_steps(self, chafee_data):
        # oracle outside the stepping loop: each width-1 pair lifted by one
        # product with the first basis column, stepped on its own, and its
        # quotient projected by a left-to-right sum over the rows
        spec, pod = chafee_data["spec"], chafee_data["pod"]
        fom, V = chafee_data["fom"], pod.matrix(spec.n_max)
        dt = estimate_dt(chafee_data["snaps"], pod, spec.degree_set, spec.n_u)
        ensemble, _ = next(sweep(fom, V, dt, spec.state_scale))
        X, U = rank_ensuring_pairs(ensemble.basis, spec.state_scale)
        projected = []
        for s in range(X.shape[1]):
            x0 = V[:, 0] * X[0, s]
            quotient = (explicit_euler_step(fom, x0, U[:, s], dt) - x0) / dt
            total = 0.0
            for v, q in zip(V[:, 0].tolist(), quotient.tolist()):
                total += v * q
            projected.append(total)
        assert np.array_equal(np.array([projected]), ensemble.derivatives)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_failed_step_names_its_width(self):
        # only the pair the second width adds steps out of the finite range;
        # every pair is stepped before the first width, and the tag's
        # largest index, 2, is the failed pair's first width
        fom = PolynomialFOM(
            dimension=2, degree_set=(1,), n_u=0, rhs=lambda x, u: x * np.array([[1.0], [1e308]])
        )
        widths = sweep(fom, np.eye(2), 10.0)
        match = r"^single step failed for pair \('state', 1, \(2,\)\)"
        with pytest.raises(NonFiniteStateError, match=match):
            next(widths)

    def test_narrow_keeps_its_own_width_and_rejects_others(self, rng):
        fom = random_dense_fom(rng, 5, (1, 2), n_u=1)
        ensemble = generate_ensemble(fom, np.linalg.qr(rng.standard_normal((5, 3)))[0], 0.1)
        assert narrow(ensemble, 3) is ensemble
        for n in (0, 4):
            with pytest.raises(ValueError, match=r"outside the ensemble's widths 1\.\.3"):
                narrow(ensemble, n)

    def test_singular_data_matrix_names_its_width(self, chafee_data):
        # at amplitude 2^-400 the degree-3 features (2^-1200) underflow to
        # zero, so P is singular from the first width on
        pod = chafee_data["pod"]
        widths = sweep(chafee_data["fom"], pod.matrix(2), 1e-4, 2.0**-400)
        with pytest.raises(SingularDataMatrixError, match=r"^n=1: "):
            next(widths)


class TestStandardOpinf:
    def test_recovers_operator_from_rom_trajectory(self, rng):
        # data generated by the reduced model itself: zero-residual problem
        n = 3
        basis = MonomialBasis(n=n, degree_set=(1,))
        A = rng.standard_normal((n, n)) * 0.2
        from exactopinf.galerkin import AggregatedOperator

        op = AggregatedOperator(basis=basis, matrix=A)
        # forward-difference data constructed to be exactly consistent:
        # quotient columns are A @ x_k by explicit Euler construction
        x = rng.standard_normal(n)
        states = [x]
        dt = 0.05
        for _ in range(30):
            states.append(states[-1] + dt * (A @ states[-1]))
        X = np.stack(states, axis=1)
        traj = SnapshotMatrix(
            states=X, times=dt * np.arange(31), inputs=np.zeros((0, 31))
        )
        res = standard_opinf(traj, basis)
        assert res.rank == basis.n_f
        np.testing.assert_allclose(res.operator.matrix, A, atol=1e-10)

    def test_single_step_rank_deficient_flag(self, rng):
        basis = MonomialBasis(n=3, degree_set=(1, 2))
        X = rng.standard_normal((3, 2))
        traj = SnapshotMatrix(
            states=X, times=np.array([0.0, 1.0]), inputs=np.zeros((0, 2))
        )
        res = standard_opinf(traj, basis)
        assert res.rank <= 1 < basis.n_f
        assert res.cond_P == np.inf
