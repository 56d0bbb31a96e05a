"""Full-order models: evaluation, integration, and black-box structure probes."""

import dataclasses

import numpy as np
import pytest

from exactopinf.benchmarks import SHALLOW_ICE, apply_overrides, build_shallow_ice
from exactopinf.fom import (
    NewtonError,
    NonFiniteStateError,
    PolynomialFOM,
    SnapshotMatrix,
    eval_rhs,
    explicit_euler_step,
    from_dense_operators,
    implicit_euler_step,
    simulate,
)
from exactopinf.tensor_poly import compress_states, monomial_count
from polarization import homogeneous_part, polarize


def compress_column(x, i):
    """Compressed degree-``i`` power of one state vector."""
    return compress_states(np.asarray(x)[:, None], i)[:, 0]


def band(J, lower, upper):
    """``J``'s band ``((lower, upper), ab)``: ``ab[upper + i - j, j] = J[i, j]``."""
    N = J.shape[0]
    ab = np.zeros((lower + upper + 1, N))
    for k in range(-lower, upper + 1):  # diagonal k holds J[i, i + k]
        ab[upper - k, max(k, 0) : N + min(k, 0)] = np.diagonal(J, k)
    return (lower, upper), ab


def dense(jacobian_band):
    """The square matrix of a band ``((lower, upper), ab)``."""
    (lower, upper), ab = jacobian_band
    N = ab.shape[1]
    J = np.zeros((N, N))
    for k in range(-lower, upper + 1):
        J += np.diag(ab[upper - k, max(k, 0) : N + min(k, 0)], k)
    return J


def random_dense_fom(rng, N, degrees, n_u=0, scale=1.0):
    matrices = {
        i: scale * rng.standard_normal((N, monomial_count(N, i))) for i in degrees
    }
    B = scale * rng.standard_normal((N, n_u)) if n_u else None
    return from_dense_operators(matrices, B), matrices, B


class TestEvalRhs:
    def test_dense_quadratic_oracle(self, rng):
        N = 5
        fom, mats, _ = random_dense_fom(rng, N, (1, 2))
        x = rng.standard_normal(N)
        expected = mats[1] @ x + mats[2] @ compress_column(x, 2)
        np.testing.assert_allclose(eval_rhs(fom, x, None), expected, rtol=1e-13)

    def test_rhs_matches_multilinear_diagonal(self, rng):
        N = 4
        fom, _, B = random_dense_fom(rng, N, (1, 2, 3), n_u=2)
        x = rng.standard_normal(N)
        u = rng.standard_normal(2)
        total = sum(fom.multilinear[i](*([x] * i)) for i in fom.degree_set)
        total = total + fom.input_map(u)
        np.testing.assert_allclose(eval_rhs(fom, x, u), total, rtol=1e-12)

    def test_multilinear_symmetry(self, rng):
        N = 4
        fom, _, _ = random_dense_fom(rng, N, (3,))
        a, b, c = (rng.standard_normal(N) for _ in range(3))
        h = fom.multilinear[3]
        ref = h(a, b, c)
        for perm in ((a, c, b), (b, a, c), (c, b, a), (b, c, a), (c, a, b)):
            np.testing.assert_allclose(h(*perm), ref, rtol=1e-12)

    def test_nonfinite_guard(self):
        fom = PolynomialFOM(
            dimension=1, degree_set=(1,), n_u=0, rhs=lambda x, u: np.array([np.inf])
        )
        with pytest.raises(NonFiniteStateError):
            eval_rhs(fom, np.zeros(1), None)

    def test_shape_validation(self, rng):
        fom, _, _ = random_dense_fom(rng, 3, (1,))
        with pytest.raises(ValueError):
            eval_rhs(fom, np.zeros(4), None)


class TestExplicitEuler:
    def test_fixed_point(self):
        fom = PolynomialFOM(dimension=2, degree_set=(1,), n_u=0, rhs=lambda x, u: np.zeros(2))
        x = np.array([1.0, -2.0])
        np.testing.assert_array_equal(explicit_euler_step(fom, x, np.zeros(0), 0.5), x)

    def test_input_only_step(self, rng):
        N = 3
        A1 = rng.standard_normal((N, N))
        B = rng.standard_normal((N, 2))
        fom = from_dense_operators({1: A1}, B)
        u = rng.standard_normal(2)
        np.testing.assert_allclose(
            explicit_euler_step(fom, np.zeros(N), u, 1.0), B @ u, rtol=1e-14
        )

    def test_hand_rolled_update(self, rng):
        fom, mats, _ = random_dense_fom(rng, 4, (1, 2))
        x = rng.standard_normal(4)
        dt = 0.3
        # the model is [A_1 | A_2] on the feature vector [x; x^(2)]
        f = np.hstack([mats[1], mats[2]]) @ np.concatenate([x, compress_column(x, 2)])
        expected = x + dt * f
        np.testing.assert_allclose(
            explicit_euler_step(fom, x, np.zeros(0), dt), expected, rtol=1e-15
        )

    def test_rejects_nonpositive_dt(self, rng):
        fom, _, _ = random_dense_fom(rng, 2, (1,))
        with pytest.raises(ValueError):
            explicit_euler_step(fom, np.zeros(2), np.zeros(0), 0.0)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_rejects_non_finite_result(self):
        # the right-hand side is finite; the step of size 1e307 is not
        fom = PolynomialFOM(dimension=1, degree_set=(1,), n_u=0, rhs=lambda x, u: 100.0 * x)
        with pytest.raises(NonFiniteStateError, match="finite range"):
            explicit_euler_step(fom, np.ones(1), np.zeros(0), 1e307)


class TestImplicitEuler:
    def test_scalar_decay_closed_form(self):
        # y = x + dt*(-y)  =>  y = x/(1+dt); x=1, dt=1 gives 1/2
        fom = PolynomialFOM(dimension=1, degree_set=(1,), n_u=0, rhs=lambda x, u: -x)
        y = implicit_euler_step(fom, np.array([1.0]), np.zeros(0), 1.0)
        np.testing.assert_allclose(y, [0.5], atol=1e-9)

    def test_zero_rhs_returns_state(self):
        fom = PolynomialFOM(dimension=3, degree_set=(1,), n_u=0, rhs=lambda x, u: np.zeros(3))
        x = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(implicit_euler_step(fom, x, np.zeros(0), 2.0), x)

    def test_linear_direct_solve_oracle(self, rng):
        N = 4
        A1 = rng.standard_normal((N, N))
        A1 = A1 - 5.0 * np.eye(N)  # stable
        B = rng.standard_normal((N, 1))
        fom = from_dense_operators({1: A1}, B)
        x = rng.standard_normal(N)
        u = rng.standard_normal(1)
        dt = 0.1
        expected = np.linalg.solve(np.eye(N) - dt * A1, x + dt * (B @ u))
        y = implicit_euler_step(fom, x, u, dt)
        np.testing.assert_allclose(y, expected, rtol=1e-7)

    def test_linear_direct_solve_oracle_analytic_jacobian(self, rng):
        N = 4
        A1 = rng.standard_normal((N, N))
        A1 = A1 - 5.0 * np.eye(N)  # stable
        B = rng.standard_normal((N, 1))
        fom = dataclasses.replace(
            from_dense_operators({1: A1}, B), jacobian=lambda x, u: band(A1, N - 1, N - 1)
        )
        x = rng.standard_normal(N)
        u = rng.standard_normal(1)
        dt = 0.1
        expected = np.linalg.solve(np.eye(N) - dt * A1, x + dt * (B @ u))
        y = implicit_euler_step(fom, x, u, dt)
        np.testing.assert_allclose(y, expected, rtol=1e-7)

    def test_tridiagonal_band_matches_full_band(self):
        # the shallow-ice Jacobian is a tridiagonal band; stepping with the
        # same Jacobian as a full band must give the same states and Newton
        # iterations
        N = 24
        fom, _, x0 = build_shallow_ice(apply_overrides(SHALLOW_ICE, {"N": N}))
        (lower, upper), ab = fom.jacobian(x0, None)
        assert (lower, upper) == (1, 1) and ab.shape == (3, N)

        def counted(as_full, calls):
            def jac(x, u):
                calls.append(1)
                J = fom.jacobian(x, u)
                return band(dense(J), N - 1, N - 1) if as_full else J

            return dataclasses.replace(fom, jacobian=jac)

        tri_calls, full_calls = [], []
        tri_fom = counted(False, tri_calls)
        full_fom = counted(True, full_calls)
        xt = xf = x0
        for _ in range(4):
            xt = implicit_euler_step(tri_fom, xt, None, SHALLOW_ICE.dt_pod)
            xf = implicit_euler_step(full_fom, xf, None, SHALLOW_ICE.dt_pod)
            assert np.linalg.norm(xt - xf) <= 1e-14 * np.linalg.norm(xf)
        assert len(tri_calls) == len(full_calls) > 0
        assert np.linalg.norm(xt - x0) > 0

    def test_analytic_jacobian_used(self, rng):
        N = 3
        A1 = rng.standard_normal((N, N)) - 4.0 * np.eye(N)
        calls = []

        def jac(x, u):
            calls.append(1)
            return band(A1, N - 1, N - 1)

        fom = PolynomialFOM(
            dimension=N, degree_set=(1,), n_u=0, rhs=lambda x, u: A1 @ x, jacobian=jac
        )
        x = rng.standard_normal(N)
        y = implicit_euler_step(fom, x, np.zeros(0), 0.2)
        assert calls  # Jacobian callback actually consulted
        expected = np.linalg.solve(np.eye(N) - 0.2 * A1, x)
        np.testing.assert_allclose(y, expected, rtol=1e-9)

    @pytest.mark.parametrize("lower, upper", [(2, 1), (8, 8)], ids=["2-1", "8-8"])
    def test_banded_solve_matches_dense_solve(self, lower, upper):
        # an asymmetric band, two diagonals below and one above, stored as
        # its own band and as the full band: one Newton iteration of the
        # linear model solves (I - dt*A) y = x
        rng = np.random.default_rng(7)
        N, dt = 9, 0.1
        offsets = (-2, -1, 0, 1)
        A = sum(np.diag(rng.standard_normal(N - abs(k)), k) for k in offsets)
        A -= 5.0 * np.eye(N)
        J = band(A, lower, upper)
        np.testing.assert_array_equal(dense(J), A)
        fom = PolynomialFOM(
            dimension=N,
            degree_set=(1,),
            n_u=0,
            rhs=lambda x, u: A @ x,
            jacobian=lambda x, u: J,
        )
        x = rng.standard_normal(N)
        expected = np.linalg.solve(np.eye(N) - dt * A, x)
        y = implicit_euler_step(fom, x, np.zeros(0), dt)
        assert np.linalg.norm(y - expected) <= 1e-14 * np.linalg.norm(expected)

    @pytest.mark.parametrize(
        "N, lower, upper",
        [(3, 2, 2), (3, 1, 1), (1, 0, 0)],
        ids=["full", "tridiagonal", "1x1"],
    )
    def test_singular_newton_matrix_raises_newton_error(self, N, lower, upper):
        # x' = x with dt = 1: I - dt*J is zero
        fom = PolynomialFOM(
            dimension=N,
            degree_set=(1,),
            n_u=0,
            rhs=lambda x, u: x,
            jacobian=lambda x, u: band(np.eye(N), lower, upper),
        )
        with pytest.raises(NewtonError, match=r"I - dt\*J is singular"):
            implicit_euler_step(fom, np.ones(N), np.zeros(0), 1.0)

    def test_newton_failure_raises(self):
        # rhs with no root of the implicit residual reachable: y = x + dt*(y^2+1)
        fom = PolynomialFOM(
            dimension=1, degree_set=(0, 2), n_u=0, rhs=lambda x, u: x**2 + 1.0
        )
        with pytest.raises((NewtonError, NonFiniteStateError)):
            implicit_euler_step(fom, np.array([0.0]), np.zeros(0), 10.0)


class TestSimulate:
    def test_zero_steps(self, rng):
        fom, _, _ = random_dense_fom(rng, 3, (1,))
        snaps = simulate(fom, np.ones(3), None, 0.1, 0)
        assert snaps.states.shape == (3, 1)
        np.testing.assert_array_equal(snaps.states[:, 0], np.ones(3))

    def test_constant_trajectory(self):
        fom = PolynomialFOM(dimension=2, degree_set=(1,), n_u=0, rhs=lambda x, u: np.zeros(2))
        snaps = simulate(fom, np.array([1.0, 2.0]), None, 0.1, 5)
        assert np.all(snaps.states == snaps.states[:, :1])

    def test_input_sampling_left_endpoint(self):
        seen = []

        def u_of_t(t):
            seen.append(t)
            return np.array([t])

        fom = PolynomialFOM(dimension=1, degree_set=(1,), n_u=1, rhs=lambda x, u: u)
        snaps = simulate(fom, np.zeros(1), u_of_t, 1.0, 3)
        # explicit Euler with zero-order hold: x_{k+1} = x_k + dt*u(t_k)
        np.testing.assert_allclose(snaps.states[0], [0.0, 0.0, 1.0, 3.0], atol=1e-14)
        np.testing.assert_allclose(snaps.inputs[0], [0.0, 1.0, 2.0, 3.0], atol=1e-14)

    def test_signal_none_and_wrong_length(self):
        fom = PolynomialFOM(dimension=1, degree_set=(1,), n_u=2, rhs=lambda x, u: u[:1])
        snaps = simulate(fom, np.ones(1), None, 0.5, 3)
        np.testing.assert_array_equal(snaps.inputs, np.zeros((2, 4)))
        with pytest.raises(ValueError, match="input has shape"):
            simulate(fom, np.ones(1), lambda t: np.ones(3), 0.5, 3)
        with pytest.raises(ValueError, match="input has shape"):
            simulate(fom, np.ones(1), lambda t: np.ones(1), 0.5, 3)

    def test_signal_sampled_once_per_time_stamp(self):
        seen = []

        def u_of_t(t):
            seen.append(float(t))
            return np.array([t])

        fom = PolynomialFOM(dimension=1, degree_set=(1,), n_u=1, rhs=lambda x, u: u)
        simulate(fom, np.zeros(1), u_of_t, 0.5, 4)
        assert seen == [0.0, 0.5, 1.0, 1.5, 2.0]

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_failure_carries_step_index(self):
        fom = PolynomialFOM(
            dimension=1, degree_set=(2,), n_u=0, rhs=lambda x, u: x**2
        )
        with pytest.raises(NonFiniteStateError, match="step"):
            simulate(fom, np.array([10.0]), None, 10.0, 400)


class TestSnapshotMatrix:
    def test_validation(self):
        with pytest.raises(ValueError):
            SnapshotMatrix(
                states=np.zeros((2, 3)), times=np.zeros(2), inputs=np.zeros((0, 3))
            )
        with pytest.raises(ValueError):
            SnapshotMatrix(
                states=np.zeros((2, 3)),
                times=np.array([0.0, 0.0, 1.0]),
                inputs=np.zeros((0, 3)),
            )

    def test_properties(self):
        snaps = SnapshotMatrix(
            states=np.zeros((4, 3)),
            times=np.array([0.0, 1.0, 2.0]),
            inputs=np.zeros((1, 3)),
        )
        assert snaps.dimension == 4
        assert snaps.states.shape[1] - 1 == 2

    @pytest.mark.parametrize("inputs", [np.zeros(3), np.zeros((1, 3, 1))], ids=["1-d", "3-d"])
    def test_inputs_must_be_2d(self, inputs):
        with pytest.raises(ValueError, match="2-d"):
            SnapshotMatrix(states=np.zeros((4, 3)), times=np.arange(3.0), inputs=inputs)


class TestHomogeneousPart:
    def test_purely_linear(self, rng):
        fom, mats, _ = random_dense_fom(rng, 4, (1,))
        x = rng.standard_normal(4)
        np.testing.assert_allclose(
            homogeneous_part(fom, 1, x), mats[1] @ x, rtol=1e-12
        )

    def test_gap_degree_set(self, rng):
        # I = {1,3}: two scaled evaluations solve a 2x2 Vandermonde system
        fom, mats, _ = random_dense_fom(rng, 5, (1, 3))
        x = rng.standard_normal(5)
        np.testing.assert_allclose(homogeneous_part(fom, 1, x), mats[1] @ x, rtol=1e-10)
        np.testing.assert_allclose(
            homogeneous_part(fom, 3, x), mats[3] @ compress_column(x, 3), rtol=1e-10
        )

    def test_zero_state(self, rng):
        fom, _, _ = random_dense_fom(rng, 3, (1, 2))
        for i in (1, 2):
            np.testing.assert_array_equal(
                homogeneous_part(fom, i, np.zeros(3)), np.zeros(3)
            )

    def test_degree_not_present(self, rng):
        fom, _, _ = random_dense_fom(rng, 3, (1,))
        np.testing.assert_array_equal(
            homogeneous_part(fom, 2, np.ones(3)), np.zeros(3)
        )


class TestPolarize:
    def test_degree_one(self, rng):
        fom, mats, _ = random_dense_fom(rng, 4, (1, 2))
        v = rng.standard_normal(4)
        np.testing.assert_allclose(polarize(fom, 1, v), mats[1] @ v, rtol=1e-10)

    def test_degree_two_diagonal_identity(self, rng):
        # polarization for i=2 at v=v reduces to (f2(2v) - 2 f2(v)) / 2
        fom, mats, _ = random_dense_fom(rng, 3, (2,))
        v = rng.standard_normal(3)
        f2 = lambda y: mats[2] @ compress_column(y, 2)
        expected = (f2(2 * v) - 2 * f2(v)) / 2
        np.testing.assert_allclose(polarize(fom, 2, v, v), expected, rtol=1e-9)
        np.testing.assert_allclose(polarize(fom, 2, v, v), f2(v), rtol=1e-9)

    def test_matches_structured_map(self, rng):
        fom, _, _ = random_dense_fom(rng, 4, (1, 2, 3))
        vs = [rng.standard_normal(4) for _ in range(3)]
        np.testing.assert_allclose(
            polarize(fom, 3, *vs), fom.multilinear[3](*vs), rtol=1e-8, atol=1e-10
        )

    def test_wrong_arity(self, rng):
        fom, _, _ = random_dense_fom(rng, 3, (2,))
        with pytest.raises(ValueError):
            polarize(fom, 2, np.zeros(3))

    def test_degree_cap(self, rng):
        fom, _, _ = random_dense_fom(rng, 2, (1,))
        with pytest.raises(ValueError):
            polarize(fom, 9, *[np.zeros(2)] * 9)


class TestFromDenseOperators:
    def test_constant_term(self, rng):
        c = rng.standard_normal(3)
        fom = from_dense_operators({0: c.reshape(3, 1), 1: rng.standard_normal((3, 3))})
        np.testing.assert_allclose(fom.multilinear[0](), c, rtol=1e-14)
        np.testing.assert_allclose(
            eval_rhs(fom, np.zeros(3), None), c, rtol=1e-14
        )

    def test_shape_check(self, rng):
        with pytest.raises(ValueError):
            from_dense_operators({2: rng.standard_normal((3, 5))})
