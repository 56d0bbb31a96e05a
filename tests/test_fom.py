"""Full-order models: evaluation, integration, and black-box structure probes."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import exactopinf.fom
from exactopinf.benchmarks import SHALLOW_ICE, SPECS, apply_overrides, build, build_shallow_ice
from exactopinf.fom import (
    NEWTON_MAX_ITER,
    NEWTON_TOL,
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

    def test_rejects_non_finite_rhs(self):
        fom = PolynomialFOM(
            dimension=2, degree_set=(1,), n_u=0, rhs=lambda x, u: np.array([0.0, np.nan])
        )
        with pytest.raises(NonFiniteStateError, match="right-hand side returned non-finite values"):
            explicit_euler_step(fom, np.ones(2), np.zeros(0), 0.5)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_rejects_non_finite_result(self):
        # the right-hand side is finite; the step of size 1e307 is not
        fom = PolynomialFOM(dimension=1, degree_set=(1,), n_u=0, rhs=lambda x, u: 100.0 * x)
        with pytest.raises(NonFiniteStateError, match="finite range"):
            explicit_euler_step(fom, np.ones(1), np.zeros(0), 1e307)


@pytest.mark.parametrize("m", [1, 5])
@pytest.mark.parametrize("model", [*SPECS, "dense"])
def test_rhs_acts_column_wise(model, m):
    # each column of an (N, m) block's rhs is bitwise its own 1-D call, so a
    # block of single steps is bitwise the steps one at a time
    rng = np.random.default_rng(3)
    if model == "dense":
        fom = random_dense_fom(rng, 6, (0, 1, 2, 3), n_u=2)[0]
    else:
        fom = build(SPECS[model])[0]
    X = rng.standard_normal((fom.dimension, m))
    U = rng.standard_normal((fom.n_u, m))
    F = fom.rhs(X, U)
    assert F.shape == X.shape
    for k in range(m):
        assert F[:, k].tobytes() == fom.rhs(X[:, k].copy(), U[:, k].copy()).tobytes()
    Y = explicit_euler_step(fom, X, U, 0.25)
    for k in range(m):
        assert Y[:, k].tobytes() == explicit_euler_step(fom, X[:, k], U[:, k], 0.25).tobytes()


class TestBlockStep:
    @pytest.mark.filterwarnings("ignore:divide by zero", "ignore:invalid value", "ignore:overflow")
    @pytest.mark.parametrize(
        "rhs, cause",
        [
            (lambda x, u: x / (1.0 - x[1:2]), "right-hand side returned non-finite values"),
            (lambda x, u: x * np.array([[1.0], [1e308], [1.0]]), "left the finite range"),
        ],
        ids=["rhs", "overflow"],
    )
    def test_failed_column_is_named(self, rhs, cause):
        # with unit states only the second column fails: by its rhs, or by a
        # step of a finite rhs that overflows
        fom = PolynomialFOM(dimension=3, degree_set=(1,), n_u=0, rhs=rhs)
        with pytest.raises(NonFiniteStateError, match=cause) as info:
            explicit_euler_step(fom, np.eye(3), None, 10.0)
        assert info.value.column == 1

    def test_implicit_step_takes_one_state(self):
        fom = PolynomialFOM(
            dimension=2, degree_set=(1,), n_u=0, rhs=lambda x, u: -x,
            linearize=lambda x, u: (-x, band(-np.eye(2), 0, 0)),
        )
        with pytest.raises(ValueError, match=r"state has shape \(2, 3\), expected \(2,\)"):
            implicit_euler_step(fom, np.ones((2, 3)), None, 0.1)

    def test_rhs_of_another_shape_is_rejected(self):
        fom = PolynomialFOM(dimension=3, degree_set=(1,), n_u=0, rhs=lambda x, u: np.zeros(3))
        with pytest.raises(ValueError, match=r"right-hand side has shape \(3,\) at states of shape \(3, 3\)"):
            explicit_euler_step(fom, np.eye(3), None, 0.5)


class TestImplicitEuler:
    def test_scalar_decay_closed_form(self):
        # y = x + dt*(-y)  =>  y = x/(1+dt); x=1, dt=1 gives 1/2
        fom = PolynomialFOM(
            dimension=1,
            degree_set=(1,),
            n_u=0,
            rhs=lambda x, u: -x,
            linearize=lambda x, u: (-x, band(-np.eye(1), 0, 0)),
        )
        y = implicit_euler_step(fom, np.array([1.0]), np.zeros(0), 1.0)
        np.testing.assert_allclose(y, [0.5], atol=1e-9)

    def test_zero_rhs_returns_state(self):
        fom = PolynomialFOM(
            dimension=3,
            degree_set=(1,),
            n_u=0,
            rhs=lambda x, u: np.zeros(3),
            linearize=lambda x, u: (np.zeros(3), band(np.zeros((3, 3)), 0, 0)),
        )
        x = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(implicit_euler_step(fom, x, np.zeros(0), 2.0), x)

    def test_model_without_jacobian_rejected(self):
        calls = []

        def rhs(x, u):
            calls.append(1)
            return -x

        fom = PolynomialFOM(dimension=2, degree_set=(1,), n_u=0, rhs=rhs)
        with pytest.raises(ValueError, match="jacobian"):
            implicit_euler_step(fom, np.ones(2), np.zeros(0), 0.1)
        assert calls == []  # rejected before the first Newton iteration

    def test_linear_direct_solve_oracle_analytic_jacobian(self, rng):
        N = 4
        A1 = rng.standard_normal((N, N))
        A1 = A1 - 5.0 * np.eye(N)  # stable
        B = rng.standard_normal((N, 1))
        dense_fom = from_dense_operators({1: A1}, B)
        fom = dataclasses.replace(
            dense_fom, linearize=lambda x, u: (dense_fom.rhs(x, u), band(A1, N - 1, N - 1))
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
        (lower, upper), ab = fom.linearize(x0, None)[1]
        assert (lower, upper) == (1, 1) and ab.shape == (3, N)

        def counted(as_full, calls):
            def lin(x, u):
                calls.append(1)
                f, J = fom.linearize(x, u)
                return f, (band(dense(J), N - 1, N - 1) if as_full else J)

            return dataclasses.replace(fom, linearize=lin)

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

        def lin(x, u):
            calls.append(1)
            return A1 @ x, band(A1, N - 1, N - 1)

        fom = PolynomialFOM(
            dimension=N, degree_set=(1,), n_u=0, rhs=lambda x, u: A1 @ x, linearize=lin
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
            linearize=lambda x, u: (A @ x, J),
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
            linearize=lambda x, u: (x, band(np.eye(N), lower, upper)),
        )
        with pytest.raises(NewtonError, match=r"I - dt\*J is singular"):
            implicit_euler_step(fom, np.ones(N), np.zeros(0), 1.0)

    @pytest.mark.parametrize("N", [2, 3, 17, 512])
    def test_tridiagonal_solve_is_bitwise_solve_banded(self, rng, N):
        # a (1, 1) band skips solve_banded's wrapper for the LAPACK routine
        # it calls: the same bytes, with row exchanges or without, and
        # neither the band nor the right-hand side is overwritten
        from scipy.linalg import solve_banded

        dt = 0.5
        for sub in (0.1, 10.0):  # 10: rows exchange, the first with a zero pivot
            ab = rng.standard_normal((3, N))
            ab[2] *= sub
            ab[1, 0] = 2.0 if sub > 1 else -2.0
            r = rng.standard_normal(N)
            shifted = -dt * ab
            shifted[1] += 1.0
            before = ab.tobytes(), r.tobytes()
            d = exactopinf.fom._solve_shifted(((1, 1), ab), dt, r)
            assert (ab.tobytes(), r.tobytes()) == before
            assert d.tobytes() == solve_banded((1, 1), shifted, r).tobytes()

    def test_newton_failure_raises(self):
        # rhs with no root of the implicit residual reachable: y = x + dt*(y^2+1)
        fom = PolynomialFOM(
            dimension=1,
            degree_set=(0, 2),
            n_u=0,
            rhs=lambda x, u: x**2 + 1.0,
            linearize=lambda x, u: (x**2 + 1.0, band(np.diag(2.0 * x), 0, 0)),
        )
        with pytest.raises((NewtonError, NonFiniteStateError)):
            implicit_euler_step(fom, np.array([0.0]), np.zeros(0), 10.0)


@pytest.mark.parametrize("dt", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "step", [explicit_euler_step, implicit_euler_step], ids=["explicit", "implicit"]
)
def test_steppers_reject_non_finite_dt(step, dt):
    fom = PolynomialFOM(
        dimension=2,
        degree_set=(1,),
        n_u=0,
        rhs=lambda x, u: -x,
        linearize=lambda x, u: (-x, band(-np.eye(2), 0, 0)),
    )
    with pytest.raises(ValueError, match="time step must be positive and finite"):
        step(fom, np.ones(2), np.zeros(0), dt)


@pytest.mark.parametrize(
    "dt",
    [np.float64(np.nan), np.float64(np.inf), 0.0, -1e-3],
    ids=["float64-nan", "float64-inf", "zero", "negative"],
)
@pytest.mark.parametrize(
    "step", [explicit_euler_step, implicit_euler_step], ids=["explicit", "implicit"]
)
def test_steppers_reject_numpy_scalar_and_nonpositive_dt(step, dt):
    fom = PolynomialFOM(
        dimension=2,
        degree_set=(1,),
        n_u=0,
        rhs=lambda x, u: -x,
        linearize=lambda x, u: (-x, band(-np.eye(2), 0, 0)),
    )
    with pytest.raises(ValueError, match="time step must be positive and finite"):
        step(fom, np.ones(2), np.zeros(0), dt)


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

    @pytest.mark.parametrize("K", [0, 3])
    def test_last_sample_checked(self, K):
        # the sample at t = K * dt, after the last step (the only one at K = 0),
        # is checked as every other, not broadcast into the inputs
        fom = PolynomialFOM(dimension=1, degree_set=(1,), n_u=2, rhs=lambda x, u: u[:1])
        for last in (np.ones(1), np.ones(3)):
            signal = lambda t: last if t >= 0.5 * K else np.ones(2)
            with pytest.raises(ValueError, match=rf"^input has shape \({len(last)},\), expected \(2,\)$"):
                simulate(fom, np.ones(1), signal, 0.5, K)

    def test_signal_sampled_once_per_time_stamp(self):
        seen = []

        def u_of_t(t):
            seen.append(float(t))
            return np.array([t])

        fom = PolynomialFOM(dimension=1, degree_set=(1,), n_u=1, rhs=lambda x, u: u)
        simulate(fom, np.zeros(1), u_of_t, 0.5, 4)
        assert seen == [0.0, 0.5, 1.0, 1.5, 2.0]

    def test_explicit_trajectory_is_bitwise_single_steps(self):
        # the loop steps in blocks of 64 at N = 128 without the per-step checks
        # of explicit_euler_step, from each new contiguous state: the same bytes
        # with no step, within one block and across two block boundaries
        spec = SPECS["chafee_infante"]
        fom, signal, x0 = build(spec)
        for K in (0, 40, 2 * 64 + 3):
            snaps = simulate(fom, x0, signal, spec.dt_pod, K)
            x = x0
            for k in range(K):
                x = explicit_euler_step(fom, x, signal(snaps.times[k]), spec.dt_pod)
                assert snaps.states[:, k + 1].tobytes() == x.tobytes()
            for k in range(K + 1):
                assert snaps.inputs[:, k].tobytes() == signal(snaps.times[k]).tobytes()
        # an rhs value is taken as a float array first, as explicit_euler_step takes it:
        # a float32 one is not stepped in float32
        f32 = dataclasses.replace(fom, rhs=lambda x, u: fom.rhs(x, u).astype(np.float32))
        x = x0
        for k, column in enumerate(simulate(f32, x0, signal, spec.dt_pod, 70).states.T[1:]):
            x = explicit_euler_step(f32, x, signal(k * spec.dt_pod), spec.dt_pod)
            assert column.tobytes() == x.tobytes()

    def test_rhs_returning_a_list_or_scalar(self):
        # taken as a float array, as explicit_euler_step takes it: a list of the
        # state's length steps, a scalar or a wrong length is a shape error
        fom = PolynomialFOM(dimension=1, degree_set=(0,), n_u=0, rhs=lambda x, u: [1.0])
        np.testing.assert_array_equal(simulate(fom, np.zeros(1), None, 0.5, 3).states, [[0.0, 0.5, 1.0, 1.5]])
        for rhs, shape in ((lambda x, u: 1.0, r"\(\)"), (lambda x, u: [1.0, 2.0], r"\(2,\)")):
            fom = PolynomialFOM(dimension=1, degree_set=(0,), n_u=0, rhs=rhs)
            with pytest.raises(ValueError, match=rf"^right-hand side has shape {shape} at states of shape \(1,\)$"):
                simulate(fom, np.zeros(1), None, 0.5, 3)

    def test_successful_explicit_run_calls_rhs_once_per_step(self):
        spec = SPECS["chafee_infante"]
        fom, signal, x0 = build(spec)
        calls = []
        counted = dataclasses.replace(fom, rhs=lambda x, u: calls.append(1) or fom.rhs(x, u))
        K = 2 * 64 + 3
        snaps = simulate(counted, x0, signal, spec.dt_pod, K)
        assert len(calls) == K
        assert snaps.states.tobytes() == simulate(fom, x0, signal, spec.dt_pod, K).states.tobytes()

    def test_memory_is_the_trajectory_and_one_block(self):
        # no second N x (K+1) array and no list over the whole horizon: the
        # peak beyond the returned arrays is a block of rows and the model's
        # temporaries (0.16 MB; a list of all 10 001 times alone adds 0.32 MB)
        spec = SPECS["chafee_infante"]
        fom, signal, x0 = build(spec)
        simulate(fom, x0, signal, spec.dt_pod, 100)
        tracemalloc.start()
        try:
            snaps = simulate(fom, x0, signal, spec.dt_pod, 10_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - (snaps.states.nbytes + snaps.inputs.nbytes + snaps.times.nbytes) <= 0.25e6

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    @pytest.mark.parametrize(
        "N, rhs, message",
        [
            (2, lambda x, u: x * np.array([1.0, np.nan]), "step 0 failed: right-hand side returned non-finite values"),
            (2, lambda x, u: np.full_like(x, 1e298), "step 1 failed: step of size 1e\\+10 left the finite range"),
            # N = 128 steps in blocks of 64: x[0] = 1 + 1e10 k passes 7e11 at
            # step 70, inside the second block, which runs on to its one check
            (
                128,
                lambda x, u: np.full_like(x, np.nan if x[0] > 7e11 else 1.0),
                "step 70 failed: right-hand side returned non-finite values",
            ),
            (
                128,
                lambda x, u: np.full_like(x, 1e300 if x[0] > 7e11 else 1.0),
                "step 70 failed: step of size 1e\\+10 left the finite range",
            ),
        ],
        ids=["rhs", "overflow", "rhs-mid-block", "overflow-mid-block"],
    )
    def test_failure_names_its_cause(self, N, rhs, message):
        fom = PolynomialFOM(dimension=N, degree_set=(1,), n_u=0, rhs=rhs)
        with pytest.raises(NonFiniteStateError, match=f"^{message}$"):
            simulate(fom, np.ones(N), None, 1e10, 100)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_model_error_after_a_non_finite_state_gives_way(self):
        # x[0] overflows at step 70, mid-block; the model refuses the non-finite
        # state at step 71, and the replayed step 70's error takes its place
        def rhs(x, u):
            if not np.isfinite(x).all():
                raise ValueError("model refuses a non-finite state")
            return np.full_like(x, 1e300 if x[0] > 7e11 else 1.0)

        fom = PolynomialFOM(dimension=128, degree_set=(1,), n_u=0, rhs=rhs)
        with pytest.raises(NonFiniteStateError, match="^step 70 failed: step of size 1e\\+10 left the finite range$"):
            simulate(fom, np.ones(128), None, 1e10, 100)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_interrupt_is_not_replaced(self):
        # a BaseException such as KeyboardInterrupt passes through unchanged,
        # even from a block that already holds a non-finite state
        def rhs(x, u):
            if not np.isfinite(x).all():
                raise KeyboardInterrupt
            return np.full_like(x, 1e300 if x[0] > 7e11 else 1.0)

        fom = PolynomialFOM(dimension=128, degree_set=(1,), n_u=0, rhs=rhs)
        with pytest.raises(KeyboardInterrupt):
            simulate(fom, np.ones(128), None, 1e10, 100)

    def test_implicit_steps_keep_numpy_error_settings(self):
        # only the explicit steps, checked once per block, run with overflow and
        # invalid values ignored; implicit_euler_step runs under the caller's settings
        seen, band = [], ((0, 0), np.zeros((1, 1)))

        def linearize(x, u):
            seen.append(np.geterr())
            return np.zeros(1), band

        fom = PolynomialFOM(dimension=1, degree_set=(1,), n_u=0, rhs=lambda x, u: np.zeros(1), linearize=linearize)
        with np.errstate(over="raise", invalid="raise"):
            simulate(fom, np.ones(1), None, 0.1, 3, "implicit_euler")
        assert seen and all(e["over"] == e["invalid"] == "raise" for e in seen)

    def test_dt_and_initial_state_checked_before_any_step(self):
        calls = []
        fom = PolynomialFOM(dimension=2, degree_set=(1,), n_u=0, rhs=lambda x, u: calls.append(1) or x)
        with pytest.raises(ValueError, match="time step must be positive and finite"):
            simulate(fom, np.ones(2), None, 0.0, 3)
        with pytest.raises(ValueError, match=r"state has shape \(3,\), expected \(2,\)"):
            simulate(fom, np.ones(3), None, 0.1, 3)
        assert calls == []

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_failure_carries_step_index(self):
        fom = PolynomialFOM(
            dimension=1, degree_set=(2,), n_u=0, rhs=lambda x, u: x**2
        )
        with pytest.raises(NonFiniteStateError, match="step"):
            simulate(fom, np.array([10.0]), None, 10.0, 400)


def textbook_implicit_euler(fom, x0, signal, dt, K):
    """``K`` implicit Euler steps by the textbook Newton loop: ``rhs`` at every
    iterate, then the band of ``linearize`` at each iterate that needs a solve,
    so every step starts from a fresh ``f``.  Returns the ``(N, K + 1)`` states
    and the number of band solves."""
    from scipy.linalg import solve_banded

    states = np.empty((fom.dimension, K + 1))
    states[:, 0] = x0
    times, solves = dt * np.arange(K + 1), 0
    for k in range(K):
        x = states[:, k]
        u = np.zeros(fom.n_u) if signal is None else np.asarray(signal(times[k]), dtype=float)
        tol, y = NEWTON_TOL * (1.0 + np.linalg.norm(x)), x.copy()
        for _ in range(NEWTON_MAX_ITER + 1):
            residual = y - x - dt * fom.rhs(y, u)
            if np.linalg.norm(residual) < tol:
                break
            (lower, upper), ab = fom.linearize(y, u)[1]
            ab = -dt * ab
            ab[upper] += 1.0
            y = y - solve_banded((lower, upper), ab, residual)
            solves += 1
        else:
            raise AssertionError(f"the oracle's Newton did not converge at step {k}")
        states[:, k + 1] = y
    return states, solves


class TestNewtonOracle:
    """``simulate``'s implicit Euler linearizes each iterate once and carries the
    accepted one into the next step; it must be bitwise the textbook loop."""

    @staticmethod
    def run_counted(fom, x0, signal, dt, K, monkeypatch):
        calls = {"linearize": 0, "rhs": 0, "solve": 0}

        def counted(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)

            return wrapped

        monkeypatch.setattr(
            exactopinf.fom, "_solve_shifted", counted("solve", exactopinf.fom._solve_shifted)
        )
        model = dataclasses.replace(
            fom, rhs=counted("rhs", fom.rhs), linearize=counted("linearize", fom.linearize)
        )
        return simulate(model, x0, signal, dt, K, scheme="implicit_euler"), calls

    def test_ice_first_steps(self, monkeypatch):
        fom, signal, x0 = build_shallow_ice()
        K = 50
        expected, solves = textbook_implicit_euler(fom, x0, signal, SHALLOW_ICE.dt_pod, K)
        snaps, calls = self.run_counted(fom, x0, signal, SHALLOW_ICE.dt_pod, K, monkeypatch)
        assert snaps.states.tobytes() == expected.tobytes()
        assert solves > K  # some steps take more than one Newton iteration
        # one linearization per iterate: every step's first iterate is the last one's
        assert calls == {"linearize": solves + 1, "rhs": 0, "solve": solves}

    def test_time_varying_input_drops_the_carried_linearization(self, monkeypatch):
        # a tridiagonal cubic model, x' = A x - x**3 + B u, whose input holds
        # over two or three steps and then changes
        N, dt, K = 6, 0.1, 30
        A = np.diag(np.full(N, -2.0)) + np.diag(np.ones(N - 1), 1) + np.diag(np.ones(N - 1), -1)
        B = np.linspace(0.5, 1.5, N)[:, None]

        def rhs(x, u):
            return 4.0 * (A @ x) - x**3 + B @ u

        fom = PolynomialFOM(
            dimension=N,
            degree_set=(1, 3),
            n_u=1,
            rhs=rhs,
            linearize=lambda x, u: (rhs(x, u), band(4.0 * A - np.diag(3.0 * x**2), 1, 1)),
        )
        signal = lambda t: np.array([float(np.floor(t / 0.25) % 3) - 1.0])
        x0 = np.linspace(-1.0, 1.0, N)
        expected, solves = textbook_implicit_euler(fom, x0, signal, dt, K)
        snaps, calls = self.run_counted(fom, x0, signal, dt, K, monkeypatch)
        assert snaps.states.tobytes() == expected.tobytes()
        # a step whose input changed linearizes its first iterate afresh
        changes = 1 + np.count_nonzero(np.diff(snaps.inputs[0, :K]))
        assert 1 < changes < K
        assert calls == {"linearize": solves + changes, "rhs": 0, "solve": solves}


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

    def test_no_matrices_rejected(self):
        with pytest.raises(ValueError, match="at least one degree matrix"):
            from_dense_operators({})

    @pytest.mark.parametrize(
        "shape", [(3,), (2, 1), (4, 1)], ids=["1-d", "too-few-rows", "too-many-rows"]
    )
    def test_input_matrix_shape_rejected(self, rng, shape):
        with pytest.raises(ValueError, match=r"input matrix has shape .*expected \(3, n_u\)"):
            from_dense_operators({1: rng.standard_normal((3, 3))}, np.ones(shape))
