"""Polynomial full-order models and their time integration.

A model is represented by a black-box right-hand side (all that inference
needs) plus optional structured access: symmetric multilinear maps, one per
polynomial degree, and a linear input map.  The structured access is what
intrusive reduction consumes; the tests check it against the black box by
polarization.  An input signal is a plain function ``t -> u`` that
:func:`simulate` holds constant over each time step.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import solve_banded

from .tensor_poly import MonomialBasis, feature_matrix, monomial_index_array

NEWTON_TOL = 1e-10  # implicit Euler's Newton residual tolerance, times 1 + ||x||
NEWTON_MAX_ITER = 50


class NonFiniteStateError(RuntimeError):
    """Right-hand side or integrator produced NaN/inf values."""


class NewtonError(RuntimeError):
    """Newton iteration for an implicit step failed to converge."""


@dataclass(frozen=True)
class PolynomialFOM:
    """Dynamical system ``x' = f(x, u)`` with polynomial state dependence.

    ``rhs(x, u)`` is always available.  ``multilinear`` optionally maps each
    degree ``i`` to a symmetric i-linear function of ``i`` vectors whose
    diagonal reproduces the degree-``i`` part of ``rhs``, acting column-wise
    on ``(N,)`` or ``(N, m)`` arguments; ``input_map`` optionally evaluates
    ``u -> B u``; ``jacobian(x, u)`` optionally returns the state Jacobian
    of the rhs as its band ``((lower, upper), ab)`` in LAPACK band storage,
    ``ab[upper + i - j, j] = J[i, j]`` (implicit stepping falls back to a
    finite-difference full band without it).  Evaluators must be pure and
    reentrant.
    """

    dimension: int
    degree_set: tuple[int, ...]
    n_u: int
    rhs: Callable[[np.ndarray, np.ndarray], np.ndarray]
    multilinear: dict[int, Callable] | None = None
    input_map: Callable[[np.ndarray], np.ndarray] | None = None
    jacobian: Callable[[np.ndarray, np.ndarray], tuple[tuple[int, int], np.ndarray]] | None = None

    def __post_init__(self):
        object.__setattr__(self, "degree_set", tuple(sorted(set(self.degree_set))))


@dataclass(frozen=True)
class SnapshotMatrix:
    """States, inputs and time stamps of one simulated trajectory."""

    states: np.ndarray  # (N, K+1)
    times: np.ndarray  # (K+1,)
    inputs: np.ndarray  # (n_u, K+1)

    def __post_init__(self):
        states = np.asarray(self.states, dtype=float)
        times = np.asarray(self.times, dtype=float)
        inputs = np.asarray(self.inputs, dtype=float)
        if states.ndim != 2 or inputs.ndim != 2:
            raise ValueError("states and inputs must be 2-d arrays")
        if times.shape != (states.shape[1],):
            raise ValueError("times must have one entry per state column")
        if inputs.shape[1] != states.shape[1]:
            raise ValueError("inputs must have one column per state column")
        if times.size > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "inputs", inputs)

    @property
    def dimension(self) -> int:
        return self.states.shape[0]


def eval_rhs(fom: PolynomialFOM, x, u=None) -> np.ndarray:
    """Evaluate the right-hand side, rejecting non-finite results."""
    x = np.asarray(x, dtype=float)
    if x.shape != (fom.dimension,):
        raise ValueError(f"state has shape {x.shape}, expected ({fom.dimension},)")
    if u is None:
        u = np.zeros(fom.n_u)
    u = np.asarray(u, dtype=float)
    if u.shape != (fom.n_u,):
        raise ValueError(f"input has shape {u.shape}, expected ({fom.n_u},)")
    out = np.asarray(fom.rhs(x, u), dtype=float)
    if not np.all(np.isfinite(out)):
        raise NonFiniteStateError("right-hand side returned non-finite values")
    return out


def explicit_euler_step(fom: PolynomialFOM, x, u, dt: float) -> np.ndarray:
    """One explicit Euler step ``x + dt * f(x, u)``, rejecting a non-finite one."""
    if dt <= 0:
        raise ValueError("time step must be positive")
    x = np.asarray(x, dtype=float)
    y = x + dt * eval_rhs(fom, x, u)
    if not np.all(np.isfinite(y)):
        raise NonFiniteStateError(f"step of size {dt:g} left the finite range")
    return y


def _fd_jacobian(fom: PolynomialFOM, x, u, f0) -> tuple[tuple[int, int], np.ndarray]:
    """Forward finite-difference Jacobian of the rhs as a full band, step 1e-7*(1+|x_j|)."""
    N = fom.dimension
    ab = np.zeros((2 * N - 1, N))
    for j in range(N):
        h = 1e-7 * (1.0 + abs(x[j]))
        xp = x.copy()
        xp[j] += h
        ab[N - 1 - j : 2 * N - 1 - j, j] = (eval_rhs(fom, xp, u) - f0) / h
    return (N - 1, N - 1), ab


def _solve_shifted(band, dt: float, r: np.ndarray) -> np.ndarray:
    """Solve ``(I - dt * J) d = r`` over ``J``'s band; :class:`NewtonError` if singular."""
    (lower, upper), ab = band
    ab = -dt * ab
    ab[upper] += 1.0
    try:
        with np.errstate(divide="raise"):  # a 1x1 band is solved by one division
            return solve_banded((lower, upper), ab, r, check_finite=False)
    except (np.linalg.LinAlgError, FloatingPointError):
        raise NewtonError(f"Newton matrix I - dt*J is singular at dt = {dt:g}") from None


def implicit_euler_step(fom: PolynomialFOM, x, u, dt: float) -> np.ndarray:
    """One implicit Euler step: solve ``y = x + dt * f(y, u)`` by Newton.

    Each Newton iteration solves ``(I - dt * J) d = r`` by a banded LU over
    ``J``'s band, from ``fom.jacobian`` when the model has one and from
    forward finite differences (a full band) otherwise.  Raises
    :class:`NewtonError` when ``I - dt * J`` is singular or the residual norm
    does not drop below ``NEWTON_TOL * (1 + ||x||)`` within
    ``NEWTON_MAX_ITER`` iterations.
    """
    if dt <= 0:
        raise ValueError("time step must be positive")
    x = np.asarray(x, dtype=float)
    tol = NEWTON_TOL * (1.0 + np.linalg.norm(x))
    y = x.copy()
    for _ in range(NEWTON_MAX_ITER + 1):
        f = eval_rhs(fom, y, u)
        residual = y - x - dt * f
        res_norm = np.linalg.norm(residual)
        if res_norm < tol:
            return y
        if fom.jacobian is not None:
            band = fom.jacobian(y, u)
        else:
            band = _fd_jacobian(fom, y, u, f)
        y = y - _solve_shifted(band, dt, residual)
    raise NewtonError(
        f"Newton did not converge in {NEWTON_MAX_ITER} iterations "
        f"(last residual {res_norm:.3e})"
    )


def simulate(
    fom: PolynomialFOM,
    x0,
    signal: Callable[[float], np.ndarray] | None,
    dt: float,
    K: int,
    scheme: str = "explicit_euler",
) -> SnapshotMatrix:
    """Integrate ``K`` uniform steps of size ``dt`` from ``x0``.

    ``signal`` maps ``t`` to the input (``None``: zero input); it is sampled
    once per time stamp and held over the step from there.  The returned
    matrix holds ``K + 1`` columns including the initial state.
    """
    if scheme not in ("explicit_euler", "implicit_euler"):
        raise ValueError(f"unknown scheme {scheme!r}")
    if signal is None:
        signal = lambda t: np.zeros(fom.n_u)
    states = np.empty((fom.dimension, K + 1))
    inputs = np.empty((fom.n_u, K + 1))
    times = dt * np.arange(K + 1)
    states[:, 0] = x0
    step = explicit_euler_step if scheme == "explicit_euler" else implicit_euler_step
    for k in range(K):
        u = signal(times[k])
        try:
            states[:, k + 1] = step(fom, states[:, k], u, dt)
        except (NonFiniteStateError, NewtonError) as exc:
            raise type(exc)(f"step {k} failed: {exc}") from exc
        inputs[:, k] = u
    inputs[:, K] = signal(times[K])
    return SnapshotMatrix(states=states, times=times, inputs=inputs)


def from_dense_operators(
    matrices: dict[int, np.ndarray],
    input_matrix: np.ndarray | None = None,
) -> PolynomialFOM:
    """Build a model from explicit dense degree matrices (and input matrix).

    ``matrices[i]`` has shape (N, C(N+i-1, i)) and acts on the compressed
    degree-``i`` power of the state; the right-hand side is one product of
    ``[A_i ... | B]`` with the feature vector.  Multilinear access is
    derived by symmetrizing over argument permutations, so keep the degrees
    small.
    """
    degrees = tuple(sorted(matrices))
    first = next(iter(matrices.values()))
    N = first.shape[0]
    n_u = 0 if input_matrix is None else input_matrix.shape[1]

    mats = {i: np.asarray(A, dtype=float) for i, A in matrices.items()}
    for i, A in mats.items():
        expected = (N, math.comb(N + i - 1, i))
        if A.shape != expected:
            raise ValueError(f"degree-{i} matrix has shape {A.shape}, expected {expected}")
    B = None if input_matrix is None else np.asarray(input_matrix, dtype=float)
    layout = MonomialBasis(n=N, degree_set=degrees, n_u=n_u)
    O = np.hstack([mats[i] for i in degrees] + ([] if B is None else [B]))

    def rhs(x, u):
        return O @ feature_matrix(layout, x[:, None], u[:, None])[:, 0]

    def make_h(i, A):
        if i == 0:
            return lambda: A[:, 0].copy()
        idx = monomial_index_array(N, i)
        perms = list(itertools.permutations(range(i)))

        def h(*vs):
            if len(vs) != i:
                raise ValueError(f"expected {i} arguments")
            vs = [np.asarray(v, dtype=float) for v in vs]
            acc = np.zeros(idx.shape[:1] + vs[0].shape[1:])
            for perm in perms:
                term = np.ones_like(acc)
                for k, slot in enumerate(perm):
                    term = term * vs[k][idx[:, slot]]
                acc += term
            return A @ (acc / len(perms))

        return h

    multilinear = {i: make_h(i, A) for i, A in mats.items()}
    input_map = None if B is None else (lambda u: B @ np.asarray(u, dtype=float))
    return PolynomialFOM(
        dimension=N,
        degree_set=degrees,
        n_u=n_u,
        rhs=rhs,
        multilinear=multilinear,
        input_map=input_map,
    )
