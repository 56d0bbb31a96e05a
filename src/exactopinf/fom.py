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
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

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
    ``u -> B u``; ``linearize(x, u)`` optionally returns ``rhs(x, u)``, bitwise,
    with the band ``((lower, upper), ab)`` of its state Jacobian in LAPACK band
    storage, ``ab[upper + i - j, j] = J[i, j]`` (implicit stepping needs it).
    Evaluators must be pure and reentrant.
    """

    dimension: int
    degree_set: tuple[int, ...]
    n_u: int
    rhs: Callable[[np.ndarray, np.ndarray], np.ndarray]
    multilinear: dict[int, Callable] | None = None
    input_map: Callable[[np.ndarray], np.ndarray] | None = None
    linearize: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, tuple]] | None = None

    def __post_init__(self):
        object.__setattr__(self, "degree_set", tuple(sorted(set(self.degree_set))))


@dataclass(frozen=True)
class SnapshotMatrix:
    """States, inputs and time stamps of one simulated trajectory."""

    states: np.ndarray  # (N, K+1)
    times: np.ndarray  # (K+1,)
    inputs: np.ndarray  # (n_u, K+1)

    def __post_init__(self):
        states = np.ascontiguousarray(self.states, dtype=float)  # one layout for einsum's sums
        times = np.asarray(self.times, dtype=float)
        inputs = np.ascontiguousarray(self.inputs, dtype=float)
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


def _state_and_input(fom: PolynomialFOM, x, u):
    """``x`` and ``u`` (``None``: zero input) as float arrays of the model's shapes."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(np.zeros(fom.n_u) if u is None else u, dtype=float)
    for name, a, n in (("state", x, fom.dimension), ("input", u, fom.n_u)):
        if a.shape != (n,):
            raise ValueError(f"{name} has shape {a.shape}, expected ({n},)")
    return x, u


def _finite(f) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if not np.isfinite(f).all():
        raise NonFiniteStateError("right-hand side returned non-finite values")
    return f


def eval_rhs(fom: PolynomialFOM, x, u=None) -> np.ndarray:
    """Evaluate the right-hand side, rejecting non-finite results."""
    return _finite(fom.rhs(*_state_and_input(fom, x, u)))


def _check_dt(dt: float) -> None:
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError("time step must be positive and finite")


def explicit_euler_step(fom: PolynomialFOM, x, u, dt: float) -> np.ndarray:
    """One explicit Euler step ``x + dt * f(x, u)``, rejecting a non-finite one."""
    _check_dt(dt)
    x = np.asarray(x, dtype=float)
    y = x + dt * eval_rhs(fom, x, u)
    if not np.isfinite(y).all():
        raise NonFiniteStateError(f"step of size {dt:g} left the finite range")
    return y


def _solve_shifted(band, dt: float, r: np.ndarray) -> np.ndarray:
    """Solve ``(I - dt * J) d = r`` over ``J``'s band; :class:`NewtonError` if singular."""
    (lower, upper), ab = band
    ab = -dt * ab
    ab[upper] += 1.0
    try:
        if (lower, upper) == (1, 1) and len(r) > 1:  # solve_banded's LAPACK call, unwrapped
            from scipy.linalg.lapack import dgtsv
            *_, d, info = dgtsv(ab[2, :-1], ab[1], ab[0, 1:], r)
            if info > 0:
                raise np.linalg.LinAlgError("singular matrix")
            return d
        from scipy.linalg import solve_banded
        with np.errstate(divide="raise"):  # a 1x1 band is solved by one division
            return solve_banded((lower, upper), ab, r, check_finite=False)
    except (np.linalg.LinAlgError, FloatingPointError):
        raise NewtonError(f"Newton matrix I - dt*J is singular at dt = {dt:g}") from None


def implicit_euler_step(fom: PolynomialFOM, x, u, dt: float) -> np.ndarray:
    """One implicit Euler step: solve ``y = x + dt * f(y, u)`` by Newton.

    Each iterate is linearized once by ``fom.linearize``: its ``f`` gives the
    residual, its band the banded LU of ``(I - dt * J) d = r``; a model without
    ``linearize`` is rejected with a ``ValueError``.  Raises :class:`NewtonError`
    when ``I - dt * J`` is singular or the residual norm does not drop below
    ``NEWTON_TOL * (1 + ||x||)`` within ``NEWTON_MAX_ITER`` iterations.
    """
    _check_dt(dt)
    if fom.linearize is None:
        raise ValueError("implicit Euler needs the model's linearize: its rhs and jacobian band")
    x, u = _state_and_input(fom, x, u)
    tol = NEWTON_TOL * (1.0 + np.linalg.norm(x))
    y = x.copy()
    for _ in range(NEWTON_MAX_ITER + 1):
        f, band = fom.linearize(y, u)
        residual = y - x - dt * _finite(f)
        res_norm = np.linalg.norm(residual)
        if res_norm < tol:
            return y
        y = y - _solve_shifted(band, dt, residual)
    raise NewtonError(
        f"Newton did not converge in {NEWTON_MAX_ITER} iterations "
        f"(last residual {res_norm:.3e})"
    )


def _reusing_last(linearize):
    """``linearize`` that returns its last result again for bitwise the same ``x`` and ``u``."""
    last = [None, None]

    def reused(x, u):
        key = x.tobytes() + u.tobytes()
        if key != last[0]:
            last[:] = key, linearize(x, u)
        return last[1]

    return reused


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
    if fom.linearize is not None:  # a step's first iterate is the last step's accepted one
        fom = replace(fom, linearize=_reusing_last(fom.linearize))
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
    if not matrices:
        raise ValueError("need at least one degree matrix")
    degrees = tuple(sorted(matrices))
    mats = {i: np.asarray(A, dtype=float) for i, A in matrices.items()}
    N = next(iter(mats.values())).shape[0]
    for i, A in mats.items():
        expected = (N, math.comb(N + i - 1, i))
        if A.shape != expected:
            raise ValueError(f"degree-{i} matrix has shape {A.shape}, expected {expected}")
    B = None if input_matrix is None else np.asarray(input_matrix, dtype=float)
    if B is not None and (B.ndim != 2 or B.shape[0] != N):
        raise ValueError(f"input matrix has shape {B.shape}, expected ({N}, n_u)")
    n_u = 0 if B is None else B.shape[1]
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
