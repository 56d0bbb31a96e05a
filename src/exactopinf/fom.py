"""Polynomial full-order models and their time integration.

A model is represented by a black-box right-hand side (all that inference
needs) plus optional structured access: symmetric multilinear maps, one per
polynomial degree, and a linear input map.  The structured access is what
intrusive reduction consumes; it is cross-checked against the black box via
polarization.  An input signal is a plain function ``t -> u`` that
:func:`simulate` holds constant over each time step.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .tensor_poly import compress_state, monomial_index_array

NEWTON_TOL = 1e-10  # implicit Euler's Newton residual tolerance, times 1 + ||x||
NEWTON_MAX_ITER = 50


class NonFiniteStateError(RuntimeError):
    """Right-hand side or integrator produced NaN/inf values."""

    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state


class NewtonError(RuntimeError):
    """Newton iteration for an implicit step failed to converge."""

    def __init__(self, message, residual_norm=None):
        super().__init__(message)
        self.residual_norm = residual_norm


@dataclass(frozen=True)
class PolynomialFOM:
    """Dynamical system ``x' = f(x, u)`` with polynomial state dependence.

    ``rhs(x, u)`` is always available.  ``multilinear`` optionally maps each
    degree ``i`` to a symmetric i-linear function of ``i`` vectors whose
    diagonal reproduces the degree-``i`` part of ``rhs``; ``input_map``
    optionally evaluates ``u -> B u``; ``jacobian(x, u)`` optionally returns
    the state Jacobian of the rhs as a dense or a ``scipy.sparse`` array
    (implicit stepping falls back to finite differences without it).
    Evaluators must be pure and reentrant.
    """

    dimension: int
    degree_set: tuple[int, ...]
    n_u: int
    rhs: Callable[[np.ndarray, np.ndarray], np.ndarray]
    multilinear: dict[int, Callable] | None = None
    input_map: Callable[[np.ndarray], np.ndarray] | None = None
    jacobian: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

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
        if states.ndim != 2:
            raise ValueError("states must be a 2-d array")
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

    @property
    def n_steps(self) -> int:
        return self.states.shape[1] - 1


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
        raise NonFiniteStateError("right-hand side returned non-finite values", state=x)
    return out


def explicit_euler_step(fom: PolynomialFOM, x, u, dt: float) -> np.ndarray:
    """One explicit Euler step ``x + dt * f(x, u)``, rejecting a non-finite one."""
    if dt <= 0:
        raise ValueError("time step must be positive")
    x = np.asarray(x, dtype=float)
    y = x + dt * eval_rhs(fom, x, u)
    if not np.all(np.isfinite(y)):
        raise NonFiniteStateError(f"step of size {dt:g} left the finite range", state=x)
    return y


def _fd_jacobian(fom: PolynomialFOM, x, u, f0) -> np.ndarray:
    """Forward finite-difference Jacobian of the rhs, step 1e-7*(1+|x_j|)."""
    N = fom.dimension
    J = np.empty((N, N))
    for j in range(N):
        h = 1e-7 * (1.0 + abs(x[j]))
        xp = x.copy()
        xp[j] += h
        J[:, j] = (eval_rhs(fom, xp, u) - f0) / h
    return J


def _solve_shifted(Jf, dt: float, r: np.ndarray) -> np.ndarray:
    """Solve ``(I - dt * Jf) d = r``: sparse LU for a ``scipy.sparse`` ``Jf``."""
    if sp.issparse(Jf):
        # imported here so that `import exactopinf` does not load it
        from scipy.sparse.linalg import spsolve

        M = sp.eye_array(Jf.shape[0], format="csc") - dt * sp.csc_array(Jf, dtype=float)
        return spsolve(M, r)
    Jf = np.asarray(Jf, dtype=float)
    return np.linalg.solve(np.eye(Jf.shape[0]) - dt * Jf, r)


def implicit_euler_step(fom: PolynomialFOM, x, u, dt: float) -> np.ndarray:
    """One implicit Euler step: solve ``y = x + dt * f(y, u)`` by Newton.

    Each Newton iteration solves ``(I - dt * J) d = r`` with ``J`` from
    ``fom.jacobian`` when the model has one, and from forward finite
    differences (dense) otherwise.  A ``scipy.sparse`` ``J`` is solved with a
    sparse LU, a dense one with a dense LU.  Raises :class:`NewtonError` when
    the residual norm does not drop below ``NEWTON_TOL * (1 + ||x||)`` within
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
            Jf = fom.jacobian(y, u)
        else:
            Jf = _fd_jacobian(fom, y, u, f)
        y = y - _solve_shifted(Jf, dt, residual)
    raise NewtonError(
        f"Newton did not converge in {NEWTON_MAX_ITER} iterations "
        f"(last residual {res_norm:.3e})",
        residual_norm=res_norm,
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


def homogeneous_part(fom: PolynomialFOM, i: int, x) -> np.ndarray:
    """Degree-``i`` contribution of the rhs at ``x`` (zero input).

    Isolates the term from the black box by evaluating the rhs at scaled
    states ``t*x`` for the integer nodes ``t = 1, ..., |degree set|`` and
    solving the resulting Vandermonde system in the degrees present.
    """
    x = np.asarray(x, dtype=float)
    degrees = fom.degree_set
    if i not in degrees:
        return np.zeros(fom.dimension)
    nodes = np.arange(1, len(degrees) + 1, dtype=float)
    u0 = np.zeros(fom.n_u)
    samples = np.stack([eval_rhs(fom, t * x, u0) for t in nodes])
    vand = np.array([[t**d for d in degrees] for t in nodes])
    parts = np.linalg.solve(vand, samples)
    return parts[degrees.index(i)]


def polarize(fom: PolynomialFOM, i: int, *vectors) -> np.ndarray:
    """Symmetric multilinear map of degree ``i`` recovered from the black box.

    Uses the polarization identity
    ``H(v_1,...,v_i) = 1/i! * sum_{S != {}} (-1)^(i-|S|) f_i(sum_{j in S} v_j)``
    where ``f_i`` is the degree-``i`` homogeneous part of the rhs.  Cost is
    2^i - 1 homogeneous-part evaluations, so only intended for small ``i``.
    """
    if len(vectors) != i:
        raise ValueError(f"expected {i} vectors, got {len(vectors)}")
    if i == 0:
        return homogeneous_part(fom, 0, np.zeros(fom.dimension))
    if i > 8:
        raise ValueError("polarization limited to degree <= 8")
    vectors = [np.asarray(v, dtype=float) for v in vectors]
    acc = np.zeros(fom.dimension)
    for size in range(1, i + 1):
        sign = (-1.0) ** (i - size)
        for subset in itertools.combinations(range(i), size):
            acc += sign * homogeneous_part(fom, i, sum(vectors[j] for j in subset))
    return acc / math.factorial(i)


def from_dense_operators(
    matrices: dict[int, np.ndarray],
    input_matrix: np.ndarray | None = None,
) -> PolynomialFOM:
    """Build a model from explicit dense degree matrices (and input matrix).

    ``matrices[i]`` has shape (N, C(N+i-1, i)) and acts on the compressed
    degree-``i`` power of the state.  Multilinear access is derived by
    symmetrizing over argument permutations, so keep the degrees small.
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

    def rhs(x, u):
        out = np.zeros(N)
        for i, A in mats.items():
            out += A @ compress_state(x, i)
        if B is not None:
            out += B @ u
        return out

    def make_h(i, A):
        if i == 0:
            return lambda: A[:, 0].copy()
        idx = monomial_index_array(N, i)
        perms = list(itertools.permutations(range(i)))

        def h(*vs):
            if len(vs) != i:
                raise ValueError(f"expected {i} arguments")
            vs = [np.asarray(v, dtype=float) for v in vs]
            acc = np.zeros(idx.shape[0])
            for perm in perms:
                term = np.ones(idx.shape[0])
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
