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

from .tensor_poly import PRODUCT_BLOCK_ENTRIES, MonomialBasis, feature_matrix, monomial_index_array, ordered_product

NEWTON_TOL = 1e-10  # implicit Euler's Newton residual tolerance, times 1 + ||x||
NEWTON_MAX_ITER = 50


class NonFiniteStateError(RuntimeError):
    """Right-hand side or integrator produced NaN/inf values; ``column``: a block's first."""

    def __init__(self, message: str, column: int | None = None):
        super().__init__(message)
        self.column = column


class NewtonError(RuntimeError):
    """Newton iteration for an implicit step failed to converge."""


@dataclass(frozen=True)
class PolynomialFOM:
    """Dynamical system ``x' = f(x, u)`` with polynomial state dependence.

    ``rhs(x, u)`` is always available and acts column-wise: column ``k`` of its
    value on ``(N, m)`` states and ``(n_u, m)`` inputs is bitwise its call on column
    ``k`` (``generate_ensemble`` steps its pairs so, in blocks).  ``multilinear``
    optionally maps each degree ``i`` to a symmetric i-linear function of ``i``
    vectors whose diagonal reproduces the degree-``i`` part of ``rhs``, acting
    column-wise on ``(N,)`` or ``(N, m)`` arguments (``intrusive_reduce`` stacks
    blocks of columns); ``input_map`` optionally evaluates
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


def _state_and_input(fom: PolynomialFOM, x, u, block=()):
    """``x`` and ``u`` (``None``: zero input) as float arrays of shapes ``(N, *block)`` and ``(n_u, *block)``."""
    u = np.zeros((fom.n_u, *block)) if u is None else u
    return _shaped("state", x, (fom.dimension, *block)), _shaped("input", u, (fom.n_u, *block))


def _shaped(name: str, a, shape: tuple) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.shape != shape:
        raise ValueError(f"{name} has shape {a.shape}, expected {shape}")
    return a


def _failed_column(a):
    """The first column of a block ``a`` with a non-finite entry, ``None`` for a vector."""
    return None if a.ndim == 1 else int(np.argmin(np.isfinite(a).all(axis=0)))


def _finite(f) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if not np.isfinite(f).all():
        raise NonFiniteStateError("right-hand side returned non-finite values", _failed_column(f))
    return f


def eval_rhs(fom: PolynomialFOM, x, u=None) -> np.ndarray:
    """Evaluate the right-hand side of a state or a block, rejecting non-finite results."""
    return _finite(fom.rhs(*_state_and_input(fom, x, u, np.shape(x)[1:2])))


def _check_dt(dt: float) -> None:
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError("time step must be positive and finite")


def explicit_euler_step(fom: PolynomialFOM, x, u, dt: float) -> np.ndarray:
    """One explicit Euler step ``x + dt * f(x, u)`` of a state, or column-wise of an ``(N, m)``
    block with ``(n_u, m)`` inputs, rejecting a non-finite one (naming a block's column)."""
    _check_dt(dt)
    y = _euler(np.asarray(x, dtype=float), eval_rhs(fom, x, u), dt)
    if not np.isfinite(y).all():
        raise NonFiniteStateError(f"step of size {dt:g} left the finite range", _failed_column(y))
    return y


def _euler(x: np.ndarray, f: np.ndarray, dt: float) -> np.ndarray:
    if (f := np.asarray(f, dtype=float)).shape != x.shape:
        raise ValueError(f"right-hand side has shape {f.shape} at states of shape {x.shape}")
    return x + dt * f


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

    ``signal`` maps ``t``, a Python float, to the input (``None``: zero input), each sample's shape
    checked and held over the step from there.  The returned matrix holds ``K + 1`` columns from
    ``x0``; ``dt`` and ``x0`` are checked first.  Steps run in blocks of ``PRODUCT_BLOCK_ENTRIES // N``,
    explicit ones by ``explicit_euler_step``'s arithmetic with finiteness checked once per block:
    a model may see a block of non-finite states before the first one's step is replayed, checked.
    """
    if scheme not in ("explicit_euler", "implicit_euler"):
        raise ValueError(f"unknown scheme {scheme!r}")
    _check_dt(dt)
    x, _ = _state_and_input(fom, x0, None)
    if signal is None:
        signal = lambda t: np.zeros(fom.n_u)
    states = np.empty((fom.dimension, K + 1))
    inputs = np.empty((fom.n_u, K + 1))
    times = dt * np.arange(K + 1)
    states[:, 0] = x
    if fom.linearize is not None:  # a step's first iterate is the last step's accepted one
        fom = replace(fom, linearize=_reusing_last(fom.linearize))
    quiet = "ignore" if scheme == "explicit_euler" else None  # explicit steps are checked once per block
    width = max(1, PRODUCT_BLOCK_ENTRIES // fom.dimension)
    rows, row_inputs = np.empty((width + 1, fom.dimension)), np.empty((width, fom.n_u))

    def check(a, n):  # replay, checked, the step to the block's first non-finite state: its error
        for j in np.flatnonzero(~np.isfinite(rows[1 : n + 1]).all(axis=1))[:1]:
            try:
                explicit_euler_step(fom, rows[j], row_inputs[j], dt)
            except NonFiniteStateError as exc:
                raise NonFiniteStateError(f"step {a + j} failed: {exc}") from exc
    for a in range(0, K, width):
        rows[0] = x  # row i + 1 gets step a + i's state; x is its own contiguous array
        try:
            with np.errstate(over=quiet, invalid=quiet):
                for i, t in enumerate(times[a : min(a + width, K)].tolist()):
                    row_inputs[i] = u = _shaped("input", signal(t), (fom.n_u,))
                    x = rows[i + 1] = _euler(x, fom.rhs(x, u), dt) if quiet else implicit_euler_step(fom, x, u, dt)
        except Exception as exc:  # a non-finite state before the step that raised is its cause
            check(a, i)
            if isinstance(exc, (NonFiniteStateError, NewtonError)):
                raise type(exc)(f"step {a + i} failed: {exc}") from exc
            raise
        check(a, i + 1)
        states[:, a + 1 : a + i + 2], inputs[:, a : a + i + 1] = rows[1 : i + 2].T, row_inputs[: i + 1].T
    inputs[:, K] = _shaped("input", signal(float(times[K])), (fom.n_u,))
    return SnapshotMatrix(states=states, times=times, inputs=inputs)


def from_dense_operators(
    matrices: dict[int, np.ndarray],
    input_matrix: np.ndarray | None = None,
) -> PolynomialFOM:
    """Build a model from explicit dense degree matrices (and input matrix).

    ``matrices[i]`` has shape (N, C(N+i-1, i)) and acts on the compressed
    degree-``i`` power of the state; the right-hand side is one
    :func:`ordered_product` of ``[A_i ... | B]`` with the feature vectors of a
    state or a block, so it acts column-wise.  Multilinear access is
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
        m = x.size // N
        F = feature_matrix(layout, x.reshape(N, m), u.reshape(n_u, m))
        return ordered_product(O.T, F).reshape(x.shape)

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
