"""Nonintrusive reconstruction of reduced operators from single-step data.

The data matrix of the inference problem depends only on the chosen reduced
states and inputs, not on the unknown model.  Choosing, for each degree
``i`` in the degree set, all sums of ``i`` unit vectors (plus unit inputs)
makes the data matrix square and provably invertible, so one full-order
explicit Euler step per chosen state suffices to recover the intrusively
reduced operator to floating-point accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .diagnostics import rank_and_condition
from .fom import PolynomialFOM, SnapshotMatrix, explicit_euler_step
from .galerkin import AggregatedOperator
from .pod import PodBasis, basis_matrix
from .tensor_poly import (
    MonomialBasis,
    enumerate_monomials,
    feature_matrix,
    feature_vector,
)


class SingularDataMatrixError(RuntimeError):
    """The square data matrix is numerically singular.

    The generated state set guarantees invertibility, so this signals a
    caller bug (wrong degree set, mismatched basis, corrupted data).
    """


@dataclass(frozen=True)
class RankEnsuringPair:
    """One reduced state / input pair with its provenance.

    State pairs carry a zero input and a state that is ``scale`` times a sum
    of ``i`` unit vectors; input pairs carry a zero state and a unit input,
    and record the scale of the set they belong to.  ``provenance`` is
    ``("state", degree, index_tuple)`` or ``("input", j)`` with ``j``
    1-based.
    """

    state: np.ndarray
    inp: np.ndarray
    provenance: tuple
    scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "state", np.asarray(self.state, dtype=float))
        object.__setattr__(self, "inp", np.asarray(self.inp, dtype=float))


def rank_ensuring_pairs(
    n: int, degree_set, n_u: int = 0, scale: float = 1.0
) -> list[RankEnsuringPair]:
    """State pairs (canonical order) followed by one unit-input pair per input.

    The state of the k-th pair of the degree-``i`` block is the sum of the
    unit vectors named by the k-th canonical monomial tuple, so states and
    feature-vector entries line up one-to-one; degree 0 contributes the zero
    state.  Every state is multiplied by ``scale``; the default 1.0 gives
    the unit states.  Scaling by ``c`` turns the data matrix into
    ``diag(c^i) P``, so it stays invertible; it moves the degree-``i`` part
    of the stepped data by ``c^i`` and so sets which degree dominates it.
    A power of two keeps states and features exact.  Inputs stay unit
    vectors.
    """
    if not (np.isfinite(scale) and scale > 0):
        raise ValueError(f"scale must be positive and finite, got {scale}")
    basis = MonomialBasis(n=n, degree_set=tuple(degree_set), n_u=n_u)
    pairs = []
    for i in basis.degree_set:
        for tup in enumerate_monomials(n, i):
            x = np.zeros(n)
            for j in tup:
                x[j - 1] += 1.0
            pairs.append(
                RankEnsuringPair(
                    state=scale * x,
                    inp=np.zeros(n_u),
                    provenance=("state", i, tup),
                    scale=scale,
                )
            )
    for j in range(n_u):
        u = np.zeros(n_u)
        u[j] = 1.0
        pairs.append(
            RankEnsuringPair(
                state=np.zeros(n), inp=u, provenance=("input", j + 1), scale=scale
            )
        )
    return pairs


def pair_feature_matrix(pairs, basis: MonomialBasis) -> np.ndarray:
    """Stack the feature vectors of the pairs as columns (n_f x K)."""
    P = np.empty((basis.n_f, len(pairs)))
    for s, pair in enumerate(pairs):
        P[:, s] = feature_vector(basis, pair.state, pair.inp)
    return P


@dataclass(frozen=True)
class SnapshotEnsemble:
    """Single-step data: chosen pairs, their features and derivative quotients.

    ``P`` is the (n_f, K) feature matrix, ``derivatives`` the (n, K) matrix
    of projected difference quotients.  ``fom_quotients`` keeps the
    full-order quotients ``(x_1 - x_0)/dt`` so the data can be reused when
    the basis is extended; it is ``None`` for ensembles loaded from disk.
    """

    basis: MonomialBasis
    pairs: tuple
    dt: float
    P: np.ndarray
    derivatives: np.ndarray
    fom_quotients: np.ndarray | None = None
    V: np.ndarray | None = None

    @property
    def size(self) -> int:
        return self.P.shape[1]

    @property
    def scale(self) -> float:
        """State amplitude of the pairs; :func:`extend_ensemble` keeps it,
        and the ensemble file's sidecar records it."""
        return self.pairs[0].scale


def estimate_dt(pod_snapshots: SnapshotMatrix, basis: PodBasis, degree_set, n_u: int = 0) -> float:
    """Time step estimate from the dominant mode of the training trajectory.

    Takes the largest ratio between the projected difference quotient and
    the feature norm of the projected state (dimension one), and returns its
    reciprocal.  Quotients with vanishing feature norm are skipped; if all
    are skipped the estimate is undefined and a ``ValueError`` is raised.
    """
    if pod_snapshots.states.shape[1] < 2:
        raise ValueError("need at least two snapshot columns")
    v1 = basis.matrix(1)[:, 0]
    X = pod_snapshots.states
    times = pod_snapshots.times
    U = pod_snapshots.inputs
    s = v1 @ X  # projected scalar states
    num = np.abs(np.diff(s) / np.diff(times))
    degrees = tuple(sorted(set(int(i) for i in degree_set)))
    den_sq = np.zeros(X.shape[1] - 1)
    for i in degrees:
        den_sq += s[:-1] ** (2 * i)
    den_sq += np.sum(U[:, :-1] ** 2, axis=0)
    den = np.sqrt(den_sq)
    valid = den > 1e-300
    if not np.any(valid):
        raise ValueError("all feature norms vanish; cannot estimate a time step")
    rate = np.max(num[valid] / den[valid])
    if rate <= 0:
        raise ValueError("trajectory is constant; cannot estimate a time step")
    return 1.0 / rate


def _lift(pair: RankEnsuringPair, V: np.ndarray) -> np.ndarray:
    """Full-order start state of a pair.

    A state pair lifts to the basis columns its provenance names, added in
    that order, times its scale; degree-0 and input pairs start at zero.
    Unlike ``V @ pair.state``, whose rounding depends on how BLAS blocks the
    sum over all ``n`` columns, this does not depend on how many columns
    ``V`` has, so a step reused after the basis grows is bitwise the step a
    fresh ensemble takes.
    """
    x = np.zeros(V.shape[0])
    if pair.provenance[0] == "state":
        for j in pair.provenance[2]:
            x += V[:, j - 1]
        x *= pair.scale
    return x


def _step_pairs(fom, V, pairs, dt, indices, quotients) -> None:
    """Step each pair named by ``indices`` once, into ``quotients[:, s]``."""
    for s in indices:
        pair = pairs[s]
        x0 = _lift(pair, V)
        try:
            x1 = explicit_euler_step(fom, x0, pair.inp, dt)
        except Exception as exc:
            raise RuntimeError(f"single step failed for pair {pair.provenance}: {exc}") from exc
        quotients[:, s] = (x1 - x0) / dt


def generate_ensemble(fom: PolynomialFOM, V, pairs, dt: float) -> SnapshotEnsemble:
    """Run one explicit Euler step per pair and collect the inference data.

    Each pair is lifted to the full order with the basis (see :func:`_lift`),
    stepped once, and the difference quotient projected back.
    """
    if dt <= 0:
        raise ValueError("time step must be positive")
    V = basis_matrix(V)
    n = V.shape[1]
    degrees = fom.degree_set
    basis = MonomialBasis(n=n, degree_set=degrees, n_u=fom.n_u)
    pairs = tuple(pairs)
    quotients = np.empty((fom.dimension, len(pairs)))
    _step_pairs(fom, V, pairs, dt, range(len(pairs)), quotients)

    return SnapshotEnsemble(
        basis=basis,
        pairs=pairs,
        dt=dt,
        P=pair_feature_matrix(pairs, basis),
        derivatives=V.T @ quotients,
        fom_quotients=quotients,
        V=V,
    )


@dataclass(frozen=True)
class InferenceResult:
    """Inferred operator with solve diagnostics attached."""

    operator: AggregatedOperator
    cond_P: float
    residual: float


def infer(ensemble: SnapshotEnsemble) -> InferenceResult:
    """Solve the square linear system defined by the ensemble.

    Factors the (transposed) feature matrix once by LU with partial
    pivoting and solves for all operator rows.  A pivot at or below
    ``1e-14`` times the largest entry of its own feature row trips the
    singularity guard.  Rescaling a feature row rescales its pivot alike,
    so the guard gives the same verdict for ``P`` and for the
    ``diag(c^i) P`` of states scaled by ``c``.  The condition number of the
    feature matrix is computed by SVD (see :func:`rank_and_condition`) and
    attached to the result.
    """
    P = ensemble.P
    if P.shape[0] != P.shape[1]:
        raise ValueError(f"feature matrix must be square, got shape {P.shape}")
    lu, piv = scipy.linalg.lu_factor(P.T)
    pivots = np.abs(np.diag(lu))
    if np.any(pivots <= 1e-14 * np.max(np.abs(P), axis=1)):
        raise SingularDataMatrixError(
            "numerically singular data matrix; the generated states guarantee "
            "invertibility, so check degree set and basis consistency"
        )
    O = scipy.linalg.lu_solve((lu, piv), ensemble.derivatives.T).T
    _, cond = rank_and_condition(P)
    residual = float(np.linalg.norm(O @ P - ensemble.derivatives))
    operator = AggregatedOperator(basis=ensemble.basis, matrix=O)
    return InferenceResult(operator=operator, cond_P=cond, residual=residual)


def exact_opinf(
    fom: PolynomialFOM,
    V,
    degree_set,
    n_u: int,
    dt: float,
    scale: float = 1.0,
) -> InferenceResult:
    """Generate the minimal single-step ensemble and solve for the operator.

    ``scale`` is the state amplitude of :func:`rank_ensuring_pairs`.
    """
    V = basis_matrix(V)
    pairs = rank_ensuring_pairs(V.shape[1], degree_set, n_u, scale)
    ensemble = generate_ensemble(fom, V, pairs, dt)
    return infer(ensemble)


def extend_ensemble(old: SnapshotEnsemble, fom: PolynomialFOM, V_plus) -> SnapshotEnsemble:
    """Grow an ensemble to a larger reduced dimension, reusing old steps.

    Every pair of the smaller dimension also occurs at the larger one, at
    the same scale (its state zero-padded and lifted by the same leading
    basis columns), so its full-order step is reused verbatim; only the
    genuinely new pairs are simulated.  The extended basis must agree with
    the old one on its leading columns.
    """
    if old.fom_quotients is None or old.V is None:
        raise ValueError("ensemble lacks full-order data; regenerate it from the model")
    V_plus = basis_matrix(V_plus)
    n_old = old.V.shape[1]
    n_plus = V_plus.shape[1]
    if n_plus <= n_old:
        raise ValueError(f"extended dimension {n_plus} must exceed {n_old}")
    if np.max(np.abs(V_plus[:, :n_old] - old.V)) > 1e-14:
        raise ValueError("extended basis does not match the original leading columns")

    old_column = {(pair.provenance, pair.scale): s for s, pair in enumerate(old.pairs)}
    pairs = tuple(
        rank_ensuring_pairs(n_plus, old.basis.degree_set, old.basis.n_u, old.scale)
    )
    quotients = np.empty((fom.dimension, len(pairs)))
    new_indices = []
    for s, pair in enumerate(pairs):
        key = (pair.provenance, pair.scale)
        if pair.provenance[0] == "state":
            # a state pair exists at the old dimension iff no index exceeds it
            reusable = all(j <= n_old for j in pair.provenance[2])
        else:
            reusable = True
        if reusable and key in old_column:
            quotients[:, s] = old.fom_quotients[:, old_column[key]]
        else:
            new_indices.append(s)
    _step_pairs(fom, V_plus, pairs, old.dt, new_indices, quotients)

    basis = MonomialBasis(n=n_plus, degree_set=old.basis.degree_set, n_u=old.basis.n_u)
    return SnapshotEnsemble(
        basis=basis,
        pairs=pairs,
        dt=old.dt,
        P=pair_feature_matrix(pairs, basis),
        derivatives=V_plus.T @ quotients,
        fom_quotients=quotients,
        V=V_plus,
    )


@dataclass(frozen=True)
class LeastSquaresResult:
    """Baseline trajectory-data inference with rank diagnostics."""

    operator: AggregatedOperator
    rank: int
    cond_P: float
    rank_deficient: bool


def standard_opinf(
    trajectory: SnapshotMatrix,
    basis: MonomialBasis,
    regularization: float = 0.0,
) -> LeastSquaresResult:
    """Least-squares operator fit to reduced trajectory data.

    States are the trajectory columns (already reduced), derivatives their
    forward difference quotients.  With positive ``regularization`` the
    Tikhonov-shifted normal equations are solved; with zero regularization
    and a rank-deficient feature matrix the minimum-norm solution is
    returned and flagged.
    """
    if regularization < 0:
        raise ValueError("regularization must be non-negative")
    X = trajectory.states
    if X.shape[0] != basis.n:
        raise ValueError(f"trajectory dimension {X.shape[0]} does not match basis n={basis.n}")
    if X.shape[1] < 2:
        raise ValueError("need at least two snapshots")
    dXdt = np.diff(X, axis=1) / np.diff(trajectory.times)
    P = feature_matrix(basis, X[:, :-1], trajectory.inputs[:, :-1])

    rank, cond = rank_and_condition(P)
    deficient = rank < basis.n_f
    if deficient:
        # with fewer snapshots than features P has fewer singular values
        # than rows, so their ratio alone can look well conditioned
        cond = float("inf")

    if regularization > 0:
        G = P @ P.T + regularization * np.eye(basis.n_f)
        O = np.linalg.solve(G, P @ dXdt.T).T
    else:
        O = np.linalg.lstsq(P.T, dXdt.T, rcond=None)[0].T
    operator = AggregatedOperator(basis=basis, matrix=O)
    return LeastSquaresResult(operator=operator, rank=rank, cond_P=cond, rank_deficient=deficient)
