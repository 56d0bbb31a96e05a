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

from .fom import NonFiniteStateError, PolynomialFOM, SnapshotMatrix, explicit_euler_step
from .galerkin import AggregatedOperator
from .pod import PodBasis
from .tensor_poly import MonomialBasis, enumerate_monomials, feature_matrix, monomial_index_array


class SingularDataMatrixError(RuntimeError):
    """The square data matrix is numerically singular.

    The generated state set guarantees invertibility, so this signals a
    caller bug (wrong degree set, mismatched basis, corrupted data).
    """


def pair_tags(basis: MonomialBasis) -> list[tuple]:
    """Tags of the rank-ensuring pairs, in feature order.

    ``("state", i, tup)`` for the canonical monomial tuple ``tup`` of each
    degree ``i``, then ``("input", j)`` for each input, ``j`` 1-based.
    """
    tags = [("state", i, tup) for i in basis.degree_set for tup in enumerate_monomials(basis.n, i)]
    return tags + [("input", j) for j in range(1, basis.n_u + 1)]


def rank_ensuring_pairs(basis: MonomialBasis, scale: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """The ``(n, n_f)`` states and ``(n_u, n_f)`` inputs of the rank-ensuring pairs.

    Column ``s`` is the pair of feature ``s``, tagged ``pair_tags(basis)[s]``:
    for monomial tuple ``tup``, ``scale`` times the sum of the unit vectors
    ``tup`` names (zero for degree 0) and a zero input; for input ``j``, a
    zero state and the unit input ``e_j``.  Scaling by ``c`` turns the data
    matrix into ``diag(c^i) P``, so it stays invertible; it moves the
    degree-``i`` part of the stepped data by ``c^i`` and so sets which degree
    dominates it.  A power of two keeps states and features exact.
    """
    if not (np.isfinite(scale) and scale > 0):
        raise ValueError(f"scale must be positive and finite, got {scale}")
    X = np.zeros((basis.n, basis.n_f))
    for i in basis.degree_set:
        columns = np.arange(basis.n_f)[basis.degree_slice(i)]
        for slot in monomial_index_array(basis.n, i).T:
            X[slot, columns] += 1.0
    X *= scale
    U = np.zeros((basis.n_u, basis.n_f))
    U[:, basis.input_slice] = np.eye(basis.n_u)
    return X, U


@dataclass(frozen=True)
class SnapshotEnsemble:
    """Single-step data: the layout, its features and derivative quotients.

    ``P`` is the (n_f, K) feature matrix, ``derivatives`` the (n, K) matrix
    of projected difference quotients, column ``s`` of both from the pair
    ``s`` of ``rank_ensuring_pairs(basis, scale)``.
    """

    basis: MonomialBasis
    dt: float
    P: np.ndarray
    derivatives: np.ndarray
    scale: float = 1.0

    @property
    def size(self) -> int:
        return self.P.shape[1]


def estimate_dt(pod_snapshots: SnapshotMatrix, basis: PodBasis, degree_set, n_u: int = 0) -> float:
    """Time step estimate from the dominant mode of the training trajectory.

    Takes the largest ratio between the projected difference quotient and
    the norm of the feature vector (layout of dimension one, ``degree_set``
    and ``n_u`` inputs) of the projected state and input, and returns its
    reciprocal.  Quotients with vanishing feature norm are skipped; if all
    are skipped the estimate is undefined and a ``ValueError`` is raised, as
    it is for inputs with other than ``n_u`` rows.
    """
    if pod_snapshots.states.shape[1] < 2:
        raise ValueError("need at least two snapshot columns")
    s = basis.matrix(1)[:, 0] @ pod_snapshots.states  # projected scalar states
    num = np.abs(np.diff(s) / np.diff(pod_snapshots.times))
    layout = MonomialBasis(n=1, degree_set=tuple(degree_set), n_u=n_u)
    features = feature_matrix(layout, s[None, :-1], pod_snapshots.inputs[:, :-1])
    den = np.linalg.norm(features, axis=0)
    valid = den > 1e-300
    if not np.any(valid):
        raise ValueError("all feature norms vanish; cannot estimate a time step")
    rate = np.max(num[valid] / den[valid])
    if rate <= 0:
        raise ValueError("trajectory is constant; cannot estimate a time step")
    return 1.0 / rate


def _build_ensemble(
    fom: PolynomialFOM, V: np.ndarray, dt: float, scale: float, known: dict
) -> SnapshotEnsemble:
    """The ensemble of the rank-ensuring pairs of ``V``'s width and the model.

    A pair whose tag ``known`` maps to a full-order quotient takes that
    quotient; every other pair is lifted and stepped once, and ``known``
    then maps every tag to its quotient.  A state pair lifts to the basis
    columns its tag names, added in that order, times ``scale``; degree-0
    and input pairs start at zero.  Unlike ``V @ x``, whose rounding depends
    on how BLAS blocks the sum over all ``n`` columns, this does not depend
    on how many columns ``V`` has, so a step reused by a wider basis is
    bitwise the step a fresh ensemble takes.
    """
    basis = MonomialBasis(n=V.shape[1], degree_set=fom.degree_set, n_u=fom.n_u)
    X, U = rank_ensuring_pairs(basis, scale)
    quotients = np.empty((fom.dimension, basis.n_f))
    tags = pair_tags(basis)
    for s, tag in enumerate(tags):
        if tag in known:
            quotients[:, s] = known[tag]
            continue
        x0 = np.zeros(V.shape[0])
        if tag[0] == "state":
            for j in tag[2]:
                x0 += V[:, j - 1]
            x0 *= scale
        try:
            x1 = explicit_euler_step(fom, x0, U[:, s], dt)
        except NonFiniteStateError as exc:
            raise NonFiniteStateError(f"single step failed for pair {tag}: {exc}") from exc
        quotients[:, s] = (x1 - x0) / dt
    known.update(zip(tags, quotients.T))  # views, so only the newest array is kept
    return SnapshotEnsemble(
        basis=basis,
        dt=dt,
        P=feature_matrix(basis, X, U),
        derivatives=V.T @ quotients,
        scale=scale,
    )


def generate_ensemble(fom: PolynomialFOM, V, dt: float, scale: float = 1.0) -> SnapshotEnsemble:
    """Run one explicit Euler step per rank-ensuring pair and collect the data.

    The pairs are :func:`rank_ensuring_pairs` of the layout of the width of
    the (N, n) basis array ``V`` and the model's degree set and input
    count, at amplitude ``scale``.  Each is lifted to the full order with ``V``,
    stepped once, and the difference quotient projected back.
    """
    return _build_ensemble(fom, V, dt, scale, known={})


def _factor_square(P):
    """The LU factors of ``P.T`` for a square ``P``.

    Raises ``SingularDataMatrixError`` when a pivot trips the guard
    described in :func:`solve_square`.
    """
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValueError(f"matrix must be square, got shape {P.shape}")
    lu, piv = scipy.linalg.lu_factor(P.T)
    row_max = np.maximum(P.max(axis=1), -P.min(axis=1))  # no |P| as large as P
    if np.any(np.abs(np.diag(lu)) <= 1e-14 * row_max):
        raise SingularDataMatrixError(
            "numerically singular data matrix; the generated states guarantee "
            "invertibility, so check degree set and basis consistency"
        )
    return lu, piv


def solve_square(P, B) -> np.ndarray:
    """The ``X`` with ``X @ P = B`` for a square, invertible ``P``.

    Factors ``P.T`` once by LU with partial pivoting and solves for every
    row of ``B`` (or for ``B`` itself, a vector).  A pivot at or below
    ``1e-14`` times the largest entry of its own row of ``P`` trips the
    singularity guard.  Rescaling a row rescales its pivot alike, so the
    guard gives the same verdict for ``P`` and for the ``diag(c^i) P`` of
    states scaled by ``c``.
    """
    factors = _factor_square(P)
    return scipy.linalg.lu_solve(factors, np.asarray(B, dtype=float).T).T


def _largest_singular_value(apply, apply_transpose, size: int, limit: float = np.inf) -> float:
    """``sigma_max`` of the ``size x size`` operator ``x -> apply(x)``.

    Golub-Kahan-Lanczos bidiagonalization (``A V_k = U_k B_k``, ``B_k``
    upper bidiagonal) with both Krylov bases fully reorthogonalized, from a
    fixed pseudo-random start vector.  The top Ritz triplet ``(sigma, U y,
    V z)`` of ``B_k`` has residual ``beta_k |y_k|``; the iteration stops
    when that is at most ``1e-14 sigma``, or after ``size`` steps, where the
    bidiagonalization is complete and ``sigma`` exact.  A diagonal entry
    ``alpha_k`` of ``B_k`` is a lower bound of ``sigma_max``; once one is not
    below ``limit`` it is returned at once.  Only the vectors of the steps
    taken are kept.  Norms are BLAS ``nrm2``, which does not overflow on
    entries whose squares would.
    """

    def norm(x):
        return scipy.linalg.norm(x, check_finite=False)

    v = np.random.default_rng(0).standard_normal(size)
    V, U, alphas, betas = [v / norm(v)], [], [], []
    for _ in range(size):
        u = _reorthogonalize(apply(V[-1]) - (betas[-1] * U[-1] if U else 0.0), U)
        alphas.append(norm(u))
        if not alphas[-1] < limit:
            return float(alphas[-1])
        U.append(u / alphas[-1])
        v = _reorthogonalize(apply_transpose(U[-1]) - alphas[-1] * V[-1], V)
        betas.append(norm(v))
        # B B^T of the bidiagonal scaled to unit largest entry, so squaring
        # neither overflows nor underflows
        scale = max(alphas)
        B = (np.diag(alphas) + np.diag(betas[:-1], 1)) / scale
        eigenvalues, Y = np.linalg.eigh(B @ B.T)
        sigma = scale * np.sqrt(eigenvalues[-1])
        if betas[-1] * abs(Y[-1, -1]) <= 1e-14 * sigma:
            break
        V.append(v / betas[-1])
    return float(sigma)


def _reorthogonalize(w, basis):
    """``w`` with its components along the orthonormal ``basis`` removed
    (two classical Gram-Schmidt passes)."""
    if basis:
        Q = np.array(basis)
        for _ in range(2):
            w = w - Q.T @ (Q @ w)
    return w


def _condition_number(P, factors) -> float:
    """Spectral condition number ``sigma_max(P) sigma_max(P^-1)`` of a square ``P``.

    ``factors`` is the LU of ``P.T`` from :func:`_factor_square`.
    :func:`_largest_singular_value` runs on ``P / max|P|`` by products and
    on its inverse by ``lu_solve``; the scaling leaves the product unchanged
    and puts the first factor in ``[1, size]``.  A smallest singular value
    at or below ``max(P.shape) * eps * sigma_max`` counts as zero and makes
    the condition number infinite: the rank cutoff of
    :func:`numpy.linalg.matrix_rank` and of :func:`numpy.linalg.lstsq` with
    ``rcond=None``, which :func:`standard_opinf` reads its rank from.  The
    inverse's run stops as soon as that is certain, before its vectors can
    overflow.
    """
    size = P.shape[0]
    m = max(P.max(), -P.min())
    sigma_max = _largest_singular_value(lambda x: (P @ x) / m, lambda y: (y @ P) / m, size)
    cutoff = max(P.shape) * np.finfo(float).eps * sigma_max
    inverse_max = _largest_singular_value(
        lambda x: m * scipy.linalg.lu_solve(factors, x, trans=1),
        lambda y: m * scipy.linalg.lu_solve(factors, y),
        size,
        limit=1.0 / cutoff,
    )
    if not 1.0 / inverse_max > cutoff:
        return float("inf")
    return sigma_max * inverse_max


@dataclass(frozen=True)
class InferenceResult:
    """Inferred operator with solve diagnostics attached."""

    operator: AggregatedOperator
    cond_P: float
    residual: float


def infer(ensemble: SnapshotEnsemble) -> InferenceResult:
    """Solve the square linear system defined by the ensemble.

    ``P`` is factored once, by the LU and pivot guard of
    :func:`solve_square`.  Those factors give the operator rows and the
    spectral condition number ``cond_P = sigma_max(P) sigma_max(P^-1)``:
    each factor is the largest singular value from a Golub-Kahan-Lanczos
    bidiagonalization, of ``P`` by products and of ``P^-1`` by LU solves
    (see :func:`_condition_number`).  No SVD of ``P`` is computed.
    """
    P = np.asarray(ensemble.P, dtype=float)
    factors = _factor_square(P)
    O = scipy.linalg.lu_solve(factors, np.asarray(ensemble.derivatives, dtype=float).T).T
    cond = _condition_number(P, factors)
    residual = float(np.linalg.norm(O @ P - ensemble.derivatives))
    operator = AggregatedOperator(basis=ensemble.basis, matrix=O)
    return InferenceResult(operator=operator, cond_P=cond, residual=residual)


def exact_opinf(fom: PolynomialFOM, V, dt: float, scale: float = 1.0) -> InferenceResult:
    """Generate the minimal single-step ensemble and solve for the operator.

    ``scale`` is the state amplitude of :func:`rank_ensuring_pairs`.
    """
    return infer(generate_ensemble(fom, V, dt, scale))


def sweep(fom: PolynomialFOM, V, dt: float, scale: float = 1.0):
    """Yield ``(ensemble, infer(ensemble))`` of ``V[:, :n]`` for ``n = 1 .. V.shape[1]``.

    Every rank-ensuring pair of width ``n`` is also one of width ``n + 1``,
    under the same tag, so each width steps only the pairs it adds; each
    ensemble is bitwise :func:`generate_ensemble`'s.  A failed step or a
    singular data matrix is re-raised with its width, ``n={n}: ``, in front.
    Only the model's right-hand side is called, so the sweep runs on a
    black-box model.
    """
    known = {}
    for n in range(1, V.shape[1] + 1):
        try:
            ensemble = _build_ensemble(fom, V[:, :n], dt, scale, known)
            result = infer(ensemble)
        except (NonFiniteStateError, SingularDataMatrixError) as exc:
            raise type(exc)(f"n={n}: {exc}") from exc
        yield ensemble, result


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
    returned and flagged.  The rank and the singular values come from the
    SVD inside :func:`numpy.linalg.lstsq`, whose ``rcond=None`` cutoff
    ``max(P.shape) * eps * sigma_1`` is that of :func:`_condition_number`;
    ``cond_P`` is infinite when the rank is below ``n_f``.
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

    O, _, rank, svals = np.linalg.lstsq(P.T, dXdt.T, rcond=None)
    deficient = rank < basis.n_f
    # with fewer snapshots than features P has fewer singular values than
    # rows, so their ratio alone can look well conditioned
    cond = float("inf") if deficient else float(svals[0] / svals[-1])
    if regularization > 0:
        G = P @ P.T + regularization * np.eye(basis.n_f)
        O = np.linalg.solve(G, P @ dXdt.T)
    operator = AggregatedOperator(basis=basis, matrix=O.T)
    return LeastSquaresResult(operator, int(rank), cond, deficient)
