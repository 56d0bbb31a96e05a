"""Nonintrusive reconstruction of reduced operators from single-step data.

The data matrix of the inference problem depends only on the chosen reduced
states and inputs, not on the unknown model.  Choosing, for each degree
``i`` in the degree set, all sums of ``i`` unit vectors (plus unit inputs)
makes the data matrix square and provably invertible, so one full-order
explicit Euler step per chosen state suffices to recover the intrusively
reduced operator to floating-point accuracy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .fom import NonFiniteStateError, PolynomialFOM, SnapshotMatrix, explicit_euler_step
from .galerkin import AggregatedOperator
from .pod import PodBasis, bidiagonalize
from .tensor_poly import (
    PRODUCT_BLOCK_ENTRIES, MonomialBasis, enumerate_monomials, feature_matrix, monomial_index_array,
    norm, ordered_product,
)


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


def _lift(V, basis: MonomialBasis, scale: float):
    """Yield ``(pairs, X)`` in feature order: a slice of ``pair_tags(basis)`` within one degree
    or the inputs, at most ``PRODUCT_BLOCK_ENTRIES // N`` long, and its ``(N, m)`` states in the
    ``(N, n)`` basis ``V``.  Column ``s`` is ``scale`` times the columns its tuple names, added
    left to right from zero, so its bits depend on those columns alone; degree-0 and input
    pairs get zero columns."""
    if not (np.isfinite(scale) and scale > 0):
        raise ValueError(f"scale must be positive and finite, got {scale}")
    width = max(1, PRODUCT_BLOCK_ENTRIES // V.shape[0])
    layout = [(basis.degree_slice(i).start, monomial_index_array(basis.n, i)) for i in basis.degree_set]
    for offset, idx in layout + [(basis.input_slice.start, np.empty((basis.n_u, 0), int))]:
        for start in range(0, len(idx), width):
            tuples = idx[start : start + width]
            X = np.zeros((V.shape[0], len(tuples)))
            for slot in tuples.T:
                X += V[:, slot]
            yield slice(offset + start, offset + start + len(tuples)), scale * X


def rank_ensuring_pairs(basis: MonomialBasis, scale: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """The ``(n, n_f)`` states and ``(n_u, n_f)`` inputs of the rank-ensuring pairs.

    Column ``s`` is the pair of feature ``s``, tagged ``pair_tags(basis)[s]``:
    for monomial tuple ``tup``, ``scale`` times the sum of the unit vectors
    ``tup`` names (zero for degree 0; :func:`_lift` of the identity) and a
    zero input; for input ``j``, a zero state and the unit input ``e_j``.
    Scaling by ``c`` turns the data matrix into ``diag(c^i) P``, so it stays
    invertible; it moves the degree-``i`` part of the stepped data by ``c^i``
    and so sets which degree dominates it.  A power of two keeps states and features exact.
    """
    X = np.hstack([block for _, block in _lift(np.eye(basis.n), basis, scale)])  # C order
    U = np.zeros((basis.n_u, basis.n_f))
    U[:, basis.input_slice] = np.eye(basis.n_u)
    return X, U


@dataclass(frozen=True)
class SnapshotEnsemble:
    """Single-step data: the (n, K) projected difference quotients ``derivatives``,
    column ``s`` from the pair ``s`` of ``rank_ensuring_pairs(basis, scale)``, whose
    feature matrix is :func:`pair_solver`'s, a function of ``basis`` and ``scale``."""

    basis: MonomialBasis
    dt: float
    derivatives: np.ndarray
    scale: float = 1.0

    @property
    def size(self) -> int:
        return self.derivatives.shape[1]


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
    s = ordered_product(basis.matrix(1), pod_snapshots.states)[0]  # projected scalar states
    num = np.abs(np.diff(s) / np.diff(pod_snapshots.times))
    layout = MonomialBasis(n=1, degree_set=tuple(degree_set), n_u=n_u)
    features = feature_matrix(layout, s[None, :-1], pod_snapshots.inputs[:, :-1])
    den = np.sqrt(np.add.reduce(features * features, axis=0))
    valid = den > 1e-300
    if not np.any(valid):
        raise ValueError("all feature norms vanish; cannot estimate a time step")
    rate = np.max(num[valid] / den[valid])
    if rate <= 0:
        raise ValueError("trajectory is constant; cannot estimate a time step")
    return 1.0 / rate


def generate_ensemble(fom: PolynomialFOM, V, dt: float, scale: float = 1.0) -> SnapshotEnsemble:
    """Run one explicit Euler step per rank-ensuring pair and collect the data.

    The pairs are :func:`rank_ensuring_pairs` of the width of the (N, n) basis
    array ``V`` and the model's degrees and inputs, at amplitude ``scale``.  Each
    block of :func:`_lift` of ``V`` is stepped by one column-wise ``rhs`` call and
    projected by :func:`ordered_product`: no ``N x n_f`` array is held, and each
    pair's data is bitwise the same at every width.  A failed step names its pair's
    tag; a ``V`` other than 2-D with ``fom.dimension`` rows raises ``ValueError``.
    """
    if V.ndim != 2 or V.shape[0] != fom.dimension:
        raise ValueError(f"basis has shape {V.shape}, model dimension is {fom.dimension}")
    basis = MonomialBasis(n=V.shape[1], degree_set=fom.degree_set, n_u=fom.n_u)
    _, U = rank_ensuring_pairs(basis, scale)
    tags, derivatives = pair_tags(basis), np.empty((basis.n, basis.n_f))
    for pairs, X in _lift(V, basis, scale):
        try:
            step = explicit_euler_step(fom, X, U[:, pairs], dt)
        except NonFiniteStateError as exc:
            tag = tags[pairs][exc.column]
            raise NonFiniteStateError(f"single step failed for pair {tag}: {exc}") from exc
        derivatives[:, pairs] = ordered_product(V, (step - X) / dt)
    return SnapshotEnsemble(basis, dt, derivatives, scale)


def narrow(ensemble: SnapshotEnsemble, n: int) -> SnapshotEnsemble:
    """The ensemble of the first ``n`` basis columns (itself at its own width).

    It keeps the pairs whose states are zero beyond row ``n``, degree 0 and inputs at every
    width, and the first ``n`` rows of their derivatives: bitwise :func:`generate_ensemble`
    at width ``n``, with no step.  An ``n`` outside ``1 .. basis.n`` raises ``ValueError``.
    """
    basis = ensemble.basis
    if not 1 <= n <= basis.n:
        raise ValueError(f"width {n} is outside the ensemble's widths 1..{basis.n}")
    if n == basis.n:
        return ensemble
    pairs = np.flatnonzero(~rank_ensuring_pairs(basis)[0][n:].any(axis=0))
    return replace(ensemble, basis=replace(basis, n=n), derivatives=ensemble.derivatives[:n, pairs])


def _factor_square(P, groups):
    """LU factors ``(lu, piv)``, ``P.T[piv] = L U``, of a square ``P`` in numpy steps (no BLAS),
    pivoting column ``k`` among the rows of its label in the contiguous ``groups``, group by
    group.  A pivot at or below ``1e-14`` times the largest entry of its own row of ``P``
    raises ``SingularDataMatrixError``; rescaling a row rescales its pivot alike, so ``P``
    and the ``diag(c^i) P`` of states scaled by ``c`` get the same verdict."""
    lu, piv = P.T.copy(), np.arange(len(P))
    row_max = np.maximum(P.max(axis=1), -P.min(axis=1))
    for k in range(len(P)):
        p = k + int(np.argmax(np.where(groups[k:] == groups[k], np.abs(lu[k:, k]), -1.0)))
        lu[[k, p]], piv[[k, p]] = lu[[p, k]], piv[[p, k]]
        if abs(lu[k, k]) <= 1e-14 * row_max[k]:
            raise SingularDataMatrixError(
                "numerically singular data matrix; the generated states guarantee "
                "invertibility, so check degree set and basis consistency"
            )
        lu[k + 1 :, k] /= lu[k, k]
        lu[k + 1 :, k + 1 :] -= np.multiply.outer(lu[k + 1 :, k], lu[k, k + 1 :])
    return lu, piv


def _lu_solve(factors, B) -> np.ndarray:
    """The ``(k, m)`` rows ``X`` with ``X @ P = B`` for :func:`_factor_square`'s factors of
    ``P``, by elementwise substitution: fixed-order sums."""
    lu, piv = factors
    Y = B.T[piv]  # solved in place
    for k in range(len(piv)):  # forward: L has a unit diagonal
        Y[k + 1 :] -= np.multiply.outer(lu[k + 1 :, k], Y[k])
    for k in reversed(range(len(piv))):
        Y[k] /= lu[k, k]
        Y[:k] -= np.multiply.outer(lu[:k, k], Y[k])
    return Y.T


class _LevelSolver:
    """A square ``P``, block upper triangular by levels, with its products and solves.

    ``levels`` lists ``(idx, block, groups, rows, values)`` from the lowest level: row ``s``
    of ``idx`` indexes a diagonal block, the ``m x m`` ``block`` (factored once, pivoting
    within its column ``groups``), and row ``s`` of ``rows`` the lower rows that may be
    nonzero in its columns, with entry ``values[t, c]`` in column ``idx[s, c]``.  Products
    are ``np.einsum`` without ``optimize`` and ``np.bincount``: fixed-order sums at the cost
    of ``P``'s nonzeros.  :meth:`right_solve` substitutes on the factors; inverse products
    use the block's inverse, formed once from them, cheaper for :func:`_condition_number`.
    """

    def __init__(self, levels):
        self.size = sum(idx.size for idx, _, _, _, _ in levels)
        self.levels = []
        for idx, B, groups, rows, C in levels:
            factors = _factor_square(B, groups)
            self.levels.append((idx, B, factors, _lu_solve(factors, np.eye(len(B))), rows, C))
        self.max_abs = max(max(M.max(), -M.min()) for _, B, _, _, C in levels for M in (B, C) if M.size)

    def right_product(self, Y) -> np.ndarray:
        """``Y @ P`` for a row or rows ``Y``."""
        out = np.empty_like(Y)
        for idx, block, _, _, rows, values in self.levels:
            out[..., idx] = np.einsum("...sa,ac->...sc", Y[..., idx], block)
            out[..., idx] += np.einsum("...st,tc->...sc", Y[..., rows], values)
        return out

    def right_solve(self, D) -> np.ndarray:
        """``D @ inv(P)`` for a row or rows ``D``, from the lowest level up:
        ``X_k = (D_k - X_{<k} C_k) B_k^-1`` for the coupling ``C_k`` above ``B_k``."""
        X = np.empty_like(D)
        for idx, _, factors, _, rows, values in self.levels:
            R = D[..., idx] - np.einsum("...st,tc->...sc", X[..., rows], values)
            X[..., idx] = _lu_solve(factors, R.reshape(-1, idx.shape[1])).reshape(R.shape)
        return X

    def _scatter(self, rows, values, x_level):
        """The lower rows' share of ``P @ x`` from one level's part of ``x``."""
        weights = np.einsum("tc,sc->st", values, x_level)
        return np.bincount(rows.ravel(), weights.ravel(), minlength=self.size)

    def left_product(self, x) -> np.ndarray:
        """``P @ x`` for a vector ``x``."""
        out = np.zeros_like(x)
        for idx, block, _, _, rows, values in self.levels:
            out[idx] += np.einsum("ac,sc->sa", block, x[idx])
            out += self._scatter(rows, values, x[idx])
        return out

    def inverse_times(self, x) -> np.ndarray:
        """``inv(P) @ x`` for a vector ``x``, from the highest level down."""
        r, z = x.copy(), np.empty_like(x)
        for idx, _, _, inverse, rows, values in reversed(self.levels):
            z[idx] = np.einsum("ac,sc->sa", inverse, r[idx])
            r -= self._scatter(rows, values, z[idx])
        return z

    def times_inverse(self, y) -> np.ndarray:
        """``y @ inv(P)`` for a vector ``y``: :meth:`right_solve` by the blocks' inverses."""
        X = np.empty_like(y)
        for idx, _, _, inverse, rows, values in self.levels:
            R = y[idx] - np.einsum("st,tc->sc", X[rows], values)
            X[idx] = np.einsum("sa,ac->sc", R, inverse)
        return X


def _square_solver(P) -> _LevelSolver:
    """An arbitrary square ``P`` as one level of one block."""
    P = np.asarray(P, dtype=float)
    return _LevelSolver([(np.arange(len(P))[None], P, np.zeros(len(P)), np.empty((1, 0), int), np.empty((0, len(P))))])


def pair_solver(basis: MonomialBasis, scale: float = 1.0) -> _LevelSolver:
    """``P = feature_matrix(basis, *rank_ensuring_pairs(basis, scale))`` by support levels.

    A feature's support is the set of indices its monomial names (none for degree 0 and
    inputs), and a pair's that of its tuple.  A feature is nonzero at a pair only if its
    support is within the pair's.  So, ordered by (support size, support, canonical
    index), ``P`` is block upper triangular by level (support size) and block diagonal
    within one, and one :func:`feature_matrix` of a level's first support's pairs gives
    all its blocks and the entries above them, products of the same multiplicities.
    """
    X, U = rank_ensuring_pairs(basis, scale)
    supports, levels, tags = {}, [], pair_tags(basis)
    degrees = np.array([tag[1] if tag[0] == "state" else -1 for tag in tags])  # inputs last
    for f, tag in enumerate(tags):
        supports.setdefault(tuple(sorted(set(tag[2]))) if tag[0] == "state" else (), []).append(f)
    for k, group in itertools.groupby(sorted(supports, key=lambda S: (len(S), S)), key=len):
        level = list(group)
        idx = np.array([supports[S] for S in level])
        subsets = [itertools.chain(*(itertools.combinations(S, j) for j in range(k))) for S in level]
        rows = np.array([[f for T in Ts for f in supports.get(T, ())] for Ts in subsets], dtype=int)
        F = feature_matrix(basis, X[:, idx[0]], U[:, idx[0]])
        levels.append((idx, F[idx[0]], degrees[idx[0]], rows, F[rows[0]]))
    return _LevelSolver(levels)


def _largest_singular_value(apply, apply_transpose, size: int, limit: float = np.inf) -> float:
    """``sigma_max`` of the ``size x size`` operator ``x -> apply(x)``.

    :func:`bidiagonalize` from a fixed pseudo-random start stops once the top Ritz value
    ``sigma`` of ``B_k`` has a residual of at most ``1e-14 sigma``, or after ``size`` steps,
    where it is exact; if the bidiagonalization ends first, its last ``sigma`` (0 before any
    step) is returned.  Each ``alpha_k`` is a lower bound; one not below ``limit`` is returned.
    """
    v, sigma = np.random.default_rng(0).standard_normal(size), 0.0
    for k, (alphas, betas, _) in enumerate(bidiagonalize(apply, apply_transpose, v), 1):
        if not alphas[-1] < limit:
            return float(alphas[-1])
        # B B^T scaled to unit largest entry: squaring neither overflows nor underflows
        scale = max(alphas)
        B = (np.diag(alphas) + np.diag(betas[:-1], 1)) / scale
        eigenvalues, Y = np.linalg.eigh(np.einsum("ij,kj->ik", B, B))
        sigma = scale * np.sqrt(eigenvalues[-1])
        if k == size or betas[-1] * abs(Y[-1, -1]) <= 1e-14 * sigma:
            break
    return float(sigma)


def _condition_number(solver: _LevelSolver) -> float:
    """Spectral condition number ``sigma_max(P) sigma_max(P^-1)`` of the solver's ``P``.

    :func:`_largest_singular_value` runs on ``P / max|P|`` by the solver's products
    and on its inverse by its solves; the scaling leaves the product unchanged and
    puts the first factor in ``[1, size]``.  A smallest singular value at or below
    ``size * eps * sigma_max`` counts as zero and makes the condition number
    infinite: the rank cutoff of :func:`numpy.linalg.matrix_rank` and of
    :func:`numpy.linalg.lstsq` with ``rcond=None``, which :func:`standard_opinf`
    reads its rank from.  The inverse's run stops once that is certain, before its
    vectors can overflow.
    """
    size, m = solver.size, solver.max_abs
    sigma_max = _largest_singular_value(
        lambda x: solver.left_product(x) / m, lambda y: solver.right_product(y) / m, size
    )
    cutoff = size * np.finfo(float).eps * sigma_max
    inverse_max = _largest_singular_value(
        lambda x: m * solver.inverse_times(x), lambda y: m * solver.times_inverse(y), size, 1.0 / cutoff
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
    """Solve the square linear system ``O P = derivatives`` of the ensemble.

    ``P`` is :func:`pair_solver`'s, of the ensemble's layout and amplitude, its
    level blocks factored once with the pivot guard of :func:`_factor_square`.
    Substitution over the levels gives the operator, and the solver's products and
    solves give ``cond_P = sigma_max(P) sigma_max(P^-1)`` (:func:`_condition_number`)
    and the residual ``||O P - derivatives||_F``.  No SVD and no dense ``P`` is made.
    """
    solver = pair_solver(ensemble.basis, ensemble.scale)
    D = np.asarray(ensemble.derivatives, dtype=float)
    O = solver.right_solve(D)
    residual = norm(solver.right_product(O) - D)
    return InferenceResult(AggregatedOperator(ensemble.basis, O), _condition_number(solver), residual)


def sweep(fom: PolynomialFOM, V, dt: float, scale: float = 1.0):
    """Yield ``(ensemble, infer(ensemble))`` of ``V[:, :n]`` for ``n = 1 .. V.shape[1]``.

    Each width is :func:`narrow`'s cut of the ensemble of ``V``, generated
    once, at the first ``next``; a failed step raises there, naming its pair
    tag, whose largest index is the pair's first width.  A singular ``P`` is
    re-raised with ``n={n}: `` in front.  Only the model's right-hand side
    is called, so the sweep runs on a black-box model.
    """
    widest = generate_ensemble(fom, V, dt, scale)
    for n in range(1, widest.basis.n + 1):
        ensemble = narrow(widest, n)
        try:
            result = infer(ensemble)
        except SingularDataMatrixError as exc:
            raise SingularDataMatrixError(f"n={n}: {exc}") from exc
        yield ensemble, result


@dataclass(frozen=True)
class LeastSquaresResult:
    """Baseline trajectory-data inference with rank diagnostics.

    The data matrix is rank deficient when ``rank < operator.basis.n_f``.
    """

    operator: AggregatedOperator
    rank: int
    cond_P: float


def standard_opinf(trajectory: SnapshotMatrix, basis: MonomialBasis) -> LeastSquaresResult:
    """Least-squares operator fit to reduced trajectory data.

    States are the trajectory columns (already reduced), derivatives their
    forward difference quotients.  With a rank-deficient feature matrix the
    minimum-norm solution is returned.  The rank and the singular values
    come from the SVD inside :func:`numpy.linalg.lstsq`, whose
    ``rcond=None`` cutoff ``max(P.shape) * eps * sigma_1`` is that of
    :func:`_condition_number`; ``cond_P`` is infinite when the rank is
    below ``n_f``.
    """
    X = trajectory.states
    if X.shape[0] != basis.n:
        raise ValueError(f"trajectory dimension {X.shape[0]} does not match basis n={basis.n}")
    if X.shape[1] < 2:
        raise ValueError("need at least two snapshots")
    dXdt = np.diff(X, axis=1) / np.diff(trajectory.times)
    P = feature_matrix(basis, X[:, :-1], trajectory.inputs[:, :-1])

    O, _, rank, svals = np.linalg.lstsq(P.T, dXdt.T, rcond=None)
    # with fewer snapshots than features P has fewer singular values than
    # rows, so their ratio alone can look well conditioned
    cond = float("inf") if rank < basis.n_f else float(svals[0] / svals[-1])
    operator = AggregatedOperator(basis=basis, matrix=O.T)
    return LeastSquaresResult(operator, int(rank), cond)
