"""Error metrics, conditioning and structure-preservation checks."""

import numpy as np
import pytest

from exactopinf.diagnostics import (
    block_errors,
    build_report,
    diffusion_spectrum,
    energy_violation,
    quadratic_tensor,
    relative_operator_error,
    symmetry_violation,
)
from exactopinf.exact_opinf import _condition_number, _square_solver, standard_opinf
from exactopinf.fom import SnapshotMatrix
from exactopinf.galerkin import AggregatedOperator
from exactopinf.tensor_poly import MonomialBasis, compress_states, monomial_count


def _op(n, degrees, matrix, n_u=0):
    return AggregatedOperator(
        basis=MonomialBasis(n=n, degree_set=degrees, n_u=n_u), matrix=matrix
    )


class TestRelativeOperatorError:
    def test_equal_is_zero(self, rng):
        M = rng.standard_normal((3, 3))
        op = _op(3, (1,), M)
        assert relative_operator_error(op, op) == 0.0

    def test_double_is_one(self, rng):
        M = rng.standard_normal((3, 3))
        assert relative_operator_error(_op(3, (1,), 2 * M), _op(3, (1,), M)) == pytest.approx(1.0)

    def test_layout_mismatch(self, rng):
        a = _op(2, (1,), rng.standard_normal((2, 2)))
        b = _op(2, (2,), rng.standard_normal((2, 3)))
        with pytest.raises(ValueError):
            relative_operator_error(a, b)

    def test_block_errors_keys(self, rng):
        basis = MonomialBasis(n=2, degree_set=(1, 2), n_u=1)
        a = AggregatedOperator(basis=basis, matrix=rng.standard_normal((2, 6)))
        b = AggregatedOperator(basis=basis, matrix=a.matrix + 1.0)
        errs = block_errors(a, b)
        assert set(errs) == {1, 2, "input"}
        np.testing.assert_allclose(errs[1], np.linalg.norm(np.ones((2, 2))))


def _square_cond(P):
    """The condition helper's ``cond_P`` (``infer``'s) for the square matrix ``P``."""
    return _condition_number(_square_solver(P))


def _baseline(P):
    """``standard_opinf`` on a linear trajectory whose feature matrix is ``P``."""
    n, K = P.shape
    states = np.hstack([P, np.zeros((n, 1))])
    traj = SnapshotMatrix(states=states, times=np.arange(K + 1.0), inputs=np.zeros((0, K + 1)))
    result = standard_opinf(traj, MonomialBasis(n=n, degree_set=(1,)))
    return result.rank, result.cond_P, result.rank < result.operator.basis.n_f


class TestConditionNumber:
    """The one rank cutoff, ``max(shape) * eps * sigma_1``, in ``infer``'s
    square ``cond_P`` and in the least-squares baseline's rank."""

    def test_identity(self):
        assert _square_cond(np.eye(4)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert _square_cond(np.diag([1.0, 1e-3])) == pytest.approx(1e3)

    def test_singular_is_inf(self):
        assert _baseline(np.ones((2, 2)))[1] == np.inf

    def test_baseline_lstsq_rank_and_cond_p(self):
        assert _baseline(np.ones((2, 2))) == (1, np.inf, True)
        assert _baseline(np.diag([1.0, 1e-3])) == (2, pytest.approx(1e3), False)
        assert _baseline(np.zeros((2, 3))) == (0, np.inf, True)


class TestQuadraticTensor:
    def test_even_split(self):
        # n=2 quadratic block columns: (1,1), (1,2), (2,2)
        A2 = np.array([[1.0, 2.0, 3.0]])
        h = quadratic_tensor(A2, 2)
        np.testing.assert_allclose(h[0], [[1.0, 1.0], [1.0, 3.0]])

    def test_reproduces_action_on_squares(self, rng):
        n = 3
        A2 = rng.standard_normal((n, monomial_count(n, 2)))
        h = quadratic_tensor(A2, n)
        for _ in range(10):
            x = rng.standard_normal(n)
            np.testing.assert_allclose(
                np.einsum("ijk,j,k->i", h, x, x),
                A2 @ compress_states(x[:, None], 2)[:, 0],
                rtol=1e-12,
            )


class TestEnergyViolation:
    def test_zero_block(self):
        assert energy_violation(np.zeros((2, 3))) == 0.0

    def test_sqrt2_style_example(self):
        # single nonzero entry h_111 = 1 gives |3 h_111| = 3
        A2 = np.zeros((1, 1))
        A2[0, 0] = 1.0
        assert energy_violation(A2) == pytest.approx(3.0)

    def test_projected_skew_form_vanishes(self, rng):
        # oracle: quadratic forms built from skew matrices annihilate the state
        n = 4
        S = [rng.standard_normal((n, n)) for _ in range(n)]
        S = [0.5 * (M - M.T) for M in S]
        # row i of the quadratic map: x^T S_i x == 0; translate to compressed block
        cols = []
        from exactopinf.tensor_poly import enumerate_monomials

        for (j, k) in enumerate_monomials(n, 2):
            col = np.array(
                [
                    S[i][j - 1, k - 1] + S[i][k - 1, j - 1]
                    if j != k
                    else S[i][j - 1, j - 1]
                    for i in range(n)
                ]
            )
            cols.append(col)
        A2 = np.stack(cols, axis=1)
        for _ in range(5):
            x = rng.standard_normal(n)
            assert abs(x @ (A2 @ compress_states(x[:, None], 2)[:, 0])) < 1e-12
        assert energy_violation(A2) < 1e-12

    def test_representation_invariance(self, rng):
        # the violation only depends on the bilinear form, not on how the
        # off-diagonal mass is distributed in the stored compressed block
        n = 3
        h = rng.standard_normal((n, n, n))
        h = h + h.transpose(0, 2, 1)  # symmetric in the last two slots
        from exactopinf.tensor_poly import enumerate_monomials

        def block_from(hh):
            cols = []
            for (j, k) in enumerate_monomials(n, 2):
                if j == k:
                    cols.append(hh[:, j - 1, j - 1])
                else:
                    cols.append(hh[:, j - 1, k - 1] + hh[:, k - 1, j - 1])
            return np.stack(cols, axis=1)

        A2 = block_from(h)
        # alternative representation: redistribute asymmetric parts
        skew = rng.standard_normal((n, n, n))
        skew = skew - skew.transpose(0, 2, 1)  # cancels on the diagonal action
        A2_alt = block_from(h + skew)
        np.testing.assert_allclose(A2, A2_alt, rtol=1e-12)
        assert energy_violation(A2) == pytest.approx(energy_violation(A2_alt))


class TestSymmetryViolation:
    def test_symmetric_is_zero(self, rng):
        M = rng.standard_normal((4, 4))
        assert symmetry_violation(M + M.T) == 0.0

    def test_nilpotent_example(self):
        M = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert symmetry_violation(M) == pytest.approx(np.sqrt(2.0))

    def test_requires_square(self):
        with pytest.raises(ValueError):
            symmetry_violation(np.zeros((2, 3)))


class TestDiffusionSpectrum:
    def test_negated_identity(self):
        np.testing.assert_allclose(diffusion_spectrum(-np.eye(3)), np.ones(3))

    def test_uses_symmetric_part(self, rng):
        M = rng.standard_normal((4, 4))
        np.testing.assert_allclose(
            diffusion_spectrum(M), np.linalg.eigvalsh(-0.5 * (M + M.T)), rtol=1e-12
        )


class TestBuildReport:
    def test_report_fields(self, rng):
        basis = MonomialBasis(n=2, degree_set=(1, 2))
        ref = AggregatedOperator(basis=basis, matrix=rng.standard_normal((2, 5)))
        rep = build_report(ref, ref, 12.5, 5)
        assert rep["relative_operator_error"] == 0.0
        assert rep["cond_P"] == 12.5
        assert rep["ensemble_size"] == 5
        assert rep["symmetry_violation"] is not None
        assert rep["energy_violation"] is not None
        assert len(rep["diffusion_spectrum"]) == 2

    def test_metrics_by_degree_set(self, rng):
        for degrees, names in [
            ((1, 2), {"quadratic_block_fraction", "energy_violation", "symmetry_violation",
                      "diffusion_spectrum", "diffusion_spectrum_min"}),
            ((3, 8), set()),
        ]:
            basis = MonomialBasis(n=2, degree_set=degrees)
            op = AggregatedOperator(basis=basis, matrix=rng.standard_normal((2, basis.n_f)))
            rep = build_report(op, op, 1.0, basis.n_f)
            assert set(rep) == {
                "n", "cond_P", "ensemble_size", "relative_operator_error", "block_errors"
            } | names
            if degrees == (1, 2):
                assert rep["diffusion_spectrum_min"] == rep["diffusion_spectrum"][0]
                assert rep["quadratic_block_fraction"] == pytest.approx(
                    np.linalg.norm(op.degree_block(2)) / np.linalg.norm(op.matrix)
                )

    def test_vanishing_quadratic_block_scaling(self):
        # numerically-zero quadratic block: scaled violation must stay tiny,
        # not default to the degenerate 0/0 value 3
        basis = MonomialBasis(n=1, degree_set=(1, 2))
        M = np.array([[10.0, 1e-16]])
        op = AggregatedOperator(basis=basis, matrix=M)
        rep = build_report(op, op, 1.0, 2)
        assert rep["energy_violation"] < 1e-12
