"""Figures of merit: operator errors and structure checks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .galerkin import AggregatedOperator
from .tensor_poly import enumerate_monomials


def relative_operator_error(inferred: AggregatedOperator, reference: AggregatedOperator) -> float:
    """Frobenius-norm error of ``inferred`` relative to ``reference``."""
    if inferred.basis != reference.basis:
        raise ValueError("operators use different feature layouts")
    ref_norm = np.linalg.norm(reference.matrix)
    if ref_norm == 0:
        raise ValueError("reference operator is zero; relative error undefined")
    return float(np.linalg.norm(inferred.matrix - reference.matrix) / ref_norm)


def block_errors(inferred: AggregatedOperator, reference: AggregatedOperator) -> dict:
    """Per-degree (and input) Frobenius errors, absolute."""
    if inferred.basis != reference.basis:
        raise ValueError("operators use different feature layouts")
    errors = {}
    for i in inferred.basis.degree_set:
        errors[i] = float(np.linalg.norm(inferred.degree_block(i) - reference.degree_block(i)))
    if inferred.basis.n_u:
        errors["input"] = float(np.linalg.norm(inferred.input_block - reference.input_block))
    return errors


def quadratic_tensor(A2: np.ndarray, n: int) -> np.ndarray:
    """Symmetric (n, n, n) coefficient tensor of a compressed quadratic block.

    The column for the monomial ``x_j x_k`` is split evenly between the
    (j, k) and (k, j) slots, so the tensor is symmetric in its last two
    indices and reproduces the block's action on compressed squares.
    """
    A2 = np.asarray(A2, dtype=float)
    mons = enumerate_monomials(n, 2)
    if A2.shape[1] != len(mons):
        raise ValueError(f"quadratic block has {A2.shape[1]} columns, expected {len(mons)}")
    h = np.zeros((A2.shape[0], n, n))
    for col, (j, k) in enumerate(mons):
        if j == k:
            h[:, j - 1, k - 1] = A2[:, col]
        else:
            h[:, j - 1, k - 1] = 0.5 * A2[:, col]
            h[:, k - 1, j - 1] = 0.5 * A2[:, col]
    return h


def energy_violation(A2: np.ndarray) -> float:
    """Total violation of the energy-preserving triple-symmetry condition.

    Builds the evenly-split symmetric coefficient tensor ``h`` of the
    quadratic block, whose row count is the state dimension, and sums
    ``|h_ijk + h_jik + h_kji|`` over all index triples.  The quadratic form
    annihilates the state for every input exactly when this sum vanishes.
    """
    h = quadratic_tensor(A2, np.shape(A2)[0])
    total = h + h.transpose(1, 0, 2) + h.transpose(2, 1, 0)
    return float(np.sum(np.abs(total)))


def scaled_energy_violation(operator: AggregatedOperator) -> float:
    """:func:`energy_violation` of the quadratic block over the block's norm.

    A numerically vanishing quadratic block (at most 1e-12 of the whole
    operator) would make the block-relative scaling 0/0, so it is measured
    against the whole-operator norm instead.
    """
    A2 = operator.degree_block(2)
    norm = np.linalg.norm(A2)
    total_norm = np.linalg.norm(operator.matrix)
    if norm <= 1e-12 * total_norm:
        norm = total_norm
    return float(energy_violation(A2) / norm) if norm > 0 else 0.0


def symmetry_violation(A1: np.ndarray) -> float:
    """Relative Frobenius asymmetry ``|A - A^T| / |A|`` of a square block."""
    A1 = np.asarray(A1, dtype=float)
    if A1.shape[0] != A1.shape[1]:
        raise ValueError("block must be square")
    norm = np.linalg.norm(A1)
    if norm == 0:
        return 0.0
    return float(np.linalg.norm(A1 - A1.T) / norm)


def diffusion_spectrum(A1: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the negated symmetric part ``-(A + A^T)/2``."""
    A1 = np.asarray(A1, dtype=float)
    if A1.shape[0] != A1.shape[1]:
        raise ValueError("block must be square")
    return np.linalg.eigvalsh(-0.5 * (A1 + A1.T))


@dataclass(frozen=True)
class DiagnosticsReport:
    """Collected metrics of one inferred operator against its reference."""

    n: int
    relative_operator_error: float
    cond_P: float
    ensemble_size: int
    block_errors: dict
    energy_violation: float | None = None
    symmetry_violation: float | None = None
    diffusion_eigenvalues: np.ndarray | None = None
    quadratic_block_fraction: float | None = None

    def metrics(self) -> dict:
        """The scalar metrics this report has, by name (those a spec may bound)."""
        spectrum = self.diffusion_eigenvalues
        found = {
            "relative_operator_error": self.relative_operator_error,
            "quadratic_block_fraction": self.quadratic_block_fraction,
            "energy_violation": self.energy_violation,
            "symmetry_violation": self.symmetry_violation,
            "diffusion_spectrum_min": None if spectrum is None else float(spectrum.min()),
        }
        return {name: value for name, value in found.items() if value is not None}


def build_report(
    inferred: AggregatedOperator,
    reference: AggregatedOperator,
    cond_P: float,
    ensemble_size: int,
) -> DiagnosticsReport:
    """Assemble the standard report; structure metrics where applicable."""
    basis = inferred.basis
    energy = None
    symmetry = None
    spectrum = None
    fraction = None
    if 2 in basis.degree_set:
        energy = scaled_energy_violation(inferred)
        total = np.linalg.norm(inferred.matrix)
        fraction = float(np.linalg.norm(inferred.degree_block(2)) / total) if total else 0.0
    if 1 in basis.degree_set:
        symmetry = symmetry_violation(inferred.degree_block(1))
        spectrum = diffusion_spectrum(inferred.degree_block(1))
    return DiagnosticsReport(
        n=basis.n,
        relative_operator_error=relative_operator_error(inferred, reference),
        cond_P=cond_P,
        ensemble_size=ensemble_size,
        block_errors=block_errors(inferred, reference),
        energy_violation=energy,
        symmetry_violation=symmetry,
        diffusion_eigenvalues=spectrum,
        quadratic_block_fraction=fraction,
    )
