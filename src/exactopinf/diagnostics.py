"""Figures of merit: operator errors and structure checks, every norm a fixed-order ``norm``."""

from __future__ import annotations

import numpy as np

from .galerkin import AggregatedOperator
from .tensor_poly import monomial_index_array, norm


def relative_operator_error(inferred: AggregatedOperator, reference: AggregatedOperator) -> float:
    """Frobenius-norm error of ``inferred`` relative to ``reference``."""
    if inferred.basis != reference.basis:
        raise ValueError("operators use different feature layouts")
    ref_norm = norm(reference.matrix)
    if ref_norm == 0:
        raise ValueError("reference operator is zero; relative error undefined")
    return norm(inferred.matrix - reference.matrix) / ref_norm


def block_errors(inferred: AggregatedOperator, reference: AggregatedOperator) -> dict:
    """Per-degree (and input) Frobenius errors, absolute."""
    if inferred.basis != reference.basis:
        raise ValueError("operators use different feature layouts")
    errors = {}
    for i in inferred.basis.degree_set:
        errors[i] = norm(inferred.degree_block(i) - reference.degree_block(i))
    if inferred.basis.n_u:
        errors["input"] = norm(inferred.input_block - reference.input_block)
    return errors


def quadratic_tensor(A2: np.ndarray, n: int) -> np.ndarray:
    """Symmetric (n, n, n) coefficient tensor of a compressed quadratic block.

    The column for the monomial ``x_j x_k`` is split evenly between the
    (j, k) and (k, j) slots, so the tensor is symmetric in its last two
    indices and reproduces the block's action on compressed squares.
    """
    A2 = np.asarray(A2, dtype=float)
    j, k = monomial_index_array(n, 2).T
    if A2.shape[1] != len(j):
        raise ValueError(f"quadratic block has {A2.shape[1]} columns, expected {len(j)}")
    h = np.zeros((A2.shape[0], n, n))
    h[:, j, k] = np.where(j == k, 1.0, 0.5) * A2
    h[:, k, j] = h[:, j, k]
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


def symmetry_violation(A1: np.ndarray) -> float:
    """Relative Frobenius asymmetry ``|A - A^T| / |A|`` of a square block."""
    A1 = np.asarray(A1, dtype=float)
    if A1.shape[0] != A1.shape[1]:
        raise ValueError("block must be square")
    scale = norm(A1)
    if scale == 0:
        return 0.0
    return norm(A1 - A1.T) / scale


def diffusion_spectrum(A1: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the negated symmetric part ``-(A + A^T)/2``."""
    A1 = np.asarray(A1, dtype=float)
    if A1.shape[0] != A1.shape[1]:
        raise ValueError("block must be square")
    return np.linalg.eigvalsh(-0.5 * (A1 + A1.T))


def structure_metrics(operator: AggregatedOperator) -> dict:
    """The structure checks the operator's layout admits, by name.

    A linear block gives its :func:`symmetry_violation` and its
    :func:`diffusion_spectrum` (a list) with that spectrum's minimum.  A
    quadratic block gives its :func:`energy_violation` over the block's norm
    and the block's share of the operator's norm.  A numerically vanishing
    quadratic block (at most 1e-12 of the whole operator) would make the
    block-relative scaling 0/0, so its violation is measured against the
    whole-operator norm instead.
    """
    metrics = {}
    degrees = operator.basis.degree_set
    if 1 in degrees:
        A1 = operator.degree_block(1)
        spectrum = diffusion_spectrum(A1)
        metrics["symmetry_violation"] = symmetry_violation(A1)
        metrics["diffusion_spectrum"] = spectrum.tolist()
        metrics["diffusion_spectrum_min"] = float(spectrum.min())
    if 2 in degrees:
        A2 = operator.degree_block(2)
        block = norm(A2)
        total = norm(operator.matrix)
        scale = total if block <= 1e-12 * total else block
        metrics["energy_violation"] = float(energy_violation(A2) / scale) if scale > 0 else 0.0
        metrics["quadratic_block_fraction"] = block / total if total else 0.0
    return metrics


def build_report(
    inferred: AggregatedOperator,
    reference: AggregatedOperator,
    cond_P: float,
    ensemble_size: int,
) -> dict:
    """The metrics of one reduced dimension, by name: accuracy against
    ``reference``, the data matrix's condition and size, and
    :func:`structure_metrics`."""
    return {
        "n": inferred.basis.n,
        "cond_P": cond_P,
        "ensemble_size": ensemble_size,
        "relative_operator_error": relative_operator_error(inferred, reference),
        "block_errors": block_errors(inferred, reference),
        **structure_metrics(inferred),
    }
