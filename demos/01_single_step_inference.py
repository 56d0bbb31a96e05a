"""Walkthrough: recovering a reduced operator from one-step data.

Builds a small random polynomial system, projects it onto a random
orthonormal basis intrusively, then recovers the very same reduced
operator without touching the system's internals: only n_f single
explicit-Euler steps started at carefully chosen reduced states.

Run:  python3 demos/01_single_step_inference.py
"""

import numpy as np

from exactopinf import (
    MonomialBasis,
    exact_opinf,
    from_dense_operators,
    intrusive_reduce,
    pair_tags,
    rank_ensuring_pairs,
    relative_operator_error,
)
from exactopinf.tensor_poly import monomial_count


def main():
    rng = np.random.default_rng(7)
    N, n = 12, 3
    degrees = (0, 1, 2)
    n_u = 1

    # a dense full-order model x' = c + A1 x + A2 x^(2) + B u
    matrices = {i: rng.standard_normal((N, monomial_count(N, i))) for i in degrees}
    B = rng.standard_normal((N, n_u))
    fom = from_dense_operators(matrices, B)

    V = np.linalg.qr(rng.standard_normal((N, n)))[0]

    # ground truth: project every operator block explicitly
    reference = intrusive_reduce(fom, V)
    print(f"reduced operator shape: {reference.matrix.shape} "
          f"(n = {n}, features = {reference.basis.n_f})")

    # the inference side only needs to step the model once per feature;
    # the start states follow from the basis width and the model alone:
    # column s of the pair arrays is the pair of feature s
    layout = MonomialBasis(n=n, degree_set=fom.degree_set, n_u=fom.n_u)
    X, U = rank_ensuring_pairs(layout)
    tags = pair_tags(layout)
    print(f"single-step runs needed: {X.shape[1]} (equals the feature count)")
    for s in range(5):
        print(f"  start state {X[:, s]}, input {U[:, s]}  <- {tags[s]}")
    print("  ...")

    dt = 1.0 / np.linalg.norm(reference.matrix, 2)
    result = exact_opinf(fom, V, dt)
    err = relative_operator_error(result.operator, reference)
    print(f"data-matrix condition number: {result.cond_P:.3e}")
    print(f"relative operator error vs intrusive reduction: {err:.3e}")
    assert err < 1e-10


if __name__ == "__main__":
    main()
