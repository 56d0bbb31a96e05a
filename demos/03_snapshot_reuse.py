"""Growing the reduced dimension without discarding old snapshots.

The one-step starting states for dimension n are a subset of those for
n + 1 (padded with a zero), so ``sweep`` infers the operators of a whole
range of dimensions from one basis: each dimension steps only the pairs it
adds, and the sweep takes as many full-order steps as the largest ensemble
has pairs.  The demo counts the full-order right-hand-side calls.

Run:  python3 demos/03_snapshot_reuse.py
"""

import dataclasses

import numpy as np

from exactopinf import (
    from_dense_operators,
    intrusive_reduce,
    relative_operator_error,
    sweep,
)
from exactopinf.tensor_poly import monomial_count


def main():
    rng = np.random.default_rng(21)
    N = 16
    degrees = (1, 2)
    model = from_dense_operators(
        {i: rng.standard_normal((N, monomial_count(N, i))) for i in degrees}
    )
    calls = []

    def counted_rhs(x, u):
        calls.append(1)
        return model.rhs(x, u)

    fom = dataclasses.replace(model, rhs=counted_rhs)
    V = np.linalg.qr(rng.standard_normal((N, 6)))[0]
    dt = 0.01

    total_runs = 0
    print(f"{'n':>3} {'ensemble':>9} {'new runs':>9} {'operator err':>14}")
    for ensemble, result in sweep(fom, V, dt):
        n = ensemble.basis.n
        new_runs = len(calls) - total_runs
        total_runs = len(calls)
        err = relative_operator_error(result.operator, intrusive_reduce(model, V[:, :n]))
        print(f"{n:>3} {ensemble.size:>9} {new_runs:>9} {err:>14.3e}")
    print(f"total full-order runs: {total_runs} "
          f"(equals the final feature count {ensemble.size})")


if __name__ == "__main__":
    main()
