"""Growing the reduced dimension without discarding old snapshots.

The one-step starting states for dimension n are a subset of those for
n + 1 (padded with a zero), so an ensemble can be extended instead of
regenerated: only the new feature columns cost additional full-order
steps.

Run:  python3 demos/03_snapshot_reuse.py
"""

import numpy as np

from exactopinf import (
    extend_ensemble,
    generate_ensemble,
    infer,
    intrusive_reduce,
    relative_operator_error,
    from_dense_operators,
)
from exactopinf.tensor_poly import monomial_count


def main():
    rng = np.random.default_rng(21)
    N = 16
    degrees = (1, 2)
    fom = from_dense_operators(
        {i: rng.standard_normal((N, monomial_count(N, i))) for i in degrees}
    )
    V = np.linalg.qr(rng.standard_normal((N, 6)))[0]
    dt = 0.01

    ensemble = generate_ensemble(fom, V[:, :1], dt)
    total_runs = ensemble.size
    print(f"{'n':>3} {'ensemble':>9} {'new runs':>9} {'operator err':>14}")
    for n in range(1, 7):
        if n > 1:
            before = ensemble.size
            ensemble = extend_ensemble(ensemble, fom, V[:, :n])
            new_runs = ensemble.size - before
            total_runs += new_runs
        else:
            new_runs = ensemble.size
        err = relative_operator_error(
            infer(ensemble).operator, intrusive_reduce(fom, V[:, :n])
        )
        print(f"{n:>3} {ensemble.size:>9} {new_runs:>9} {err:>14.3e}")
    print(f"total full-order runs: {total_runs} "
          f"(equals the final feature count {ensemble.size})")


if __name__ == "__main__":
    main()
