"""Structure preservation on the periodic Burgers benchmark.

The full-order convection operator is written in a split skew-symmetric
form, so its quadratic form annihilates the state (energy preservation),
and diffusion is symmetric negative semi-definite.  Both properties
survive exact inference because the recovered operator equals the
intrusive one to machine precision.  The states are stepped at the
benchmark's amplitude ``state_scale``, so that the quadratic part of the
data is not swamped by the much larger linear part.

Run:  python3 demos/02_burgers_structure.py   (about half a minute)
"""

import numpy as np

from exactopinf import (
    estimate_dt,
    exact_opinf,
    intrusive_reduce,
    pod_basis,
    relative_operator_error,
    simulate,
)
from exactopinf.benchmarks import BURGERS, build_burgers
from exactopinf.diagnostics import (
    diffusion_spectrum,
    energy_violation,
    symmetry_violation,
)


def main():
    spec = BURGERS
    fom, _, x0 = build_burgers(spec)
    print(f"simulating {spec.K_pod} steps of the N = {spec.N} model ...")
    snaps = simulate(fom, x0, None, spec.dt_pod, spec.K_pod)
    pod = pod_basis(snaps, 6)
    dt = estimate_dt(snaps, pod, spec.degree_set, spec.n_u)
    print(f"estimated single-step size: {dt:.4f}")

    print(f"{'n':>3} {'operator err':>14} {'energy':>10} {'symmetry':>10} {'min eig':>10}")
    for n in range(1, 7):
        V = pod.matrix(n)
        ref = intrusive_reduce(fom, V)
        res = exact_opinf(fom, V, dt, scale=spec.state_scale)
        err = relative_operator_error(res.operator, ref)
        A1 = res.operator.degree_block(1)
        A2 = res.operator.degree_block(2)
        # scale by the quadratic block norm, falling back to the whole
        # operator when that block is numerically zero (n = 1)
        scale = np.linalg.norm(A2)
        total = np.linalg.norm(res.operator.matrix)
        if scale <= 1e-12 * total:
            scale = total
        energy = energy_violation(A2) / scale
        print(
            f"{n:>3} {err:>14.3e} {energy:>10.2e} "
            f"{symmetry_violation(A1):>10.2e} {diffusion_spectrum(A1).min():>10.2e}"
        )


if __name__ == "__main__":
    main()
