"""Structure preservation on the periodic Burgers benchmark.

The full-order convection operator is written in a split skew-symmetric
form, so its quadratic form annihilates the state (energy preservation),
and diffusion is symmetric negative semi-definite.  Both properties
survive exact inference because the recovered operator equals the
intrusive one to machine precision.  The states are stepped at the
benchmark's amplitude ``state_scale``, so that the quadratic part of the
data is not swamped by the much larger linear part.

Run:  python3 demos/02_burgers_structure.py   (about 2 s)
"""

from exactopinf import (
    build_report,
    estimate_dt,
    intrusive_reduce,
    pod_basis,
    simulate,
    sweep,
)
from exactopinf.benchmarks import BURGERS, build_burgers


def main():
    spec = BURGERS
    fom, _, x0 = build_burgers(spec)
    print(f"simulating {spec.K_pod} steps of the N = {spec.N} model ...")
    snaps = simulate(fom, x0, None, spec.dt_pod, spec.K_pod)
    pod = pod_basis(snaps, 6)
    dt = estimate_dt(snaps, pod, spec.degree_set, spec.n_u)
    print(f"estimated single-step size: {dt:.4f}")

    print(f"{'n':>3} {'operator err':>14} {'energy':>10} {'symmetry':>10} {'min eig':>10}")
    for ensemble, result in sweep(fom, pod.matrix(6), dt, spec.state_scale):
        ref = intrusive_reduce(fom, pod.matrix(ensemble.basis.n))
        rep = build_report(result.operator, ref, result.cond_P, ensemble.size)
        print(
            f"{rep['n']:>3} {rep['relative_operator_error']:>14.3e} "
            f"{rep['energy_violation']:>10.2e} {rep['symmetry_violation']:>10.2e} "
            f"{rep['diffusion_spectrum_min']:>10.2e}"
        )


if __name__ == "__main__":
    main()
