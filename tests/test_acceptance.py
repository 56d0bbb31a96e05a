"""End-to-end acceptance gate.

Each criterion prints one PASS/FAIL line.

* Burgers (criterion 2) is stepped at the amplitude ``spec.state_scale``
  (8), not at unit states.  At unit amplitude the linear term
  (||A_1|| ~ 1.4e4) swamps the quadratic term (||A_2|| ~ 18) in the
  single-step data, and the rounding of the right-hand side, about
  eps * ||A_1||, lands in the quadratic block: the scaled energy violation
  then reaches 2.3e-11.  That is not a precision floor: the step size
  leaves it unchanged from dt = 1e-3 to 1e3, while stepping the same
  states scaled by c lowers it (c = 10: 2.0e-12, c = 1000: 2.8e-14).
  Scaling the states by c turns the data matrix into diag(c^i) P, so it
  stays invertible; a power of two keeps states and features exact.
  Chafee-Infante and the ice sheet stay at unit amplitude: on the ice
  sheet a larger amplitude lets degree 8 swamp degree 3 instead.
* The step-size estimates for the reaction-diffusion and ice systems
  (criteria 5a and 5c) miss the paper's targets, and the cause is not
  settled here: the paper's formula for the estimate and its full-order
  setups are not in this repository, and ``estimate_dt`` matches its
  docstring and closed-form unit tests (5b, Burgers, is at ratio 1.03).
  For 5a (ratio 3.08; 6.2 before the first node took the cell-centred
  Dirichlet ghost at the left boundary) the estimate is set by the first
  quotient, the zero state driven by the input alone; the target needs a
  rate 3.08 times larger than any quotient of the trajectory.  Leaving the
  input out of the feature norm gives ratio 0.79 (0.42 before the ghost).
  For 5c (ratio 2.6e-3) the target needs a rate 380 times below the
  largest quotient and 50 times below the median one, so the model's time
  scale differs from the paper's by orders of magnitude.  Both targets and windows stay as they are until the paper's
  setup is available or a fault is located in the program.
"""

import itertools
import math

import numpy as np
import pytest

from exactopinf.cli import main
from exactopinf.diagnostics import (
    build_report,
    diffusion_spectrum,
    relative_operator_error,
)
from exactopinf.exact_opinf import (
    estimate_dt,
    exact_opinf,
    generate_ensemble,
    infer,
    rank_ensuring_pairs,
    standard_opinf,
    sweep,
)
from exactopinf.fom import (
    SnapshotMatrix,
    from_dense_operators,
    simulate,
)
from exactopinf.galerkin import intrusive_reduce
from exactopinf.gappy_interp import GappyProblem, gappy_interpolate, interpolation_matrix
from exactopinf.serialize import read_matrix
from exactopinf.tensor_poly import MonomialBasis, feature_matrix, monomial_count


def _verdict(label, ok, detail):
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    return ok


def _sweep(data):
    """Inferred and intrusive operators for every n of the sweep."""
    spec = data["spec"]
    fom = data["fom"]
    pod = data["pod"]
    dt = estimate_dt(data["snaps"], pod, spec.degree_set, spec.n_u)
    results = {}
    for ensemble, res in sweep(fom, pod.matrix(spec.n_max), dt, spec.state_scale):
        n = ensemble.basis.n
        results[n] = {
            "inferred": res.operator,
            "intrusive": intrusive_reduce(fom, pod.matrix(n)),
            "cond_P": res.cond_P,
            "size": ensemble.size,
        }
    return results


@pytest.fixture(scope="module")
def chafee_sweep(chafee_data):
    return _sweep(chafee_data)


@pytest.fixture(scope="module")
def burgers_sweep(burgers_data):
    return _sweep(burgers_data)


@pytest.fixture(scope="module")
def ice_sweep(ice_data):
    return _sweep(ice_data)


def test_criterion_1_chafee_exact_reconstruction(chafee_sweep):
    worst_err = 0.0
    worst_quad = 0.0
    for n, r in chafee_sweep.items():
        worst_err = max(worst_err, relative_operator_error(r["inferred"], r["intrusive"]))
        quad = np.linalg.norm(r["inferred"].degree_block(2)) / np.linalg.norm(
            r["inferred"].matrix
        )
        worst_quad = max(worst_quad, quad)
    ok = worst_err < 1e-9 and worst_quad < 1e-9
    assert _verdict(
        "1 reaction-diffusion exact reconstruction",
        ok,
        f"max operator error {worst_err:.3e} < 1e-9, "
        f"max quadratic fraction {worst_quad:.3e} < 1e-9, n = 1..14",
    )


def test_criterion_2_burgers_exact_and_structured(burgers_sweep):
    worst_err = 0.0
    worst_energy = 0.0
    worst_sym = 0.0
    worst_eig = np.inf
    worst_spec_diff = 0.0
    for n, r in burgers_sweep.items():
        worst_err = max(worst_err, relative_operator_error(r["inferred"], r["intrusive"]))
        rep = build_report(r["inferred"], r["intrusive"], r["cond_P"], r["size"])
        worst_energy = max(worst_energy, rep["energy_violation"])
        worst_sym = max(worst_sym, rep["symmetry_violation"])
        eig_inf = diffusion_spectrum(r["inferred"].degree_block(1))
        eig_int = diffusion_spectrum(r["intrusive"].degree_block(1))
        worst_eig = min(worst_eig, eig_inf.min())
        worst_spec_diff = max(worst_spec_diff, np.max(np.abs(eig_inf - eig_int)))
    checks = [
        ("max error", worst_err, "< 1e-9", worst_err < 1e-9),
        ("energy", worst_energy, "< 1e-11", worst_energy < 1e-11),
        ("symmetry", worst_sym, "< 1e-12", worst_sym < 1e-12),
        ("min eigenvalue", worst_eig, ">= -1e-10", worst_eig >= -1e-10),
        ("spectrum mismatch", worst_spec_diff, "< 1e-10", worst_spec_diff < 1e-10),
    ]
    ok = all(passed for _, _, _, passed in checks)
    detail = ", ".join(
        f"{label} {value:.3e} {bound} [{'ok' if passed else 'FAIL'}]"
        for label, value, bound, passed in checks
    )
    assert _verdict(
        "2 Burgers exact reconstruction with preserved structure",
        ok,
        detail + ", n = 1..10",
    )


def test_criterion_3_ice_exact_reconstruction(ice_sweep):
    worst_err = 0.0
    sizes_ok = True
    for n, r in ice_sweep.items():
        worst_err = max(worst_err, relative_operator_error(r["inferred"], r["intrusive"]))
        expected = math.comb(n + 2, 3) + math.comb(n + 7, 8)
        sizes_ok = sizes_ok and r["size"] == expected
    ok = worst_err < 1e-6 and sizes_ok
    assert _verdict(
        "3 ice-sheet exact reconstruction",
        ok,
        f"max operator error {worst_err:.3e} < 1e-6, "
        f"ensemble sizes match C(n+2,3)+C(n+7,8) for n = 1..7: {sizes_ok}",
    )


def test_criterion_4_golden_snapshot_counts():
    ci = rank_ensuring_pairs(MonomialBasis(n=14, degree_set=(1, 2, 3), n_u=1))[0].shape[1]
    ice = rank_ensuring_pairs(MonomialBasis(n=7, degree_set=(3, 8), n_u=0))[0].shape[1]
    ok = ci == 680 and ice == 3087
    assert _verdict(
        "4 golden snapshot counts",
        ok,
        f"reaction-diffusion n=14 gives {ci} (want 680), ice n=7 gives {ice} (want 3087)",
    )


def test_criterion_5a_step_size_chafee(chafee_data):
    spec = chafee_data["spec"]
    dt = estimate_dt(chafee_data["snaps"], chafee_data["pod"], spec.degree_set, spec.n_u)
    target = 3.2733e-5
    ratio = dt / target
    ok = 0.5 <= ratio <= 2.0
    assert _verdict(
        "5a step-size estimate, reaction-diffusion",
        ok,
        f"estimate {dt:.4e} vs target {target:.4e}, ratio {ratio:.2f} "
        "(cause not settled; see module docstring)",
    )


def test_criterion_5b_step_size_burgers(burgers_data):
    spec = burgers_data["spec"]
    dt = estimate_dt(burgers_data["snaps"], burgers_data["pod"], spec.degree_set, spec.n_u)
    target = 0.1013
    ratio = dt / target
    ok = 0.5 <= ratio <= 2.0
    assert _verdict(
        "5b step-size estimate, Burgers",
        ok,
        f"estimate {dt:.4e} vs target {target:.4e}, ratio {ratio:.2f}",
    )


def test_criterion_5c_step_size_ice(ice_data):
    spec = ice_data["spec"]
    dt = estimate_dt(ice_data["snaps"], ice_data["pod"], spec.degree_set, spec.n_u)
    target = 1.4726e13
    ratio = dt / target
    ok = 0.1 <= ratio <= 10.0
    assert _verdict(
        "5c step-size estimate, ice sheet",
        ok,
        f"estimate {dt:.4e} vs target {target:.4e}, ratio {ratio:.2e} "
        "(cause not settled; see module docstring)",
    )


def test_criterion_6_full_rank_sweep():
    import time

    start = time.perf_counter()
    degrees_pool = (0, 1, 2, 3, 4)
    count = 0
    all_full_rank = True
    for n in range(1, 6):
        for r in range(1, len(degrees_pool) + 1):
            for I in itertools.combinations(degrees_pool, r):
                for n_u in (0, 1, 3):
                    basis = MonomialBasis(n=n, degree_set=I, n_u=n_u)
                    P = feature_matrix(basis, *rank_ensuring_pairs(basis))
                    svals = np.linalg.svd(P, compute_uv=False)
                    all_full_rank = all_full_rank and svals[-1] > 0
                    count += 1
    elapsed = time.perf_counter() - start
    ok = all_full_rank and count == 465 and elapsed < 30.0
    assert _verdict(
        "6 full-rank data matrices",
        ok,
        f"{count} cases (want 465) all invertible: {all_full_rank}, {elapsed:.1f} s < 30 s",
    )


def test_criterion_7_randomized_exactness_and_baseline_gap():
    rng = np.random.default_rng(411)
    exact_ok = True
    worst_exact = 0.0
    exact_better = 0
    cases = 50
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cases):
            N = int(rng.integers(4, 11))
            degrees = tuple(
                int(d)
                for d in sorted(
                    rng.choice(np.arange(0, 4), size=int(rng.integers(1, 4)), replace=False)
                )
            )
            n_u = int(rng.integers(0, 3))
            n = int(rng.integers(1, min(N, 5) + 1))
            matrices = {
                i: 0.3 * rng.standard_normal((N, monomial_count(N, i))) for i in degrees
            }
            B = 0.3 * rng.standard_normal((N, n_u)) if n_u else None
            fom = from_dense_operators(matrices, B)
            V = np.linalg.qr(rng.standard_normal((N, n)))[0]
            ref = intrusive_reduce(fom, V)
            norm = np.linalg.norm(ref.matrix, 2)
            dt = 1.0 / norm if norm > 0 else 1.0
            res = exact_opinf(fom, V, dt)
            err_exact = relative_operator_error(res.operator, ref)
            worst_exact = max(worst_exact, err_exact)
            exact_ok = exact_ok and err_exact < 1e-10

            signal = None
            if n_u:
                freq = rng.uniform(0.5, 2.0, size=n_u)
                signal = lambda t, f=freq: 0.1 * np.sin(f * t)
            try:
                snaps = simulate(fom, 0.1 * rng.standard_normal(N), signal, 1e-2, 200)
                reduced = SnapshotMatrix(
                    states=V.T @ snaps.states, times=snaps.times, inputs=snaps.inputs
                )
                ls = standard_opinf(reduced, MonomialBasis(n=n, degree_set=degrees, n_u=n_u))
                err_ls = relative_operator_error(ls.operator, ref)
            except Exception:
                exact_better += 1
                continue
            if err_ls > err_exact:
                exact_better += 1
    ok = exact_ok and exact_better >= 45
    assert _verdict(
        "7 randomized exactness with trajectory-fit baseline gap",
        ok,
        f"max single-step error {worst_exact:.3e} < 1e-10 over {cases} systems, "
        f"single-step beats trajectory fit in {exact_better}/{cases} (need >= 45)",
    )


def test_criterion_8_nested_ensemble_reuse(chafee_data, burgers_data, ice_data):
    worst = 0.0
    for data in (chafee_data, burgers_data, ice_data):
        spec = data["spec"]
        fom = data["fom"]
        pod = data["pod"]
        dt = estimate_dt(data["snaps"], pod, spec.degree_set, spec.n_u)
        V = pod.matrix(spec.n_max)
        for ensemble, result in sweep(fom, V, dt, spec.state_scale):
            fresh = generate_ensemble(fom, V[:, : ensemble.basis.n], dt, spec.state_scale)
            a = result.operator.matrix
            b = infer(fresh).operator.matrix
            worst = max(worst, float(np.linalg.norm(a - b) / np.linalg.norm(b)))
    ok = worst < 1e-12
    assert _verdict(
        "8 nested snapshot reuse",
        ok,
        f"max relative Frobenius deviation between grown and fresh inference "
        f"{worst:.3e} < 1e-12",
    )


def test_criterion_9_gapped_interpolation():
    degrees_pool = (0, 1, 2, 3, 4, 5)
    unisolvent = True
    for n in range(1, 5):
        for r in range(1, len(degrees_pool) + 1):
            for I in itertools.combinations(degrees_pool, r):
                M = interpolation_matrix(n, I)
                svals = np.linalg.svd(M, compute_uv=False)
                unisolvent = unisolvent and svals[-1] > 1e-10 * svals[0]

    rng = np.random.default_rng(902)
    worst_residual = 0.0
    for n, I in [(2, (1, 2)), (3, (0, 2)), (3, (1, 3)), (2, (0, 1, 3)), (4, (2, 4))]:
        basis = MonomialBasis(n=n, degree_set=I)
        values = rng.standard_normal(basis.n_f)
        problem = GappyProblem(n=n, degree_set=I, values=values)
        coeffs = gappy_interpolate(problem)
        for node, target in zip(problem.nodes, values):
            feats = feature_matrix(basis, node[:, None])[:, 0]
            worst_residual = max(worst_residual, abs(feats @ coeffs - target))

    composition_ok = True
    for _ in range(50):
        m = int(rng.integers(1, 5))
        degrees = np.sort(rng.choice(np.arange(0, 9), size=m, replace=False))
        nodes = np.sort(0.5 + 2.0 * rng.random(m))
        while m > 1 and np.min(np.diff(nodes)) < 0.1:
            nodes = np.sort(0.5 + 2.0 * rng.random(m))
        polys = []
        for k in range(m):
            M = np.array(
                [[x ** float(d) for d in degrees[: k + 1]] for x in nodes[: k + 1]]
            )
            target = np.zeros(k + 1)
            target[k] = 1.0
            full = np.zeros(m)
            full[: k + 1] = np.linalg.solve(M, target)
            polys.append(full)
        A = np.array(
            [
                [sum(c * x ** float(d) for c, d in zip(p, degrees)) for p in polys]
                for x in nodes
            ]
        )
        values = rng.standard_normal(m)
        import scipy.linalg

        comp = scipy.linalg.solve_triangular(A, values, lower=True, unit_diagonal=False)
        composed = sum(c * p for c, p in zip(comp, polys))
        direct = np.linalg.solve(
            np.array([[x ** float(d) for d in degrees] for x in nodes]), values
        )
        scale = np.max(np.abs(direct)) + 1.0
        composition_ok = composition_ok and np.max(np.abs(composed - direct)) / scale < 1e-6

    ok = unisolvent and worst_residual < 1e-10 and composition_ok
    assert _verdict(
        "9 gapped-degree interpolation",
        ok,
        f"unisolvence sweep: {unisolvent}, max interpolation residual "
        f"{worst_residual:.3e} < 1e-10, triangular composition (50 cases): {composition_ok}",
    )


def test_cli_writes_the_sweep_the_gates_check(burgers_sweep, tmp_path):
    # the experiment command runs the very sweep the criteria above check
    out = tmp_path / "burgers"
    assert main(["experiment", "burgers", "--out", str(out)]) == 0
    errors = read_matrix(out / "operator_errors.csv", "operator-errors")[:, 1]
    cond_P = read_matrix(out / "cond_P.csv", "cond-p")[:, 1]
    assert errors.tolist() == [
        relative_operator_error(r["inferred"], r["intrusive"]) for r in burgers_sweep.values()
    ]
    assert cond_P.tolist() == [r["cond_P"] for r in burgers_sweep.values()]


def test_regression_pins(chafee_sweep, ice_sweep):
    # condition numbers are reported and pinned against this implementation's
    # own recorded values, not external targets
    basis = MonomialBasis(n=2, degree_set=(1, 2), n_u=2)
    P = feature_matrix(basis, *rank_ensuring_pairs(basis))
    cond_small = np.linalg.cond(P)
    assert 5.0 < cond_small < 50.0

    assert 1e2 < chafee_sweep[14]["cond_P"] < 1e4
    assert 1e6 < ice_sweep[7]["cond_P"] < 1e9
