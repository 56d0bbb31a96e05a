"""Command-line interface: experiment runner and file-level tool wrappers.

Subcommands
-----------
experiment   Run one bundled benchmark end to end and export CSV metrics.
infer        Recover a reduced operator from single-step data or a builtin
             benchmark, writing an operator CSV.
pod          Compute an orthonormal basis from a snapshot CSV.
diagnose     Structure and accuracy metrics of an operator CSV.

Exit codes: 0 success (all thresholds pass), 1 threshold failure (with a
machine-readable JSON failure list on stdout), 2 invalid input or settings
(a missing or unreadable input file, a file schema violation such as a
non-finite number or repeated snapshot times, a config file with an
unknown key, a key the benchmark does not use or an out-of-range value,
an unknown benchmark, a non-positive --dt, --n or --n-max, an --n-max
beyond the documented range without --force, an infer --basis or --dt
given with --ensemble, an infer --n beyond the basis or the ensemble's
width, a pod --n or experiment --n-max beyond the snapshot count, an
experiment trajectory too short or too flat to estimate a time step, a
trajectory or single step that leaves the finite range or whose Newton
iteration fails, a diagnose --reference of another feature layout or all
zero, or an output path that cannot be written),
3 rank deficiency / singular system.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from .benchmarks import SPECS, apply_overrides, build, parse_config
from .diagnostics import (
    block_errors,
    build_report,
    diffusion_spectrum,
    relative_operator_error,
    structure_metrics,
)
from .exact_opinf import (
    SingularDataMatrixError,
    estimate_dt,
    generate_ensemble,
    infer,
    narrow,
    standard_opinf,
    sweep,
)
from .fom import NewtonError, NonFiniteStateError, simulate
from .galerkin import intrusive_reduce
from .pod import RankDeficiencyError, pod_basis
from .serialize import (
    read_ensemble,
    read_matrix,
    read_operator,
    read_snapshots,
    write_basis,
    write_operator,
    write_table,
)
from .tensor_poly import MonomialBasis, ordered_product

EXIT_OK = 0
EXIT_THRESHOLD = 1
EXIT_SCHEMA = 2
EXIT_RANK = 3

# file, CSV kind and column of the per-n table of a structure metric,
# written when the benchmark's spec bounds that metric
STRUCTURE_TABLES = {
    "energy_violation": ("energy_violation.csv", "energy-violation", "energy_violation_scaled"),
    "symmetry_violation": ("symmetry_violation.csv", "symmetry-violation", "symmetry_violation"),
}

# diagnose's JSON name of each structure metric it reports
DIAGNOSE_KEYS = {
    "symmetry_violation": "symmetry_violation",
    "diffusion_spectrum": "diffusion_spectrum",
    "energy_violation": "energy_violation_scaled",
}


def _dumps(document, **kwargs) -> str:
    """``json.dumps`` as strict JSON: the tokens it writes for non-finite
    floats become the strings ``float`` reads back, as in the CSV tables."""
    words = {"Infinity": "inf", "-Infinity": "-inf", "NaN": "nan"}
    return json.dumps(json.loads(json.dumps(document), parse_constant=words.get), **kwargs)


def _positive(kind):
    """Argparse type: ``kind(text)``, rejected unless finite and positive."""

    def convert(text):
        value = kind(text)
        if not (math.isfinite(value) and value > 0):
            raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
        return value

    convert.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return convert


def _benchmark(text):
    """Argparse type: the ``SPECS`` key of a benchmark name (``-`` or ``_``)."""
    key = text.replace("-", "_")
    if key not in SPECS:
        raise argparse.ArgumentTypeError(f"unknown benchmark {text!r}")
    return key


def cmd_experiment(args) -> int:
    name = args.benchmark
    spec = SPECS[name]
    if args.config:
        spec = apply_overrides(spec, parse_config(args.config))
    n_max = args.n_max if args.n_max is not None else spec.n_max
    if n_max > spec.n_max and not args.force:
        raise ValueError(
            f"n_max {n_max} exceeds the documented range (max "
            f"{spec.n_max}); pass --force to run anyway"
        )
    out = Path(args.out if args.out else Path("results") / name)
    out.mkdir(parents=True, exist_ok=True)
    bounded = {t.metric for t in spec.thresholds}

    fom, signal, x0 = build(spec)
    snaps = simulate(fom, x0, signal, spec.dt_pod, spec.K_pod, scheme=spec.scheme)
    pod = pod_basis(snaps, n_max)
    dt_est = estimate_dt(snaps, pod, spec.degree_set, spec.n_u)
    if args.baseline:  # projected once: each width's rows are bitwise its own projection
        reduced = replace(snaps, states=ordered_product(pod.matrix(n_max), snaps.states))
    del snaps  # the N x (K+1) states
    dt_used = args.dt if args.dt is not None else dt_est
    write_table(
        out / "dt_estimate.csv",
        "dt-estimate",
        ["benchmark", "dt_estimate", "dt_used"],
        [[name, float(dt_est), float(dt_used)]],
    )

    reports = []
    spectra_rows = []
    baseline_rows = []
    for ensemble, result in sweep(fom, pod.matrix(n_max), dt_used, spec.state_scale):
        n = ensemble.basis.n
        ref = intrusive_reduce(fom, pod.matrix(n))
        reports.append(build_report(result.operator, ref, result.cond_P, ensemble.size))
        if "diffusion_spectrum_min" in bounded:
            intrusive_eigs = diffusion_spectrum(ref.degree_block(1))
            inferred_eigs = reports[-1]["diffusion_spectrum"]
            for k in range(n):
                spectra_rows.append(
                    [n, k + 1, float(intrusive_eigs[k]), float(inferred_eigs[k])]
                )
        if args.baseline:
            ls = standard_opinf(replace(reduced, states=reduced.states[:n]), ensemble.basis)
            baseline_rows.append([n, relative_operator_error(ls.operator, ref), ls.rank, ls.cond_P])

    degree_cols = [f"err_deg_{i}" for i in fom.degree_set]  # block_errors' order: sorted
    input_cols = ["err_input"] if spec.n_u else []
    write_table(
        out / "operator_errors.csv",
        "operator-errors",
        ["n", "relative_error"] + degree_cols + input_cols,
        [
            [rep["n"], rep["relative_operator_error"], *rep["block_errors"].values()]
            for rep in reports
        ],
    )
    write_table(
        out / "cond_P.csv",
        "cond-p",
        ["n", "cond_P", "ensemble_size"],
        [[rep["n"], rep["cond_P"], rep["ensemble_size"]] for rep in reports],
    )
    for metric, (fname, kind, column) in STRUCTURE_TABLES.items():
        if metric in bounded:
            rows = [[rep["n"], rep[metric]] for rep in reports]
            write_table(out / fname, kind, ["n", column], rows)
    if "diffusion_spectrum_min" in bounded:
        write_table(
            out / "spectra.csv", "spectra", ["n", "k", "intrusive", "inferred"], spectra_rows
        )
    if args.baseline:
        write_table(
            out / "baseline_errors.csv",
            "baseline-errors",
            ["n", "relative_error", "rank", "cond_P"],
            baseline_rows,
        )

    failures = _check_thresholds(spec, reports)
    if failures:
        print(_dumps({"benchmark": name, "failures": failures}, indent=2))
        return EXIT_THRESHOLD
    print(_dumps({"benchmark": name, "failures": [], "n_max": n_max, "out": str(out)}))
    return EXIT_OK


def _check_thresholds(spec, reports):
    """Failures of each report against the spec's bounds, then of its
    ensemble size against the feature count ``n_f``."""
    failures = []
    for rep in reports:
        checks = [
            (t.metric, rep[t.metric], t.bound, t.holds(rep[t.metric])) for t in spec.thresholds
        ]
        n_f = MonomialBasis(n=rep["n"], degree_set=spec.degree_set, n_u=spec.n_u).n_f
        size = rep["ensemble_size"]
        checks.append(("ensemble_size", size, n_f, size == n_f))
        failures += [
            {"metric": metric, "n": rep["n"], "value": value, "threshold": bound}
            for metric, value, bound, ok in checks
            if not ok
        ]
    return failures


def cmd_infer(args) -> int:
    if args.ensemble:
        ensemble = read_ensemble(args.ensemble)
    else:
        spec = SPECS[args.benchmark]
        fom, _, _ = build(spec)
        V = read_matrix(args.basis, "basis")
        if args.n is not None and args.n > V.shape[1]:
            raise ValueError(f"--n {args.n} exceeds the basis's {V.shape[1]} columns")
        ensemble = generate_ensemble(fom, V[:, : args.n], args.dt, spec.state_scale)
    if args.n is not None:
        ensemble = narrow(ensemble, args.n)
    result = infer(ensemble)
    write_operator(result.operator, args.out)
    print(_dumps({"out": str(args.out), "cond_P": result.cond_P, "residual": result.residual}))
    return EXIT_OK


def cmd_pod(args) -> int:
    basis = pod_basis(read_snapshots(args.snapshots), args.n)
    write_basis(basis, args.out_basis, args.out_singular_values)
    print(_dumps({"out_basis": str(args.out_basis), "n": args.n}))
    return EXIT_OK


def cmd_diagnose(args) -> int:
    op = read_operator(args.operator)
    reference = read_operator(args.reference) if args.reference else None
    report = {
        "n": op.basis.n,
        "degree_set": list(op.basis.degree_set),
        "n_u": op.basis.n_u,
    }
    structure = structure_metrics(op)
    report.update(
        {name: structure[key] for key, name in DIAGNOSE_KEYS.items() if key in structure}
    )
    if reference is not None:
        try:  # another layout, or a zero reference
            report["relative_operator_error"] = relative_operator_error(op, reference)
        except ValueError as exc:
            raise ValueError(f"{args.reference}: {exc}") from exc
        report["block_errors"] = {
            str(k): v for k, v in block_errors(op, reference).items()
        }
    text = _dumps(report, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exactopinf",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    exp = sub.add_parser("experiment", help="run a bundled benchmark and export CSV metrics")
    exp.add_argument(
        "benchmark",
        type=_benchmark,
        help=" | ".join(name.replace("_", "-") for name in SPECS),
    )
    exp.add_argument("--n-max", type=_positive(int), default=None, help="largest reduced dimension")
    exp.add_argument("--out", default=None, help="output directory (default results/<name>)")
    exp.add_argument("--dt", type=_positive(float), default=None, help="single-step size (default: estimated)")
    exp.add_argument("--config", default=None, help="key=value override file (N, dt, T, c1, c2)")
    exp.add_argument("--force", action="store_true", help="allow n beyond the documented range")
    exp.add_argument("--baseline", action="store_true", help="also fit the trajectory-data baseline")
    exp.set_defaults(func=cmd_experiment)

    inf = sub.add_parser("infer", help="recover a reduced operator, writing an operator CSV")
    src = inf.add_mutually_exclusive_group(required=True)
    src.add_argument("--ensemble", default=None, help="single-step data CSV (with JSON sidecar)")
    src.add_argument(
        "--benchmark", type=_benchmark, default=None, help="builtin system to step directly"
    )
    inf.add_argument("--basis", default=None, help="basis CSV (required with --benchmark)")
    inf.add_argument("--n", type=_positive(int), default=None, help="infer at the first n basis columns (default: all)")
    inf.add_argument("--dt", type=_positive(float), default=None, help="single-step size (required with --benchmark)")
    inf.add_argument("--out", required=True, help="operator CSV to write")
    inf.set_defaults(func=cmd_infer)

    pod = sub.add_parser("pod", help="orthonormal basis of a snapshot CSV")
    pod.add_argument("snapshots", help="snapshot CSV")
    pod.add_argument("--n", type=_positive(int), required=True, help="number of basis vectors")
    pod.add_argument("--out-basis", default="basis.csv")
    pod.add_argument("--out-singular-values", default="singular_values.csv")
    pod.set_defaults(func=cmd_pod)

    diag = sub.add_parser("diagnose", help="structure metrics of an operator CSV")
    diag.add_argument("operator", help="operator CSV (with JSON sidecar)")
    diag.add_argument("--reference", default=None, help="reference operator CSV for error metrics")
    diag.add_argument("--out", default=None, help="also write the JSON report here")
    diag.set_defaults(func=cmd_diagnose)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; the one place exceptions become exit codes."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "infer":
        if args.benchmark is not None and (args.basis is None or args.dt is None):
            parser.error("--benchmark requires --basis and --dt")
        for option in ("basis", "dt"):
            if args.ensemble is not None and getattr(args, option) is not None:
                parser.error(f"--{option} cannot be used with --ensemble")
    try:
        return args.func(args)
    except RankDeficiencyError as exc:  # a ValueError, so caught first
        print(_dumps({"error": "rank-deficiency", "numerical_rank": exc.numerical_rank}))
        return EXIT_RANK
    except SingularDataMatrixError as exc:
        print(_dumps({"error": "singular-data-matrix", "detail": str(exc)}))
        return EXIT_RANK
    except (OSError, ValueError, NonFiniteStateError, NewtonError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_SCHEMA


if __name__ == "__main__":
    sys.exit(main())
