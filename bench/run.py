"""End-to-end and per-layer benchmark of the exactopinf CLI.

usage: python3 bench/run.py --workload {ice-sweep,explicit-sweep,ci-oneshot,all}
                            [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; ``exactopinf`` is imported from
``src/``.  Each workload is one closed-loop client: its CLI commands run one
after another, each in a fresh process, and the loop repeats until
``--seconds`` have passed (at least one iteration).  Ensemble and BLAS
threads stay at the CLI's defaults and are recorded in the manifest.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
untraced and traced iterations alternate and the per-layer metrics of the
traced ones are printed, with the tracing overhead.  Every output is checked
outside the timed region.  The last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
EPS = 2.0**-52

# A run must end within three minutes: no iteration starts that would end
# after this many seconds, and a process still running then is killed.
DEADLINE_S = 170

# `exactopinf experiment` at its defaults: largest n, degree set, input
# count, the CLI's aggregate tolerance, and the CSV files beyond SWEEP_FILES.
SWEEPS = {
    "shallow-ice": (7, (3, 8), 0, 1e-6, ()),
    "chafee-infante": (14, (1, 2, 3), 1, 1e-9, ()),
    "burgers": (10, (1, 2), 0, 1e-9, ("energy_violation.csv", "symmetry_violation.csv", "spectra.csv")),
}
SWEEP_FILES = ("dt_estimate.csv", "operator_errors.csv", "cond_P.csv")

ONESHOT_N = 24
ONESHOT_TOL = 1e-9


class Failure(Exception):
    """A correctness check failed."""


def check(ok, message):
    if not ok:
        raise Failure(message)


def ensemble_size(n, degrees, n_u):
    return sum(math.comb(n + i - 1, i) for i in degrees) + n_u


def read_table(path):
    """Rows of a versioned CSV table as dicts of floats."""
    with open(path, newline="") as fh:
        check(fh.readline().startswith("# exactopinf-csv"), f"{path}: missing header line")
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def block_relative(block_abs, refs):
    """Relative error per block; a zero reference block uses the whole-operator norm.

    A block counts as zero when its norm is at rounding level of the whole
    operator: Chafee-Infante's quadratic block (exactly zero) and Burgers'
    quadratic block at n = 1 (5e-19 of it; zero by energy conservation).
    The 1e-12 cutoff of ``build_report`` would also treat the shallow-ice
    degree-3 block (3e-15 to 4e-7 of the operator norm) as zero and hide
    that the inferred block is wrong.
    """
    out = {}
    for key, err in block_abs.items():
        norm = refs["blocks"][key]
        out[key] = err / (norm if norm > EPS * refs["total"] else refs["total"])
    return out


# -- workloads -----------------------------------------------------------
class Sweep:
    """`exactopinf experiment` on fixed paper setups; the seed is unused."""

    def __init__(self, benchmarks, builders):
        self.benchmarks = benchmarks
        self.builders = builders

    def prepare(self, work, seed):
        pass

    def commands(self, out):
        return [(b, ["experiment", b, "--out", str(out / b)]) for b in self.benchmarks]

    def verify(self, out, results):
        """Check each command; returns per-command outcome records."""
        outcomes = []
        for (bench, _), res in zip(self.commands(out), results):
            n_max, degrees, n_u, tol, extra = SWEEPS[bench]
            outcome = {"threshold_failures": 0}
            try:
                check(res["code"] in (0, 1), f"{bench}: exit code {res['code']}")
                verdict = json.loads(res["stdout"])
                failures = verdict["failures"]
                check((res["code"] == 1) == bool(failures), f"{bench}: exit code disagrees with failure list")
                outcome["threshold_failures"] = len(failures)
                outcome["threshold_detail"] = sorted({f"{f['metric']}@n={f['n']}" for f in failures})
                d = out / bench
                for f in SWEEP_FILES + extra:
                    check((d / f).is_file(), f"{bench}: {f} missing")
                errors = read_table(d / "operator_errors.csv")
                cond = read_table(d / "cond_P.csv")
                check([int(r["n"]) for r in errors] == list(range(1, n_max + 1)), f"{bench}: n rows")
                check([int(r["n"]) for r in cond] == list(range(1, n_max + 1)), f"{bench}: cond_P rows")
                refs = {r["n"]: r for r in res["capture"]["references"]}
                check(sorted(refs) == list(range(1, n_max + 1)), f"{bench}: reference captures")
                worst_block = 0.0
                for row, crow in zip(errors, cond):
                    n = int(row["n"])
                    expected = ensemble_size(n, degrees, n_u)
                    check(int(crow["ensemble_size"]) == expected, f"{bench}: ensemble size at n={n}")
                    rel = row["relative_error"]
                    check(rel < tol, f"{bench}: relative error {rel:.3g} >= {tol:g} at n={n}")
                    block_abs = {str(i): row[f"err_deg_{i}"] for i in degrees}
                    if n_u:
                        block_abs["input"] = row["err_input"]
                    ref = refs[n]
                    total_abs = math.sqrt(sum(v * v for v in block_abs.values()))
                    check(
                        abs(total_abs / ref["total"] - rel) <= 1e-6 * rel + 1e-300,
                        f"{bench}: block errors disagree with the aggregate at n={n}",
                    )
                    worst_block = max(worst_block, *block_relative(block_abs, ref).values())
                outcome["rel_error"] = max(r["relative_error"] for r in errors)
                outcome["block_error"] = worst_block
            except (Failure, KeyError, ValueError, TypeError, OSError) as exc:
                outcome["error"] = f"{type(exc).__name__}: {exc}"
            outcomes.append(outcome)
        return outcomes


class OneShot:
    """Fresh Chafee–Infante inference at n = 24 from seeded files, then diagnose."""

    builders = ("build_chafee_infante",)

    def prepare(self, work, seed):
        """Write V.csv and REF.csv (untimed); DT from estimate_dt."""
        import numpy as np

        from exactopinf.benchmarks import CHAFEE_INFANTE as spec
        from exactopinf.benchmarks import build_chafee_infante
        from exactopinf.exact_opinf import estimate_dt
        from exactopinf.fom import simulate
        from exactopinf.galerkin import intrusive_reduce
        from exactopinf.pod import PodBasis, pod_basis
        from exactopinf.serialize import write_basis, write_operator
        from tracer import reference_norms

        model, signal, x0 = build_chafee_infante(spec)
        snaps = simulate(model, x0, signal, spec.dt_pod, spec.K_pod, scheme=spec.scheme)
        basis = pod_basis(snaps, ONESHOT_N)
        self.dt = float(estimate_dt(snaps, basis, spec.degree_set, spec.n_u))
        # a seeded rotation keeps the span (and P) and changes only the data
        q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((ONESHOT_N, ONESHOT_N)))
        V = basis.matrix(ONESHOT_N) @ (q * np.sign(np.diag(r)))
        self.basis_csv = work / "V.csv"
        self.ref_csv = work / "REF.csv"
        write_basis(PodBasis(V=V, singular_values=basis.singular_values), self.basis_csv, work / "SV.csv")
        self.ref = intrusive_reduce(model, V)
        write_operator(self.ref, self.ref_csv)
        self.ref_norms = reference_norms(self.ref)

    def commands(self, out):
        op = out / "OP.csv"
        return [
            (
                "infer",
                ["infer", "--benchmark", "chafee-infante", "--basis", str(self.basis_csv),
                 "--dt", repr(self.dt), "--n", str(ONESHOT_N), "--out", str(op)],
            ),
            ("diagnose", ["diagnose", str(op), "--reference", str(self.ref_csv)]),
        ]

    def verify(self, out, results):
        import numpy as np

        op = out / "OP.csv"
        infer_res, diag_res = results
        outcomes = [{"threshold_failures": 0}, {"threshold_failures": 0}]
        own = None
        try:
            check(infer_res["code"] == 0, f"infer: exit code {infer_res['code']}")
            check(op.is_file() and Path(str(op) + ".json").is_file(), "infer: OP.csv or its sidecar missing")
            sidecar = json.loads(Path(str(op) + ".json").read_text())
            check(
                (sidecar["n"], sidecar["degree_set"], sidecar["n_u"]) == (ONESHOT_N, [1, 2, 3], 1),
                "infer: sidecar layout",
            )
            with open(op, newline="") as fh:
                fh.readline()
                rows = list(csv.reader(fh))[1:]
            M = np.array(rows, dtype=float)
            check(M.shape == self.ref.matrix.shape, f"infer: operator shape {M.shape}")
            own = float(np.linalg.norm(M - self.ref.matrix) / np.linalg.norm(self.ref.matrix))
            check(own < ONESHOT_TOL, f"infer: relative error {own:.3g} >= {ONESHOT_TOL:g}")
        except (Failure, KeyError, ValueError, OSError) as exc:
            outcomes[0]["error"] = f"{type(exc).__name__}: {exc}"
        try:
            check(diag_res["code"] == 0, f"diagnose: exit code {diag_res['code']}")
            report = json.loads(diag_res["stdout"])
            rel = report["relative_operator_error"]
            check(rel < ONESHOT_TOL, f"diagnose: relative error {rel:.3g} >= {ONESHOT_TOL:g}")
            check(own is not None and abs(rel - own) <= 1e-6 * own + 1e-300, "diagnose: error disagrees with the benchmark's own")
            blocks = report["block_errors"]
            check(sorted(blocks) == sorted(self.ref_norms["blocks"]), f"diagnose: blocks {sorted(blocks)}")
            outcomes[1]["rel_error"] = rel
            outcomes[1]["block_error"] = max(block_relative(blocks, self.ref_norms).values())
        except (Failure, KeyError, ValueError, TypeError) as exc:
            outcomes[1]["error"] = f"{type(exc).__name__}: {exc}"
        return outcomes


WORKLOADS = {
    "ice-sweep": lambda: Sweep(("shallow-ice",), ("build_shallow_ice",)),
    "explicit-sweep": lambda: Sweep(("chafee-infante", "burgers"), ("build_chafee_infante", "build_burgers")),
    "ci-oneshot": OneShot,
}


# -- processes -----------------------------------------------------------
def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_process(argv, stdout_path, deadline):
    """Run to completion, killed at ``deadline``; returns (exit code, wall s, peak RSS MB)."""
    with open(stdout_path, "wb") as out, open(str(stdout_path) + ".err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(max(deadline - t0, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def measure_setup(builders, work, deadline, repeats=7):
    """Median wall time of a fresh process importing exactopinf and building the models."""
    code = "import exactopinf\nfrom exactopinf import benchmarks\n" + "".join(
        f"benchmarks.{b}()\n" for b in builders
    )
    times = []
    for k in range(repeats + 1):  # the first warms the file cache and is dropped
        rc, wall, _ = run_process([sys.executable, "-c", code], work / "setup.out", deadline)
        if rc != 0:
            raise RuntimeError("set-up failed: " + (work / "setup.out.err").read_text()[-2000:])
        if k:
            times.append(wall)
    return statistics.median(times)


def run_iteration(workload, work, index, traced, deadline):
    out = work / f"iter{index}"
    out.mkdir()
    results = []
    total = 0.0
    peak = 0.0
    for label, argv in workload.commands(out):
        capture = out / f"{label}.trace.json"
        cmd = [sys.executable, str(BENCH / "launch.py"), str(capture), "trace" if traced else "plain", *argv]
        code, wall, rss = run_process(cmd, out / f"{label}.stdout", deadline)
        total += wall
        peak = max(peak, rss)
        results.append(
            {
                "code": code,
                "wall": wall,
                "stdout": (out / f"{label}.stdout").read_text(),
                "stderr": (out / f"{label}.stdout.err").read_text(),
                "capture": json.loads(capture.read_text()) if capture.is_file() else {"references": [], "absent": [], "spans": [], "counts": {}},
            }
        )
    outcomes = workload.verify(out, results)
    for outcome, res in zip(outcomes, results):
        if "error" in outcome and res["stderr"].strip():
            outcome["error"] += " | stderr: " + res["stderr"].strip()[-500:]
    return {"wall": total, "rss": peak, "outcomes": outcomes, "results": results, "dir": out}


# -- environment ---------------------------------------------------------
def blas_threads():
    """Thread count of every OpenBLAS library loaded by numpy and scipy.linalg."""
    import ctypes

    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401

    found = {}
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return found
    libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower() and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def manifest(args):
    import numpy as np
    import scipy

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    env_threads = os.environ.get("EXACTOPINF_THREADS")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: deps.get(k, {}).get(f) for k in ("blas", "lapack") for f in ("name", "version", "openblas configuration")}
        if deps
        else {},
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "ensemble_threads": int(env_threads) if env_threads else os.cpu_count(),
        "ensemble_threads_source": "EXACTOPINF_THREADS" if env_threads else "CLI default (cpu count)",
        "blas_thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "git_commit": git_commit(),
        "machine": platform.machine(),
    }


# -- one workload ----------------------------------------------------------
def run_loop(workload, work, args, deadline):
    """Iterations until ``args.seconds`` have passed; untraced and traced alternate with --trace 1."""
    iterations = []
    start = time.perf_counter()
    while True:
        for traced in (False, True) if args.trace else (False,):
            it = run_iteration(workload, work, len(iterations), traced, deadline)
            it["traced"] = traced
            if iterations:  # keep the last iteration's outputs and traces only
                shutil.rmtree(iterations[-1]["dir"], ignore_errors=True)
            iterations.append(it)
        now = time.perf_counter()
        longest = max(it["wall"] for it in iterations) * (2 if args.trace else 1)
        if now - start >= args.seconds or now + 1.5 * longest > deadline:
            return iterations


def traced_metrics(traced, wall_s, summary):
    """Medians of the per-layer metrics over the traced iterations."""
    from tracer import LAYERS, absent_probes, layer_metrics

    per_iter = []
    for it in traced:
        m = layer_metrics([r["capture"] for r in it["results"]], [r["wall"] for r in it["results"]])
        m["cli.threshold_failures"] = sum(o["threshold_failures"] for o in it["outcomes"])
        m["trace.wall_s"] = it["wall"]
        per_iter.append(m)
    layer = {k: statistics.median(m[k] for m in per_iter) for k in per_iter[0]}
    layer["trace.overhead_s"] = layer["trace.wall_s"] - wall_s
    summary["accounted_share"] = statistics.median(
        (sum(m[f"{name}.self_s"] for name in LAYERS) + m["cli.import_s"] + m["cli.process_s"])
        / m["trace.wall_s"]
        for m in per_iter
    )
    captures = [r["capture"] for r in traced[-1]["results"]]
    summary["absent_layers"], summary["absent_probes"] = absent_probes(captures)
    summary["hook_errors"] = sorted({e for c in captures for e in c.get("hook_errors", [])})
    summary["largest_stage"] = max(STAGES, key=layer.get)
    return layer


def run_workload(name, args, manifest_info):
    deadline = time.perf_counter() + DEADLINE_S
    workload = WORKLOADS[name]()
    work = WORK / f"{name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload.prepare(work, args.seed)
    setup_s = measure_setup(workload.builders, work, deadline)
    iterations = run_loop(workload, work, args, deadline)

    outcomes = [o for it in iterations for o in it["outcomes"]]
    errors = [o["error"] for o in outcomes if "error" in o]
    plain = [it for it in iterations if not it["traced"]]
    worst_rel = max((o["rel_error"] for o in outcomes if "rel_error" in o), default=1.0)
    worst_blk = max((o["block_error"] for o in outcomes if "block_error" in o), default=1.0)
    e2e = {
        "wall_s": (statistics.median(it["wall"] for it in plain), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (statistics.median(it["rss"] for it in plain), "MB"),
        "accuracy_digits": (-math.log10(worst_rel), "digits"),
        "block_digits_lost": (math.log10(worst_blk / EPS), "digits"),
    }
    summary = {
        "walls": [round(it["wall"], 4) for it in plain],
        "attempted": len(outcomes),
        "failed": len(errors),
        "errors": errors,
        "min_block_accuracy_digits": -math.log10(worst_blk),
        "threshold_failures": max(sum(o["threshold_failures"] for o in it["outcomes"]) for it in iterations),
        "threshold_detail": sorted({d for o in outcomes for d in o.get("threshold_detail", ())}),
    }
    traced = [it for it in iterations if it["traced"]]
    layer = traced_metrics(traced, e2e["wall_s"][0], summary) if traced else {}
    (work / "result.json").write_text(json.dumps({"manifest": manifest_info, "summary": summary}, indent=1))
    return e2e, layer, summary


# Stage times of the ROADMAP; the largest is printed with the traced metrics.
STAGES = (
    "benchmarks.build_s",
    "fom.trajectory_s",
    "fom.single_step_s",
    "pod.basis_s",
    "exact_opinf.estimate_dt_s",
    "exact_opinf.pairs_s",
    "exact_opinf.ensemble_self_s",
    "exact_opinf.infer_s",
    "tensor_poly.feature_vector_s",
    "galerkin.intrusive_s",
    "diagnostics.report_s",
    "serialize.read_s",
    "serialize.write_s",
    "cli.self_s",
)


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    if "bytes" in metric.rpartition(".")[2]:
        return "bytes"
    if metric.endswith(("_share", "_density")):
        return "ratio"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "exactopinf" / "cli.py").is_file():
        print(f"no exactopinf sources under {SRC}; run from the root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    info = manifest(args)
    print("manifest " + json.dumps(info, sort_keys=True), flush=True)
    metrics = {}
    attempted = failed = 0
    for name in names:
        e2e, layer, summary = run_workload(name, args, info)
        attempted += summary["attempted"]
        failed += summary["failed"]
        print(f"== {name}: {len(summary['walls'])} untraced iteration(s), wall {summary['walls']} s", flush=True)
        for key, (value, unit) in e2e.items():
            print(f"{name} {key} = {value:.6g} {unit}")
        print(f"{name} min_block_accuracy_digits = {summary['min_block_accuracy_digits']:.6g} digits")
        print(f"{name} threshold_failures = {summary['threshold_failures']} count {summary['threshold_detail']}")
        share = summary["failed"] / summary["attempted"]
        print(f"{name} failed operations = {summary['failed']}/{summary['attempted']} ({share:.1%})")
        for err in summary["errors"][:10]:
            print(f"{name} FAILED: {err}")
        shown = e2e
        if args.trace:
            shown = {k: (v, unit_of(k)) for k, v in layer.items()}
            for key, (value, unit) in shown.items():
                print(f"{name} {key} = {value:.6g} {unit}")
            print(f"{name} largest stage: {summary['largest_stage']}")
            print(
                f"{name} (layer self times + cli.import_s + cli.process_s) / trace.wall_s"
                f" = {summary['accounted_share']:.4f}"
            )
            print(f"{name} absent layers: {summary['absent_layers']} probes: {summary['absent_probes']}")
            if summary["hook_errors"]:
                print(f"{name} hook errors: {summary['hook_errors']}")
        prefix = f"{name}." if len(names) > 1 else ""
        for key, (value, unit) in shown.items():
            metrics[prefix + key] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
