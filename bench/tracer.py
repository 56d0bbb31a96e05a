"""Spans and counts at the layer boundaries of the exactopinf package.

The tracer is installed from outside the package: every probed function is
rebound wherever the package binds it, in its home module and in every
module that imported it by name (``exactopinf.cli.infer``,
``exactopinf.exact_opinf.explicit_euler_step``, ...).  A span records name,
layer, start, end, parent and thread; counts are taken at the same
boundaries.  Both stay in memory until :meth:`Tracer.dump` writes them out.

A probed name missing from its home module is reported as absent rather than
failing, so the tracer keeps working while the package is refactored.
Worker threads started through ``ThreadPoolExecutor`` inherit the span that
submitted their work, so single steps nest under their ensemble span.

:func:`layer_metrics` turns the dumped traces of one workload iteration into
the per-layer metrics.  A layer's self time is the wall-clock measure of the
instants at which one of its spans is open and none of that span's children
is; with worker threads, instants two workers share are counted once.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

PACKAGE = "exactopinf"

# Layers are the package modules.  gappy_interp is on no pipeline path and
# is deliberately not probed.
LAYERS = (
    "benchmarks",
    "fom",
    "pod",
    "exact_opinf",
    "tensor_poly",
    "galerkin",
    "diagnostics",
    "serialize",
    "cli",
)

ENSEMBLE = ("generate_ensemble", "extend_ensemble")
PAIRS = ("rank_ensuring_pairs", "pair_feature_matrix")
# the CLI reads bases through the private _read_plain_matrix
READS = ("read_snapshots", "read_basis", "read_operator", "read_ensemble", "_read_plain_matrix")
WRITES = ("write_snapshots", "write_basis", "write_operator", "write_ensemble", "write_report_rows")

# (layer, functions spanned in that layer's home module)
PROBES = (
    ("benchmarks", ("build_chafee_infante", "build_shallow_ice", "build_burgers")),
    ("fom", ("simulate", "explicit_euler_step")),
    ("pod", ("pod_basis",)),
    ("exact_opinf", ("estimate_dt",) + PAIRS + ENSEMBLE + ("infer",)),
    ("tensor_poly", ("feature_vector",)),
    ("galerkin", ("intrusive_reduce",)),
    (
        "diagnostics",
        (
            "build_report",
            "relative_operator_error",
            "block_errors",
            "condition_number",
            "energy_violation",
            "symmetry_violation",
            "diffusion_spectrum",
        ),
    ),
    ("serialize", READS + WRITES),
)

# Called too often for a span: counted only.  Every right-hand-side
# evaluation beyond one per explicit step is a Newton iteration.
COUNTED = (("fom", "eval_rhs", "fom.rhs_evals"),)



def _file_bytes(args) -> int:
    """Size of every argument naming an existing file, with its JSON sidecar."""
    total = 0
    for arg in args:
        if isinstance(arg, (str, os.PathLike)) and os.path.isfile(arg):
            total += os.path.getsize(arg)
            sidecar = os.fspath(arg) + ".json"
            if os.path.isfile(sidecar):
                total += os.path.getsize(sidecar)
    return total


def reference_norms(op) -> dict:
    """Frobenius norms of an operator's degree and input blocks, and of all of it."""
    import numpy as np

    blocks = {str(i): float(np.linalg.norm(op.degree_block(i))) for i in op.basis.degree_set}
    if op.basis.n_u:
        blocks["input"] = float(np.linalg.norm(op.input_block))
    return {"n": op.basis.n, "blocks": blocks, "total": float(np.linalg.norm(op.matrix))}


class _ContextExecutor(ThreadPoolExecutor):
    """Runs each task in a copy of the submitter's context, so spans opened
    by a worker get the submitting span as parent."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


class Tracer:
    """In-memory spans and counts of one process.

    With ``spans=False`` only the intrusive reference norms are captured,
    which the benchmark needs for its per-block accuracy on every run.
    """

    def __init__(self, spans: bool = True):
        self.record = spans
        self.spans = []
        self.counts = {}
        self.references = []
        self.absent = []
        self.hook_errors = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("span", default=0)

    # -- recording -----------------------------------------------------
    def count(self, name, value=1):
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    def _append(self, sid, parent, name, layer, t0, t1, info):
        with self._lock:
            self.spans.append((sid, parent, name, layer, t0, t1, threading.get_ident(), info))

    @contextlib.contextmanager
    def span(self, name, layer, start_ns=None):
        """Span around a block of the benchmark's own code (root, import)."""
        with self._lock:
            sid = next(self._ids)
        parent = self._current.get()
        token = self._current.set(sid)
        t0 = time.perf_counter_ns() if start_ns is None else start_ns
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            self._current.reset(token)
            self._append(sid, parent, name, layer, t0, t1, None)

    def _spanned(self, layer, name, fn):
        hook = _HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self._lock:
                sid = next(self._ids)
            parent = self._current.get()
            token = self._current.set(sid)
            returned = False
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                t1 = time.perf_counter_ns()
                self._current.reset(token)
                info = None
                if hook and returned:
                    info = self._hook(hook, name, signature, args, kwargs, result)
                self._append(sid, parent, f"{layer}.{name}", layer, t0, t1, info)

        return wrapper

    def _hook(self, hook, name, signature, args, kwargs, result):
        try:
            bound = signature.bind(*args, **kwargs).arguments
            return hook(self, bound, result)
        except Exception as exc:  # a changed signature must not stop the CLI
            self.hook_errors.append(f"{name}: {exc!r}")
            return None

    def _counted(self, metric, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(metric)
            return fn(*args, **kwargs)

        return wrapper

    def _captured(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            try:
                self.references.append(reference_norms(result))
            except Exception as exc:
                self.hook_errors.append(f"intrusive_reduce capture: {exc!r}")
            return result

        return wrapper

    # -- installation --------------------------------------------------
    def install(self):
        """Rebind every probe throughout the imported package."""
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        home = {mod.__name__.rpartition(".")[2]: mod for mod in modules}

        def rebind(original, replacement):
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, replacement)

        def lookup(module, name):
            fn = getattr(home.get(module), name, None)
            if not callable(fn):
                self.absent.append(f"{module}.{name}")
                return None
            return fn

        if not self.record:
            fn = lookup("galerkin", "intrusive_reduce")
            if fn is not None:
                rebind(fn, self._captured(fn))
            return
        rebind(ThreadPoolExecutor, _ContextExecutor)
        for layer, names in PROBES:
            for name in names:
                fn = lookup(layer, name)
                if fn is not None:
                    rebind(fn, self._spanned(layer, name, fn))
        for layer, name, metric in COUNTED:
            fn = lookup(layer, name)
            if fn is not None:
                rebind(fn, self._counted(metric, fn))

    def dump(self, path):
        fields = ("id", "parent", "name", "layer", "start_ns", "end_ns", "thread", "info")
        payload = {
            "spans": [dict(zip(fields, s)) for s in self.spans],
            "counts": self.counts,
            "references": self.references,
            "absent": self.absent,
            "hook_errors": self.hook_errors,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


# -- per-function hooks: run after the call, return the span's info -------
def _simulate(tracer, bound, result):
    tracer.count("fom.trajectory_steps", int(bound["K"]))


def _pod_basis(tracer, bound, result):
    snaps = bound["snapshots"]
    tracer.count("pod.snapshot_bytes", int(getattr(snaps, "states", snaps).nbytes))


def _ensemble(tracer, bound, result):
    return {"size": int(result.P.shape[1])}


def _infer(tracer, bound, result):
    import numpy as np

    P = bound["ensemble"].P
    return {"n_f": int(P.shape[0]), "nnz": int(np.count_nonzero(P))}


def _intrusive(tracer, bound, result):
    tracer.references.append(reference_norms(result))
    return {"columns": int(result.matrix.shape[1])}


def _file_io(tracer, bound, result):
    return {"bytes": _file_bytes(bound.values())}


_HOOKS = {
    "simulate": _simulate,
    "pod_basis": _pod_basis,
    "generate_ensemble": _ensemble,
    "extend_ensemble": _ensemble,
    "infer": _infer,
    "intrusive_reduce": _intrusive,
    **{name: _file_io for name in READS + WRITES},
}


# -- analysis ----------------------------------------------------------
def _union(intervals):
    merged = []
    for a, b in sorted(intervals):
        if merged and a <= merged[-1][1]:
            if b > merged[-1][1]:
                merged[-1][1] = b
        else:
            merged.append([a, b])
    return merged


def _measure(intervals) -> float:
    """Seconds covered by the union of ``(start_ns, end_ns)`` intervals."""
    return sum(b - a for a, b in _union(intervals)) / 1e9


def _self_intervals(span, children):
    """The span's interval minus the union of its children's intervals."""
    a, b = span["start_ns"], span["end_ns"]
    out = []
    for ca, cb in _union((c["start_ns"], c["end_ns"]) for c in children):
        ca, cb = max(ca, a), min(cb, b)
        if cb <= a or ca >= b:
            continue
        if ca > a:
            out.append((a, ca))
        a = max(a, cb)
    if a < b:
        out.append((a, b))
    return out


def _process_metrics(trace) -> dict:
    spans = trace["spans"]
    by_id = {s["id"]: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)

    def named(*names):
        return [s for s in spans if s["name"].partition(".")[2] in names]

    def interval(group):
        return [(s["start_ns"], s["end_ns"]) for s in group]

    def under_ensemble(s):
        p = by_id.get(s["parent"])
        while p is not None:
            if p["name"].partition(".")[2] in ENSEMBLE:
                return True
            p = by_id.get(p["parent"])
        return False

    def io_bytes(names):
        # a nested read (read_operator -> _read_plain_matrix) counts once
        outer = [s for s in named(*names) if by_id.get(s["parent"], {}).get("layer") != "serialize"]
        return sum((s["info"] or {}).get("bytes", 0) for s in outer)

    self_by_layer = {layer: [] for layer in LAYERS}
    for s in spans:
        self_by_layer.setdefault(s["layer"], []).extend(_self_intervals(s, children.get(s["id"], ())))

    singles = [s for s in named("explicit_euler_step") if under_ensemble(s)]
    ensembles = named(*ENSEMBLE)
    steps_under = {s["id"]: 0 for s in ensembles}
    for s in singles:
        p = by_id.get(s["parent"])
        while p is not None and p["id"] not in steps_under:
            p = by_id.get(p["parent"])
        if p is not None:
            steps_under[p["id"]] += 1
    reused = sum(
        (s["info"] or {}).get("size", 0) - steps_under[s["id"]] for s in ensembles
    )
    ensemble_self = [iv for s in ensembles for iv in _self_intervals(s, children.get(s["id"], ()))]
    infers = named("infer")
    sizes = [s["info"] for s in infers if s["info"]]
    largest = max(sizes, key=lambda i: i["n_f"], default={"n_f": 0, "nnz": 0})
    counts = trace["counts"]

    m = {f"{layer}.self_s": _measure(self_by_layer[layer]) for layer in LAYERS}
    m.update(
        {
            "benchmarks.build_s": _measure(interval(named("build_chafee_infante", "build_shallow_ice", "build_burgers"))),
            "fom.trajectory_s": _measure(interval(named("simulate"))),
            "fom.trajectory_steps": counts.get("fom.trajectory_steps", 0),
            "fom.rhs_evals": counts.get("fom.rhs_evals", 0),
            "fom.single_step_s": _measure(interval(singles)),
            "fom.single_steps": len(singles),
            "pod.basis_s": _measure(interval(named("pod_basis"))),
            "pod.snapshot_bytes": counts.get("pod.snapshot_bytes", 0),
            "exact_opinf.estimate_dt_s": _measure(interval(named("estimate_dt"))),
            "exact_opinf.pairs_s": _measure(interval(named(*PAIRS))),
            "exact_opinf.ensemble_s": _measure(interval(ensembles)),
            "exact_opinf.ensemble_self_s": _measure(ensemble_self),
            "exact_opinf.steps_new": len(singles),
            "exact_opinf.steps_reused": reused,
            "exact_opinf.infer_s": _measure(interval(infers)),
            "exact_opinf.infer_calls": len(infers),
            "exact_opinf.n_f_max": largest["n_f"],
            "exact_opinf.P_nnz": largest["nnz"],
            "tensor_poly.feature_vector_s": _measure(interval(named("feature_vector"))),
            "tensor_poly.feature_vector_calls": len(named("feature_vector")),
            "galerkin.intrusive_s": _measure(interval(named("intrusive_reduce"))),
            "galerkin.monomial_columns": sum((s["info"] or {}).get("columns", 0) for s in named("intrusive_reduce")),
            "diagnostics.report_s": _measure(interval([s for s in spans if s["layer"] == "diagnostics"])),
            "serialize.read_s": _measure(interval(named(*READS))),
            "serialize.write_s": _measure(interval(named(*WRITES))),
            "serialize.bytes_read": io_bytes(READS),
            "serialize.bytes_written": io_bytes(WRITES),
            "cli.import_s": _measure(interval([s for s in spans if s["name"] == "cli.import"])),
            "cli.main_s": _measure(interval([s for s in spans if s["name"] == "cli.main"])),
        }
    )
    return m


def layer_metrics(traces, walls) -> dict:
    """Per-layer metrics of one workload iteration.

    ``traces`` are the dumped traces of its CLI processes and ``walls`` their
    wall times measured by the parent.  ``cli.self_s`` is the CLI's own code
    inside ``main``; the package import and the interpreter's start and exit
    (outside the root span) are ``cli.import_s`` and ``cli.process_s``.
    The layer self times plus those two add up to the traced wall time.
    """
    per_process = [_process_metrics(trace) for trace in traces]
    process_s = sum(wall - m.pop("cli.main_s") for m, wall in zip(per_process, walls))
    total = {key: sum(m[key] for m in per_process) for key in per_process[0]}
    largest = max(per_process, key=lambda m: m["exact_opinf.n_f_max"])
    n_f = largest["exact_opinf.n_f_max"]
    total["exact_opinf.n_f_max"] = n_f
    total["exact_opinf.P_bytes"] = 8 * n_f * n_f
    total["exact_opinf.P_density"] = largest.pop("exact_opinf.P_nnz") / (n_f * n_f) if n_f else 0.0
    del total["exact_opinf.P_nnz"]
    total["cli.process_s"] = process_s
    total["cli.self_s"] -= total["cli.import_s"]
    busy = total.pop("exact_opinf.ensemble_s") + total["exact_opinf.infer_s"]
    total["exact_opinf.step_share"] = total["fom.single_step_s"] / busy if busy > 0 else 0.0
    return total


def absent_probes(traces):
    """Layers none of whose probes exist any more, and every missing probe."""
    missing = sorted({name for trace in traces for name in trace["absent"]})
    gone = [layer for layer, names in PROBES if all(f"{layer}.{name}" in missing for name in names)]
    return gone, missing
