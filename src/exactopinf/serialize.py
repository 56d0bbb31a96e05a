"""CSV round-tripping for snapshots, bases, operators and ensembles.

All files start with a versioned comment line and store numbers with 17
significant digits, so a write/read cycle reproduces every double exactly.
Operators and ensembles carry a JSON sidecar with their feature layout.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .exact_opinf import RankEnsuringPair, SnapshotEnsemble, pair_feature_matrix
from .fom import SnapshotMatrix
from .galerkin import AggregatedOperator
from .pod import PodBasis
from .tensor_poly import MonomialBasis

FORMAT_VERSION = 1


class SchemaError(ValueError):
    """File does not match the expected schema; carries the line number."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _header_line(kind: str) -> str:
    return f"# exactopinf-csv v{FORMAT_VERSION} {kind}"


def _check_header(first_line: str, kind: str, path):
    expected = _header_line(kind)
    if first_line.rstrip("\n") != expected:
        raise SchemaError(f"{path}: expected header {expected!r}, got {first_line!r}", line=1)


def write_snapshots(snapshots: SnapshotMatrix, path):
    n_u = snapshots.inputs.shape[0]
    N = snapshots.dimension
    with open(path, "w", newline="") as fh:
        fh.write(_header_line("snapshots") + "\n")
        writer = csv.writer(fh)
        writer.writerow(
            ["t"] + [f"u_{j + 1}" for j in range(n_u)] + [f"x_{j + 1}" for j in range(N)]
        )
        for k in range(snapshots.states.shape[1]):
            row = [_fmt(snapshots.times[k])]
            row += [_fmt(v) for v in snapshots.inputs[:, k]]
            row += [_fmt(v) for v in snapshots.states[:, k]]
            writer.writerow(row)


def read_snapshots(path) -> SnapshotMatrix:
    with open(path, newline="") as fh:
        first = fh.readline()
        _check_header(first, "snapshots", path)
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: missing column header", line=2) from None
        if not header or header[0] != "t":
            raise SchemaError(f"{path}: first column must be 't'", line=2)
        n_u = sum(1 for name in header if name.startswith("u_"))
        N = sum(1 for name in header if name.startswith("x_"))
        if 1 + n_u + N != len(header):
            raise SchemaError(f"{path}: unrecognized columns in {header}", line=2)
        times, inputs, states = [], [], []
        for lineno, row in enumerate(reader, start=3):
            if len(row) != len(header):
                raise SchemaError(
                    f"{path}: expected {len(header)} fields, got {len(row)}", line=lineno
                )
            try:
                values = [float(v) for v in row]
            except ValueError as exc:
                raise SchemaError(f"{path}: {exc}", line=lineno) from None
            times.append(values[0])
            inputs.append(values[1 : 1 + n_u])
            states.append(values[1 + n_u :])
    if not times:
        raise SchemaError(f"{path}: no data rows", line=3)
    return SnapshotMatrix(
        states=np.array(states).T, times=np.array(times), inputs=np.array(inputs).T
    )


def write_basis(basis: PodBasis, path, singular_values_path):
    with open(path, "w", newline="") as fh:
        fh.write(_header_line("basis") + "\n")
        writer = csv.writer(fh)
        writer.writerow([f"mode_{j + 1}" for j in range(basis.n_max)])
        for row in basis.V:
            writer.writerow([_fmt(v) for v in row])
    with open(singular_values_path, "w", newline="") as fh:
        fh.write(_header_line("singular-values") + "\n")
        writer = csv.writer(fh)
        writer.writerow(["sigma"])
        for s in basis.singular_values:
            writer.writerow([_fmt(s)])


def read_basis(path, singular_values_path) -> PodBasis:
    V = _read_plain_matrix(path, "basis")
    s = _read_plain_matrix(singular_values_path, "singular-values")[:, 0]
    return PodBasis(V=V, singular_values=s)


def _read_plain_matrix(path, kind) -> np.ndarray:
    with open(path, newline="") as fh:
        first = fh.readline()
        _check_header(first, kind, path)
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: missing column header", line=2) from None
        rows = []
        for lineno, row in enumerate(reader, start=3):
            if len(row) != len(header):
                raise SchemaError(
                    f"{path}: expected {len(header)} fields, got {len(row)}", line=lineno
                )
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise SchemaError(f"{path}: {exc}", line=lineno) from None
    if not rows:
        raise SchemaError(f"{path}: no data rows", line=3)
    return np.array(rows)


def _sidecar_path(path) -> Path:
    path = Path(path)
    return path.with_suffix(path.suffix + ".json")


def _read_sidecar(path, **numbers) -> tuple[MonomialBasis, dict]:
    """Feature layout of an operator or ensemble file, from its JSON sidecar.

    ``numbers`` names further numeric keys with their defaults (``None``
    for a required key); their values come back in a dict.  A missing
    sidecar, malformed JSON and a missing or ill-typed key raise
    :class:`SchemaError`.
    """
    sidecar_file = _sidecar_path(path)
    if not sidecar_file.exists():
        raise SchemaError(f"{path}: missing sidecar {sidecar_file}")
    try:
        sidecar = json.loads(sidecar_file.read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{sidecar_file}: malformed JSON: {exc.msg}", line=exc.lineno) from None
    if not isinstance(sidecar, dict):
        raise SchemaError(f"{sidecar_file}: expected a JSON object")

    def field(key, kinds, default=None):
        value = sidecar.get(key, default)
        if value is None:
            raise SchemaError(f"{sidecar_file}: missing key {key!r}")
        if type(value) not in kinds:  # also rejects true/false for a number
            raise SchemaError(f"{sidecar_file}: key {key!r} has ill-typed value {value!r}")
        return value

    degree_set = field("degree_set", (list,))
    if any(type(i) is not int for i in degree_set):
        raise SchemaError(f"{sidecar_file}: key 'degree_set' must list integers")
    try:
        basis = MonomialBasis(
            n=field("n", (int,)), degree_set=tuple(degree_set), n_u=field("n_u", (int,))
        )
    except ValueError as exc:
        raise SchemaError(f"{sidecar_file}: {exc}") from None
    values = {key: float(field(key, (int, float), default)) for key, default in numbers.items()}
    return basis, values


def write_operator(op: AggregatedOperator, path):
    with open(path, "w", newline="") as fh:
        fh.write(_header_line("operator") + "\n")
        writer = csv.writer(fh)
        writer.writerow([f"col_{j + 1}" for j in range(op.basis.n_f)])
        for row in op.matrix:
            writer.writerow([_fmt(v) for v in row])
    sidecar = {
        "version": FORMAT_VERSION,
        "n": op.basis.n,
        "degree_set": list(op.basis.degree_set),
        "n_u": op.basis.n_u,
    }
    _sidecar_path(path).write_text(json.dumps(sidecar, indent=2) + "\n")


def read_operator(path) -> AggregatedOperator:
    basis, _ = _read_sidecar(path)
    matrix = _read_plain_matrix(path, "operator")
    if matrix.shape != (basis.n, basis.n_f):
        raise SchemaError(
            f"{path}: matrix shape {matrix.shape} does not match sidecar layout "
            f"({basis.n}, {basis.n_f})"
        )
    return AggregatedOperator(basis=basis, matrix=matrix)


def write_ensemble(ensemble: SnapshotEnsemble, path):
    basis = ensemble.basis
    with open(path, "w", newline="") as fh:
        fh.write(_header_line("ensemble") + "\n")
        writer = csv.writer(fh)
        writer.writerow(
            ["kind", "tag"]
            + [f"xbar_{j + 1}" for j in range(basis.n)]
            + [f"ubar_{j + 1}" for j in range(basis.n_u)]
            + [f"xdot_{j + 1}" for j in range(basis.n)]
        )
        for s, pair in enumerate(ensemble.pairs):
            if pair.provenance[0] == "state":
                tag = f"{pair.provenance[1]}:" + ".".join(str(j) for j in pair.provenance[2])
            else:
                tag = str(pair.provenance[1])
            row = [pair.provenance[0], tag]
            row += [_fmt(v) for v in pair.state]
            row += [_fmt(v) for v in pair.inp]
            row += [_fmt(v) for v in ensemble.derivatives[:, s]]
            writer.writerow(row)
    sidecar = {
        "version": FORMAT_VERSION,
        "n": basis.n,
        "degree_set": list(basis.degree_set),
        "n_u": basis.n_u,
        "dt": ensemble.dt,
        "scale": ensemble.scale,
    }
    _sidecar_path(path).write_text(json.dumps(sidecar, indent=2) + "\n")


def read_ensemble(path) -> SnapshotEnsemble:
    basis, sidecar = _read_sidecar(path, dt=None, scale=1.0)
    pairs = []
    derivatives = []
    with open(path, newline="") as fh:
        first = fh.readline()
        _check_header(first, "ensemble", path)
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: missing column header", line=2) from None
        expected_fields = 2 + 2 * basis.n + basis.n_u
        if len(header) != expected_fields:
            raise SchemaError(
                f"{path}: expected {expected_fields} columns, got {len(header)}", line=2
            )
        for lineno, row in enumerate(reader, start=3):
            if len(row) != expected_fields:
                raise SchemaError(
                    f"{path}: expected {expected_fields} fields, got {len(row)}", line=lineno
                )
            kind, tag = row[0], row[1]
            if kind == "state":
                degree_text, _, tuple_text = tag.partition(":")
                degree = int(degree_text)
                indices = tuple(int(j) for j in tuple_text.split(".")) if tuple_text else ()
                provenance = ("state", degree, indices)
            elif kind == "input":
                provenance = ("input", int(tag))
            else:
                raise SchemaError(f"{path}: unknown pair kind {kind!r}", line=lineno)
            try:
                values = [float(v) for v in row[2:]]
            except ValueError as exc:
                raise SchemaError(f"{path}: {exc}", line=lineno) from None
            state = np.array(values[: basis.n])
            inp = np.array(values[basis.n : basis.n + basis.n_u])
            xdot = np.array(values[basis.n + basis.n_u :])
            pairs.append(
                RankEnsuringPair(
                    state=state, inp=inp, provenance=provenance, scale=sidecar["scale"]
                )
            )
            derivatives.append(xdot)
    if not pairs:
        raise SchemaError(f"{path}: no data rows", line=3)
    pairs = tuple(pairs)
    return SnapshotEnsemble(
        basis=basis,
        pairs=pairs,
        dt=sidecar["dt"],
        P=pair_feature_matrix(pairs, basis),
        derivatives=np.stack(derivatives, axis=1),
    )


def write_report_rows(reports, path):
    """One CSV row of scalar metrics per report."""
    with open(path, "w", newline="") as fh:
        fh.write(_header_line("diagnostics") + "\n")
        writer = csv.writer(fh)
        writer.writerow(
            [
                "benchmark",
                "n",
                "relative_operator_error",
                "cond_P",
                "ensemble_size",
                "energy_violation",
                "symmetry_violation",
            ]
        )
        for rep in reports:
            writer.writerow(
                [
                    rep.benchmark,
                    rep.n,
                    _fmt(rep.relative_operator_error),
                    _fmt(rep.cond_P),
                    rep.ensemble_size,
                    "" if rep.energy_violation is None else _fmt(rep.energy_violation),
                    "" if rep.symmetry_violation is None else _fmt(rep.symmetry_violation),
                ]
            )
