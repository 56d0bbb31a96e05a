"""CSV round-tripping for snapshots, bases, operators and ensembles.

All files start with a versioned comment line and store numbers with 17
significant digits, so a write/read cycle reproduces every double exactly.
Operators and ensembles carry a JSON sidecar with their feature layout.
"""

from __future__ import annotations

import csv
import json
import math
import sys
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


def write_table(path, kind, header, rows):
    """Versioned CSV: the ``kind`` header line, the column names, the rows.

    ``rows`` is a 2-D array or a sequence of rows.  Floats (every entry of
    an array of floats, too) are written with 17 significant digits, so
    reading them back gives the same doubles; other values as ``str``
    prints them.
    """
    if isinstance(rows, np.ndarray):
        rows = rows.tolist()
    with open(path, "w", newline="") as fh:
        fh.write(f"# exactopinf-csv v{FORMAT_VERSION} {kind}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(
            [_fmt(v) if isinstance(v, float) else str(v) for v in row] for row in rows
        )


def _read_table(path, kind, text_fields=0, width=None):
    """Column names, leading text fields and float values of a versioned CSV.

    Checks the header line, ``width`` columns (when given), one field per
    column on every row and a finite float in every field after the first
    ``text_fields``; a violation raises :class:`SchemaError` with its line.
    Data row ``k`` is on line ``k + 3``.
    """
    expected = f"# exactopinf-csv v{FORMAT_VERSION} {kind}"
    with open(path, newline="") as fh:
        first = fh.readline()
        if first.rstrip("\n") != expected:
            raise SchemaError(f"{path}: expected header {expected!r}, got {first!r}", line=1)
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: missing column header", line=2) from None
        if width is not None and len(header) != width:
            raise SchemaError(f"{path}: expected {width} columns, got {len(header)}", line=2)
        texts, values = [], []
        for lineno, row in enumerate(reader, start=3):
            if len(row) != len(header):
                raise SchemaError(
                    f"{path}: expected {len(header)} fields, got {len(row)}", line=lineno
                )
            try:
                values.append([float(v) for v in row[text_fields:]])
            except ValueError as exc:
                raise SchemaError(f"{path}: {exc}", line=lineno) from None
            if not all(map(math.isfinite, values[-1])):
                raise SchemaError(f"{path}: non-finite number", line=lineno)
            texts.append(row[:text_fields])
    if not values:
        raise SchemaError(f"{path}: no data rows", line=3)
    return header, texts, np.array(values)


def read_matrix(path, kind) -> np.ndarray:
    """The numbers of a versioned CSV of ``kind``, one matrix row per line."""
    return _read_table(path, kind)[2]


def _snapshot_header(n_u, N):
    return ["t"] + [f"u_{j + 1}" for j in range(n_u)] + [f"x_{j + 1}" for j in range(N)]


def write_snapshots(snapshots: SnapshotMatrix, path):
    header = _snapshot_header(snapshots.inputs.shape[0], snapshots.dimension)
    data = np.vstack([snapshots.times, snapshots.inputs, snapshots.states]).T
    write_table(path, "snapshots", header, data)


def read_snapshots(path) -> SnapshotMatrix:
    """Snapshots from a CSV with columns ``t, u_1..u_{n_u}, x_1..x_N``, in that order."""
    header, _, values = _read_table(path, "snapshots")
    n_u = sum(1 for name in header if name.startswith("u_"))
    N = len(header) - 1 - n_u
    if header != _snapshot_header(n_u, N):
        inputs = f"u_1..u_{n_u}, " if n_u else ""
        raise SchemaError(f"{path}: expected columns t, {inputs}x_1..x_{N}, got {header}", line=2)
    try:
        return SnapshotMatrix(
            states=values[:, 1 + n_u :].T, times=values[:, 0], inputs=values[:, 1 : 1 + n_u].T
        )
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from None


def write_basis(basis: PodBasis, path, singular_values_path):
    write_table(path, "basis", [f"mode_{j + 1}" for j in range(basis.n_max)], basis.V)
    write_table(
        singular_values_path, "singular-values", ["sigma"], basis.singular_values[:, None]
    )


def read_basis(path, singular_values_path) -> PodBasis:
    V = read_matrix(path, "basis")
    s = read_matrix(singular_values_path, "singular-values")[:, 0]
    return PodBasis(V=V, singular_values=s)


def _sidecar_path(path) -> Path:
    path = Path(path)
    return path.with_suffix(path.suffix + ".json")


def _read_sidecar(path, **numbers) -> tuple[MonomialBasis, dict]:
    """Feature layout of an operator or ensemble file, from its JSON sidecar.

    ``numbers`` names further numeric keys with their defaults (``None``
    for a required key); their values, each finite and positive, come back
    in a dict.  A missing sidecar, malformed JSON and a missing, ill-typed,
    non-finite or non-positive key raise :class:`SchemaError`.
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
        basis.n_f  # a feature count beyond 64 bits raises OverflowError
    except (ValueError, OverflowError) as exc:
        raise SchemaError(f"{sidecar_file}: {exc}") from None
    values = {key: field(key, (int, float), default) for key, default in numbers.items()}
    for key, value in values.items():
        if not 0 < value <= sys.float_info.max:  # false for NaN, and exact for any int
            message = f"key {key!r} must be positive and finite, got {value}"
            raise SchemaError(f"{sidecar_file}: {message}")
    return basis, {key: float(value) for key, value in values.items()}


def write_operator(op: AggregatedOperator, path):
    write_table(path, "operator", [f"col_{j + 1}" for j in range(op.basis.n_f)], op.matrix)
    sidecar = {
        "version": FORMAT_VERSION,
        "n": op.basis.n,
        "degree_set": list(op.basis.degree_set),
        "n_u": op.basis.n_u,
    }
    _sidecar_path(path).write_text(json.dumps(sidecar, indent=2) + "\n")


def read_operator(path) -> AggregatedOperator:
    basis, _ = _read_sidecar(path)
    matrix = read_matrix(path, "operator")
    if matrix.shape != (basis.n, basis.n_f):
        raise SchemaError(
            f"{path}: matrix shape {matrix.shape} does not match sidecar layout "
            f"({basis.n}, {basis.n_f})"
        )
    try:
        return AggregatedOperator(basis=basis, matrix=matrix)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from None


def write_ensemble(ensemble: SnapshotEnsemble, path):
    basis = ensemble.basis
    header = (
        ["kind", "tag"]
        + [f"xbar_{j + 1}" for j in range(basis.n)]
        + [f"ubar_{j + 1}" for j in range(basis.n_u)]
        + [f"xdot_{j + 1}" for j in range(basis.n)]
    )
    rows = []
    for pair, xdot in zip(ensemble.pairs, ensemble.derivatives.T):
        if pair.provenance[0] == "state":
            tag = f"{pair.provenance[1]}:" + ".".join(str(j) for j in pair.provenance[2])
        else:
            tag = str(pair.provenance[1])
        rows.append([pair.provenance[0], tag, *pair.state, *pair.inp, *xdot])
    write_table(path, "ensemble", header, rows)
    sidecar = {
        "version": FORMAT_VERSION,
        "n": basis.n,
        "degree_set": list(basis.degree_set),
        "n_u": basis.n_u,
        "dt": ensemble.dt,
        "scale": ensemble.scale,
    }
    _sidecar_path(path).write_text(json.dumps(sidecar, indent=2) + "\n")


def _provenance(kind, tag):
    """Provenance of a pair from its ``kind`` and ``tag`` fields."""
    if kind == "state":
        degree, _, indices = tag.partition(":")
        return ("state", int(degree), tuple(int(j) for j in indices.split(".")) if indices else ())
    if kind == "input":
        return ("input", int(tag))
    raise ValueError(f"unknown pair kind {kind!r}")


def read_ensemble(path) -> SnapshotEnsemble:
    basis, sidecar = _read_sidecar(path, dt=None, scale=1.0)
    _, texts, values = _read_table(
        path, "ensemble", text_fields=2, width=2 + 2 * basis.n + basis.n_u
    )
    pairs = []
    for lineno, ((kind, tag), row) in enumerate(zip(texts, values), start=3):
        try:
            provenance = _provenance(kind, tag)
        except ValueError as exc:
            message = f"{path}: pair kind {kind!r}, tag {tag!r}: {exc}"
            raise SchemaError(message, line=lineno) from None
        pairs.append(
            RankEnsuringPair(
                state=row[: basis.n],
                inp=row[basis.n : basis.n + basis.n_u],
                provenance=provenance,
                scale=sidecar["scale"],
            )
        )
    pairs = tuple(pairs)
    return SnapshotEnsemble(
        basis=basis,
        pairs=pairs,
        dt=sidecar["dt"],
        P=pair_feature_matrix(pairs, basis),
        derivatives=np.ascontiguousarray(values[:, basis.n + basis.n_u :].T),
    )
