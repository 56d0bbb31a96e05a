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

from .exact_opinf import SnapshotEnsemble, pair_tags, rank_ensuring_pairs
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


def write_table(path, kind, header, rows):
    """Versioned CSV: the ``kind`` header line, the column names, the rows.

    ``rows`` is a 2-D array or a sequence of rows.  Floats (every entry of
    an array of floats, too) are written with 17 significant digits, so
    reading them back gives the same doubles; other values as ``str``
    prints them.  Each row is formatted by one ``%`` format; a text entry
    that ``csv`` would have to quote (a comma, a quote or a line break)
    raises ``ValueError``.
    """
    if isinstance(rows, np.ndarray):
        rows = rows.tolist()
    with open(path, "w", newline="") as fh:
        fh.write(f"# exactopinf-csv v{FORMAT_VERSION} {kind}\n")
        csv.writer(fh).writerow(header)
        for row in rows:
            line = ",".join("%.17g" if isinstance(v, float) else "%s" for v in row) % tuple(row)
            if line.count(",") != len(row) - 1 or any(c in line for c in '"\r\n'):
                texts = [v for v in row if not isinstance(v, float)]
                raise ValueError(f"{path}: an entry of {texts!r} holds a comma, quote or line break")
            fh.write(line + "\r\n")


def _read_table(path, kind, text_fields=0, width=None):
    """Column names, leading text fields and float values of a versioned CSV.

    Checks the header line, at least one column, ``width`` columns (when
    given), one field per column on every row and a finite float in every
    field after the first ``text_fields``; a violation raises :class:`SchemaError` with its line.
    Data row ``k`` is on line ``k + 3``.
    """
    expected = f"# exactopinf-csv v{FORMAT_VERSION} {kind}"
    with open(path, newline="") as fh:
        first = fh.readline()
        if first.rstrip("\r\n") != expected:
            raise SchemaError(f"{path}: expected header {expected!r}, got {first!r}", line=1)
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: missing column header", line=2) from None
        if not header:
            raise SchemaError(f"{path}: no columns", line=2)
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


def _sidecar_path(path) -> Path:
    path = Path(path)
    return path.with_suffix(path.suffix + ".json")


def _read_sidecar(path, **numbers) -> tuple[MonomialBasis, dict]:
    """Feature layout of an operator or ensemble file, from its JSON sidecar.

    ``numbers`` names further numeric keys with their defaults (``None``
    for a required key); their values, each finite and positive, come back
    in a dict.  A missing sidecar, malformed JSON, an integer too long to
    parse, a missing, ill-typed, non-finite or non-positive key and a
    ``version`` other than ``FORMAT_VERSION`` raise :class:`SchemaError`.
    """
    sidecar_file = _sidecar_path(path)
    if not sidecar_file.exists():
        raise SchemaError(f"{path}: missing sidecar {sidecar_file}")
    try:
        sidecar = json.loads(sidecar_file.read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{sidecar_file}: malformed JSON: {exc.msg}", line=exc.lineno) from None
    except ValueError as exc:  # an integer beyond Python's int-to-string digit limit
        raise SchemaError(f"{sidecar_file}: {exc}") from None
    if not isinstance(sidecar, dict):
        raise SchemaError(f"{sidecar_file}: expected a JSON object")

    def field(key, kinds, default=None):
        value = sidecar.get(key, default)
        if value is None:
            raise SchemaError(f"{sidecar_file}: missing key {key!r}")
        if type(value) not in kinds:  # also rejects true/false for a number
            raise SchemaError(f"{sidecar_file}: key {key!r} has ill-typed value {value!r}")
        return value

    if (version := field("version", (int,), FORMAT_VERSION)) != FORMAT_VERSION:
        raise SchemaError(f"{sidecar_file}: expected version {FORMAT_VERSION}, got {version}")
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


def _write_sidecar(path, basis: MonomialBasis, **numbers):
    """The JSON sidecar of an operator or ensemble file: its feature layout,
    then ``numbers``."""
    layout = {"n": basis.n, "degree_set": list(basis.degree_set), "n_u": basis.n_u}
    sidecar = {"version": FORMAT_VERSION, **layout, **numbers}
    _sidecar_path(path).write_text(json.dumps(sidecar, indent=2) + "\n")


def write_operator(op: AggregatedOperator, path):
    write_table(path, "operator", [f"col_{j + 1}" for j in range(op.basis.n_f)], op.matrix)
    _write_sidecar(path, op.basis)


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


def _tag_fields(basis: MonomialBasis) -> list[list[str]]:
    """The ``kind`` and ``tag`` fields of the rank-ensuring pairs, in feature
    order: ``state,i:j1.j2...`` (``state,0:`` for degree 0), ``input,j``."""
    return [
        [tag[0], f"{tag[1]}:" + ".".join(map(str, tag[2])) if tag[0] == "state" else str(tag[1])]
        for tag in pair_tags(basis)
    ]


def write_ensemble(ensemble: SnapshotEnsemble, path):
    """One row per rank-ensuring pair: its tag, state, input and derivative."""
    basis = ensemble.basis
    header = (
        ["kind", "tag"]
        + [f"xbar_{j + 1}" for j in range(basis.n)]
        + [f"ubar_{j + 1}" for j in range(basis.n_u)]
        + [f"xdot_{j + 1}" for j in range(basis.n)]
    )
    X, U = rank_ensuring_pairs(basis, ensemble.scale)
    values = np.vstack([X, U, ensemble.derivatives]).T.tolist()
    write_table(path, "ensemble", header, [t + v for t, v in zip(_tag_fields(basis), values)])
    _write_sidecar(path, basis, dt=ensemble.dt, scale=ensemble.scale)


def read_ensemble(path) -> SnapshotEnsemble:
    """The ensemble of a file whose rows are the rank-ensuring pairs of its
    sidecar's layout at its ``scale``, in feature order.

    A missing, extra, reordered or edited row, that is a ``kind``, ``tag``, ``xbar``
    or ``ubar`` field other than the pair's, raises :class:`SchemaError` naming its
    line; fewer than half the layout's rows, before any pair is built.
    """
    basis, sidecar = _read_sidecar(path, dt=None, scale=1.0)
    width = basis.n + basis.n_u
    _, texts, values = _read_table(path, "ensemble", text_fields=2, width=2 + width + basis.n)
    m = min(len(values), basis.n_f)
    message = f"expected {basis.n_f} pair rows for the sidecar layout, got {len(values)}"
    count_error = SchemaError(f"{path}: {message}", line=m + 3)
    if basis.n_f > 2 * len(values):  # so the pairs built never outgrow the file
        raise count_error
    X, U = rank_ensuring_pairs(basis, sidecar["scale"])
    expected = _tag_fields(basis)
    wrong = np.any(values[:m, :width] != np.vstack([X, U]).T[:m], axis=1)
    wrong |= [fields != want for fields, want in zip(texts, expected)]
    if wrong.any():
        s = int(np.argmax(wrong))
        (kind, tag), pair = texts[s], ",".join(expected[s])
        message = f"expected the rank-ensuring pair {pair!r} at scale {sidecar['scale']!r}"
        raise SchemaError(f"{path}: kind {kind!r}, tag {tag!r}, xbar/ubar: {message}", line=s + 3)
    if len(values) != basis.n_f:
        raise count_error
    return SnapshotEnsemble(
        basis=basis,
        dt=sidecar["dt"],
        derivatives=np.ascontiguousarray(values[:, width:].T),
        scale=sidecar["scale"],
    )
