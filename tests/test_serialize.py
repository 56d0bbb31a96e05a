"""Bit-exact CSV round-trips and schema validation."""

import json

import numpy as np
import pytest

from exactopinf.exact_opinf import generate_ensemble, infer, rank_ensuring_pairs
from exactopinf.fom import SnapshotMatrix, from_dense_operators
from exactopinf.galerkin import AggregatedOperator
from exactopinf.pod import PodBasis, pod_basis
from exactopinf.serialize import (
    SchemaError,
    read_ensemble,
    read_matrix,
    read_operator,
    read_snapshots,
    write_basis,
    write_ensemble,
    write_operator,
    write_snapshots,
)
from exactopinf.tensor_poly import MonomialBasis

# an integer of more digits than Python converts to an int by default
DIGITS_BEYOND_LIMIT = "1" + "0" * 5000


class TestSnapshots:
    def test_round_trip_bit_exact(self, rng, tmp_path):
        snaps = SnapshotMatrix(
            states=rng.standard_normal((4, 6)),
            times=np.cumsum(rng.random(6)),
            inputs=rng.standard_normal((2, 6)),
        )
        path = tmp_path / "snaps.csv"
        write_snapshots(snaps, path)
        back = read_snapshots(path)
        np.testing.assert_array_equal(back.states, snaps.states)
        np.testing.assert_array_equal(back.times, snaps.times)
        np.testing.assert_array_equal(back.inputs, snaps.inputs)

    def test_no_inputs(self, rng, tmp_path):
        snaps = SnapshotMatrix(
            states=rng.standard_normal((3, 4)),
            times=np.arange(4.0),
            inputs=np.zeros((0, 4)),
        )
        path = tmp_path / "snaps.csv"
        write_snapshots(snaps, path)
        back = read_snapshots(path)
        assert back.inputs.shape == (0, 4)
        np.testing.assert_array_equal(back.states, snaps.states)

    def test_extreme_values_survive(self, tmp_path):
        X = np.array([[1e-300, 1e300, np.pi, -0.0]])
        snaps = SnapshotMatrix(
            states=X, times=np.arange(4.0), inputs=np.zeros((0, 4))
        )
        path = tmp_path / "snaps.csv"
        write_snapshots(snaps, path)
        np.testing.assert_array_equal(read_snapshots(path).states, X)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# exactopinf-csv v1 basis\nt,x_1\n0,1\n")
        with pytest.raises(SchemaError) as excinfo:
            read_snapshots(path)
        assert excinfo.value.line == 1

    @pytest.mark.parametrize("header", ["t,x_1,u_1,x_2,x_3", "t,u_1,x_2,x_1,x_3"])
    def test_misnamed_columns_rejected(self, header, tmp_path):
        # the counts fit one input and three states; the names and order do not
        path = tmp_path / "snaps.csv"
        path.write_text(f"# exactopinf-csv v1 snapshots\n{header}\n0,1,2,3,4\n1,1,2,3,4\n")
        with pytest.raises(SchemaError, match="expected columns t, u_1..u_1, x_1..x_3") as excinfo:
            read_snapshots(path)
        assert excinfo.value.line == 2

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# exactopinf-csv v99 snapshots\nt,x_1\n0,1\n")
        with pytest.raises(SchemaError):
            read_snapshots(path)

    def test_short_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# exactopinf-csv v1 snapshots\nt,x_1,x_2\n0,1,2\n1,3\n")
        with pytest.raises(SchemaError) as excinfo:
            read_snapshots(path)
        assert excinfo.value.line == 4

    def test_non_numeric_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# exactopinf-csv v1 snapshots\nt,x_1\n0,abc\n")
        with pytest.raises(SchemaError) as excinfo:
            read_snapshots(path)
        assert excinfo.value.line == 3

    def test_empty_body_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# exactopinf-csv v1 snapshots\nt,x_1\n")
        with pytest.raises(SchemaError):
            read_snapshots(path)


class TestBasis:
    def test_round_trip_bit_exact(self, rng, tmp_path):
        X = rng.standard_normal((8, 12))
        basis = pod_basis(SnapshotMatrix(states=X, times=np.arange(12.0), inputs=np.zeros((0, 12))), 4)
        vpath = tmp_path / "V.csv"
        spath = tmp_path / "sv.csv"
        write_basis(basis, vpath, spath)
        np.testing.assert_array_equal(read_matrix(vpath, "basis"), basis.V)
        np.testing.assert_array_equal(
            read_matrix(spath, "singular-values")[:, 0], basis.singular_values
        )

    def test_singular_values_header_checked(self, rng, tmp_path):
        X = rng.standard_normal((4, 6))
        basis = pod_basis(SnapshotMatrix(states=X, times=np.arange(6.0), inputs=np.zeros((0, 6))), 2)
        vpath = tmp_path / "V.csv"
        spath = tmp_path / "sv.csv"
        write_basis(basis, vpath, spath)
        with pytest.raises(SchemaError):
            read_matrix(spath, "basis")  # swapped files have the wrong kinds


class TestOperator:
    def test_round_trip_bit_exact(self, rng, tmp_path):
        basis = MonomialBasis(n=3, degree_set=(0, 1, 2), n_u=2)
        op = AggregatedOperator(basis=basis, matrix=rng.standard_normal((3, basis.n_f)))
        path = tmp_path / "op.csv"
        write_operator(op, path)
        back = read_operator(path)
        np.testing.assert_array_equal(back.matrix, op.matrix)
        assert back.basis.degree_set == basis.degree_set
        assert back.basis.n_u == basis.n_u

    def test_missing_sidecar(self, rng, tmp_path):
        basis = MonomialBasis(n=2, degree_set=(1,))
        op = AggregatedOperator(basis=basis, matrix=rng.standard_normal((2, 2)))
        path = tmp_path / "op.csv"
        write_operator(op, path)
        (tmp_path / "op.csv.json").unlink()
        with pytest.raises(SchemaError, match="sidecar"):
            read_operator(path)

    @pytest.mark.parametrize(
        "text",
        [
            "{",
            "[1, 2]",
            '{"degree_set": [1], "n_u": 0}',
            '{"n": 2.0, "degree_set": [1], "n_u": 0}',
            '{"n": 2, "degree_set": ["1"], "n_u": 0}',
            '{"n": 2, "degree_set": [1], "n_u": true}',
            '{"n": 0, "degree_set": [1], "n_u": 0}',
            '{"n": 1000000, "degree_set": [40], "n_u": 0}',
            '{"n": ' + DIGITS_BEYOND_LIMIT + ', "degree_set": [1], "n_u": 0}',
        ],
        ids=[
            "malformed",
            "not-an-object",
            "missing-n",
            "float-n",
            "string-degree",
            "bool-n_u",
            "zero-n",
            "feature-count-overflow",
            "n-beyond-digit-limit",
        ],
    )
    def test_bad_sidecar_rejected(self, text, rng, tmp_path):
        basis = MonomialBasis(n=2, degree_set=(1,))
        path = tmp_path / "op.csv"
        write_operator(AggregatedOperator(basis=basis, matrix=rng.standard_normal((2, 2))), path)
        (tmp_path / "op.csv.json").write_text(text)
        with pytest.raises(SchemaError, match="op.csv.json"):
            read_operator(path)

    def test_shape_sidecar_mismatch(self, rng, tmp_path):
        basis = MonomialBasis(n=2, degree_set=(1,))
        op = AggregatedOperator(basis=basis, matrix=rng.standard_normal((2, 2)))
        path = tmp_path / "op.csv"
        write_operator(op, path)
        sidecar = tmp_path / "op.csv.json"
        sidecar.write_text(sidecar.read_text().replace('"n": 2', '"n": 3'))
        with pytest.raises(SchemaError):
            read_operator(path)


class TestEnsemble:
    def _make_ensemble(self, rng, scale=1.0):
        N, n = 6, 2
        from exactopinf.tensor_poly import monomial_count

        fom = from_dense_operators(
            {
                1: rng.standard_normal((N, N)),
                2: rng.standard_normal((N, monomial_count(N, 2))),
            },
            rng.standard_normal((N, 1)),
        )
        V = np.linalg.qr(rng.standard_normal((N, n)))[0]
        return generate_ensemble(fom, V, 0.01, scale)

    def test_round_trip_bit_exact(self, rng, tmp_path):
        ens = self._make_ensemble(rng)
        path = tmp_path / "ens.csv"
        write_ensemble(ens, path)
        back = read_ensemble(path)
        assert back.dt == ens.dt
        assert back.basis.degree_set == ens.basis.degree_set
        np.testing.assert_array_equal(back.derivatives, ens.derivatives)
        np.testing.assert_array_equal(back.P, ens.P)
        # the pairs follow from the layout and the scale, so equal layouts
        # and scales give equal pairs
        assert back.basis == ens.basis
        assert back.scale == ens.scale

    def test_scale_round_trip(self, rng, tmp_path):
        ens = self._make_ensemble(rng, scale=8.0)
        path = tmp_path / "ens.csv"
        write_ensemble(ens, path)
        back = read_ensemble(path)
        assert back.scale == 8.0
        # every state in the file is at amplitude 8
        rows = [line.split(",") for line in path.read_text().splitlines()[2:]]
        states = np.array([[float(v) for v in row[2 : 2 + back.basis.n]] for row in rows])
        np.testing.assert_array_equal(states.T, rank_ensuring_pairs(back.basis, 8.0)[0])
        np.testing.assert_array_equal(back.P, ens.P)

    @staticmethod
    def _drop_scale(path):
        sidecar = path.with_suffix(".csv.json")
        meta = json.loads(sidecar.read_text())
        meta.pop("scale", None)
        sidecar.write_text(json.dumps(meta))

    def test_sidecar_without_scale_reads_as_unit(self, rng, tmp_path):
        ens = self._make_ensemble(rng, scale=1.0)
        path = tmp_path / "ens.csv"
        write_ensemble(ens, path)
        self._drop_scale(path)
        assert read_ensemble(path).scale == 1.0

    def test_sidecar_without_scale_rejects_scaled_rows(self, rng, tmp_path):
        # read as 1.0, the missing scale no longer matches the states at 8
        ens = self._make_ensemble(rng, scale=8.0)
        path = tmp_path / "ens.csv"
        write_ensemble(ens, path)
        self._drop_scale(path)
        with pytest.raises(SchemaError, match="scale 1.0") as excinfo:
            read_ensemble(path)
        assert excinfo.value.line == 3

    @pytest.mark.parametrize("key", ["dt", "scale"])
    def test_integer_beyond_digit_limit_rejected(self, key, rng, tmp_path):
        # json.loads raises a plain ValueError for such an integer, with no
        # key or position, so the error names the sidecar
        path = tmp_path / "ens.csv"
        write_ensemble(self._make_ensemble(rng), path)
        sidecar = tmp_path / "ens.csv.json"
        meta = json.loads(sidecar.read_text())
        meta[key] = 0
        text = json.dumps(meta).replace(f'"{key}": 0', f'"{key}": {DIGITS_BEYOND_LIMIT}')
        sidecar.write_text(text)
        with pytest.raises(SchemaError, match="ens.csv.json"):
            read_ensemble(path)

    @pytest.mark.parametrize(
        "key,value",
        [
            ("dt", None),
            ("dt", "0.01"),
            ("scale", [8]),
            ("dt", float("nan")),
            ("dt", 0.0),
            ("dt", -0.01),
            ("scale", float("-inf")),
            ("scale", float("inf")),
            ("scale", 0),
            pytest.param("dt", 10**400, id="dt-beyond-float"),
        ],
    )
    def test_bad_ensemble_field_rejected(self, key, value, rng, tmp_path):
        ens = self._make_ensemble(rng)
        path = tmp_path / "ens.csv"
        write_ensemble(ens, path)
        sidecar = tmp_path / "ens.csv.json"
        meta = json.loads(sidecar.read_text())
        if value is None:
            del meta[key]
        else:
            meta[key] = value
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(SchemaError, match=repr(key)):
            read_ensemble(path)

    def test_round_trip_inference_identical(self, rng, tmp_path):
        ens = self._make_ensemble(rng)
        path = tmp_path / "ens.csv"
        write_ensemble(ens, path)
        a = infer(ens).operator.matrix
        b = infer(read_ensemble(path)).operator.matrix
        np.testing.assert_array_equal(a, b)

    def test_provenance_tags_in_file(self, rng, tmp_path):
        ens = self._make_ensemble(rng)
        path = tmp_path / "ens.csv"
        write_ensemble(ens, path)
        text = path.read_text()
        assert "state,1:1" in text  # degree-1 pair at the first unit vector
        assert "state,2:1.2" in text  # degree-2 mixed pair
        assert "input,1" in text

    def test_unknown_kind_reports_line(self, rng, tmp_path):
        ens = self._make_ensemble(rng)
        path = tmp_path / "ens.csv"
        write_ensemble(ens, path)
        lines = path.read_text().splitlines()
        lines[2] = lines[2].replace("state", "ghost", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError) as excinfo:
            read_ensemble(path)
        assert excinfo.value.line == 3

    @pytest.mark.parametrize("tag", ["x:1", "1:1.y", "z"])
    def test_bad_tag_reports_line(self, tag, rng, tmp_path):
        ens = self._make_ensemble(rng)
        path = tmp_path / "ens.csv"
        write_ensemble(ens, path)
        lines = path.read_text().splitlines()
        kind = "input" if tag == "z" else "state"
        row = next(k for k, line in enumerate(lines) if line.startswith(kind + ","))
        fields = lines[row].split(",")
        fields[1] = tag
        lines[row] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match=repr(tag)) as excinfo:
            read_ensemble(path)
        assert excinfo.value.line == row + 1

    @staticmethod
    def _set_field(row, column, value):
        fields = row.split(",")
        fields[column] = value
        return ",".join(fields)

    # each edit of the six data rows (pairs 1:1, 1:2, 2:1.1, 2:1.2, 2:2.2
    # and input 1 on lines 3..8) and the line the reader must name
    ROW_EDITS = {
        "missing": (lambda rows: rows[:1] + rows[2:], 4),
        "missing-last": (lambda rows: rows[:-1], 8),
        "duplicated": (lambda rows: rows[:2] + rows[1:], 5),
        "extra": (lambda rows: rows + rows[-1:], 9),
        "reordered": (lambda rows: rows[:2] + [rows[3], rows[2]] + rows[4:], 5),
        "edited-state": (
            lambda rows: rows[:3] + [TestEnsemble._set_field(rows[3], 2, "1.5")] + rows[4:],
            6,
        ),
        "edited-input": (
            lambda rows: rows[:5] + [TestEnsemble._set_field(rows[5], 4, "2")],
            8,
        ),
        "edited-tag": (
            lambda rows: [TestEnsemble._set_field(rows[0], 1, "1:2")] + rows[1:],
            3,
        ),
    }

    @pytest.mark.parametrize("edit", list(ROW_EDITS))
    def test_row_not_the_pair_reports_line(self, edit, rng, tmp_path):
        path = tmp_path / "ens.csv"
        write_ensemble(self._make_ensemble(rng), path)
        lines = path.read_text().splitlines()
        change, line = self.ROW_EDITS[edit]
        path.write_text("\n".join(lines[:2] + change(lines[2:])) + "\n")
        with pytest.raises(SchemaError) as excinfo:
            read_ensemble(path)
        assert excinfo.value.line == line

    def test_too_few_rows_rejected_before_pairs_are_built(self, rng, tmp_path, monkeypatch):
        # two of the six rows: the pairs of the layout are never built, so a
        # sidecar layout far larger than its file costs no memory
        path = tmp_path / "ens.csv"
        write_ensemble(self._make_ensemble(rng), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:4]) + "\n")

        def refuse(*args):
            raise AssertionError("rank_ensuring_pairs called")

        monkeypatch.setattr("exactopinf.serialize.rank_ensuring_pairs", refuse)
        with pytest.raises(SchemaError, match="expected 6 pair rows") as excinfo:
            read_ensemble(path)
        assert excinfo.value.line == 5

    def test_wrong_column_count_rejected(self, rng, tmp_path):
        ens = self._make_ensemble(rng)
        path = tmp_path / "ens.csv"
        write_ensemble(ens, path)
        sidecar = tmp_path / "ens.csv.json"
        sidecar.write_text(sidecar.read_text().replace('"n": 2', '"n": 3'))
        with pytest.raises(SchemaError) as excinfo:
            read_ensemble(path)
        assert excinfo.value.line == 2

