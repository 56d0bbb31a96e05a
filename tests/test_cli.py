"""Command-line interface: exit codes, file outputs, determinism."""

import json

import numpy as np
import pytest

from exactopinf.benchmarks import (
    BURGERS,
    CHAFEE_INFANTE,
    SPECS,
    apply_overrides,
    build,
    build_burgers,
    parse_config,
)
from exactopinf.cli import main
from exactopinf.diagnostics import build_report, relative_operator_error
from exactopinf.exact_opinf import (
    estimate_dt,
    generate_ensemble,
    infer,
    standard_opinf,
)
from exactopinf.fom import SnapshotMatrix, from_dense_operators, simulate
from exactopinf.galerkin import AggregatedOperator, intrusive_reduce
from exactopinf.pod import PodBasis, pod_basis
from exactopinf.serialize import (
    read_matrix,
    read_operator,
    write_basis,
    write_ensemble,
    write_operator,
    write_snapshots,
)
from exactopinf.tensor_poly import MonomialBasis, monomial_count, ordered_product


def _identity_snapshots(tmp_path, N=4):
    path = tmp_path / "snaps.csv"
    X = np.eye(N)
    write_snapshots(
        SnapshotMatrix(states=X, times=np.arange(float(N)), inputs=np.zeros((0, N))),
        path,
    )
    return path


class TestPodCommand:
    def test_identity_snapshots_leading_mode(self, tmp_path, capsys):
        snaps = _identity_snapshots(tmp_path)
        vpath = tmp_path / "V.csv"
        spath = tmp_path / "sv.csv"
        code = main(
            ["pod", str(snaps), "--n", "2",
             "--out-basis", str(vpath), "--out-singular-values", str(spath)]
        )
        assert code == 0
        V = read_matrix(vpath, "basis")
        np.testing.assert_allclose(V.T @ V, np.eye(2), atol=1e-12)
        singular_values = read_matrix(spath, "singular-values")[:, 0]
        np.testing.assert_allclose(singular_values, np.ones(2), atol=1e-12)

    def test_matches_library(self, rng, tmp_path):
        X = rng.standard_normal((20, 50))
        path = tmp_path / "snaps.csv"
        snaps = SnapshotMatrix(states=X, times=np.arange(50.0), inputs=np.zeros((0, 50)))
        write_snapshots(snaps, path)
        vpath = tmp_path / "V.csv"
        spath = tmp_path / "sv.csv"
        assert main(
            ["pod", str(path), "--n", "6",
             "--out-basis", str(vpath), "--out-singular-values", str(spath)]
        ) == 0
        ref = pod_basis(snaps, 6)
        np.testing.assert_array_equal(read_matrix(vpath, "basis"), ref.V)
        np.testing.assert_array_equal(
            read_matrix(spath, "singular-values")[:, 0], ref.singular_values
        )

    def test_rank_deficiency_exit_code(self, rng, tmp_path, capsys):
        X = np.outer(rng.standard_normal(5), rng.standard_normal(8))
        path = tmp_path / "snaps.csv"
        write_snapshots(
            SnapshotMatrix(states=X, times=np.arange(8.0), inputs=np.zeros((0, 8))),
            path,
        )
        code = main(["pod", str(path), "--n", "3"])
        assert code == 3
        out = json.loads(capsys.readouterr().out)
        assert out["error"] == "rank-deficiency"
        assert out["numerical_rank"] == 1

    def test_schema_violation_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("# exactopinf-csv v1 snapshots\nt,x_1,x_2\n0,1,2\n1,3\n")
        code = main(["pod", str(bad), "--n", "1"])
        assert code == 2
        assert "line 4" in capsys.readouterr().err

    def test_oversized_n_exit_code(self, tmp_path, capsys):
        snaps = _identity_snapshots(tmp_path)
        assert main(["pod", str(snaps), "--n", "500"]) == 2

    def test_zero_n_rejected_at_parse_time(self, tmp_path, capsys):
        snaps = _identity_snapshots(tmp_path)
        vpath = tmp_path / "V.csv"
        with pytest.raises(SystemExit) as excinfo:
            main(["pod", str(snaps), "--n", "0", "--out-basis", str(vpath)])
        assert excinfo.value.code == 2
        assert "must be positive" in capsys.readouterr().err
        assert not vpath.exists()


class TestInferCommand:
    def test_ensemble_round_trip_matches_in_memory(self, rng, tmp_path, capsys):
        N, n = 6, 2
        fom = from_dense_operators(
            {
                1: rng.standard_normal((N, N)),
                2: rng.standard_normal((N, monomial_count(N, 2))),
            }
        )
        V = np.linalg.qr(rng.standard_normal((N, n)))[0]
        ens = generate_ensemble(fom, V, 0.01)
        epath = tmp_path / "ens.csv"
        write_ensemble(ens, epath)
        opath = tmp_path / "op.csv"
        assert main(["infer", "--ensemble", str(epath), "--out", str(opath)]) == 0
        np.testing.assert_array_equal(
            read_operator(opath).matrix, infer(ens).operator.matrix
        )
        meta = json.loads(capsys.readouterr().out)
        assert meta["residual"] < 1e-10

    def test_builtin_benchmark_matches_library(self, burgers_data, tmp_path, capsys):
        spec = burgers_data["spec"]
        pod = burgers_data["pod"]
        dt = estimate_dt(burgers_data["snaps"], pod, spec.degree_set, spec.n_u)
        vpath = tmp_path / "V.csv"
        spath = tmp_path / "sv.csv"
        write_basis(pod, vpath, spath)
        opath = tmp_path / "op.csv"
        code = main(
            ["infer", "--benchmark", "burgers", "--basis", str(vpath),
             "--n", "5", "--dt", str(dt), "--out", str(opath)]
        )
        assert code == 0
        ref = infer(
            generate_ensemble(burgers_data["fom"], pod.matrix(5), dt, scale=spec.state_scale)
        )
        np.testing.assert_array_equal(
            read_operator(opath).matrix, ref.operator.matrix
        )

    def test_schema_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "ens.csv"
        bad.write_text("# exactopinf-csv v1 ensemble\nkind,tag\n")
        bad.with_suffix(".csv.json").write_text(
            json.dumps({"version": 1, "n": 2, "degree_set": [1], "n_u": 0, "dt": 0.1})
        )
        code = main(["infer", "--ensemble", str(bad), "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_benchmark_requires_basis_and_dt(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["infer", "--benchmark", "burgers", "--out", "x.csv"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("option", [["--dt", "5"], ["--basis", "V.csv"]], ids=["dt", "basis"])
    def test_ensemble_rejects_model_options(self, option, rng, tmp_path, capsys):
        # an ensemble file fixes dt and the lifted states; the option would
        # be ignored
        fom = from_dense_operators({1: rng.standard_normal((4, 4))})
        epath = tmp_path / "ens.csv"
        write_ensemble(generate_ensemble(fom, np.eye(4), 0.01), epath)
        opath = tmp_path / "op.csv"
        with pytest.raises(SystemExit) as excinfo:
            main(["infer", "--ensemble", str(epath), *option, "--out", str(opath)])
        assert excinfo.value.code == 2
        assert f"{option[0]} cannot be used with --ensemble" in capsys.readouterr().err
        assert not opath.exists()

    @pytest.mark.parametrize("k", [1, 3])
    def test_ensemble_n_equals_narrower_file(self, k, rng, tmp_path):
        # one file serves every width: --n k cuts the width-k ensemble from
        # it, bitwise the one generated and written at width k
        N, degrees = 6, (1, 2, 3)
        fom = from_dense_operators(
            {i: 0.3 * rng.standard_normal((N, monomial_count(N, i))) for i in degrees},
            rng.standard_normal((N, 1)),
        )
        V = np.linalg.qr(rng.standard_normal((N, 4)))[0]
        wide, width_k = tmp_path / "wide.csv", tmp_path / "width_k.csv"
        write_ensemble(generate_ensemble(fom, V, 0.01, 2.0), wide)
        write_ensemble(generate_ensemble(fom, V[:, :k], 0.01, 2.0), width_k)
        cut, fresh = tmp_path / "cut.csv", tmp_path / "fresh.csv"
        assert main(["infer", "--ensemble", str(wide), "--n", str(k), "--out", str(cut)]) == 0
        assert main(["infer", "--ensemble", str(width_k), "--out", str(fresh)]) == 0
        assert read_operator(cut).basis == read_operator(fresh).basis
        assert np.array_equal(read_operator(cut).matrix, read_operator(fresh).matrix)

    def test_ensemble_n_beyond_width_exit_code(self, rng, tmp_path, capsys):
        fom = from_dense_operators({1: rng.standard_normal((4, 4))})
        epath = tmp_path / "ens.csv"
        write_ensemble(generate_ensemble(fom, np.eye(4)[:, :2], 0.01), epath)
        opath = tmp_path / "op.csv"
        code = main(["infer", "--ensemble", str(epath), "--n", "3", "--out", str(opath)])
        assert code == 2
        assert "width 3 is outside the ensemble's widths 1..2" in capsys.readouterr().err
        assert not opath.exists()

    def test_n_beyond_basis_exit_code(self, tmp_path, capsys):
        vpath = tmp_path / "V.csv"
        V = np.eye(BURGERS.N)[:, :4]
        write_basis(PodBasis(V=V, singular_values=np.ones(4)), vpath, tmp_path / "sv.csv")
        opath = tmp_path / "op.csv"
        code = main(
            ["infer", "--benchmark", "burgers", "--basis", str(vpath),
             "--dt", "1e-3", "--n", "30", "--out", str(opath)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "30" in err and "4 columns" in err
        assert not opath.exists()

    def test_basis_rows_must_match_model_exit_code(self, tmp_path, capsys):
        vpath = tmp_path / "V.csv"
        V = np.eye(BURGERS.N + 1)[:, :3]
        write_basis(PodBasis(V=V, singular_values=np.ones(3)), vpath, tmp_path / "sv.csv")
        opath = tmp_path / "op.csv"
        code = main(
            ["infer", "--benchmark", "burgers", "--basis", str(vpath),
             "--dt", "1e-3", "--out", str(opath)]
        )
        assert code == 2
        assert f"model dimension is {BURGERS.N}" in capsys.readouterr().err
        assert not opath.exists()

    def test_bad_pair_tag_exit_code(self, rng, tmp_path, capsys):
        fom = from_dense_operators({1: rng.standard_normal((4, 4))})
        ens = generate_ensemble(fom, np.eye(4)[:, :2], 0.01)
        epath = tmp_path / "ens.csv"
        write_ensemble(ens, epath)
        epath.write_text(epath.read_text().replace("state,1:1,", "state,x:1,"))
        code = main(["infer", "--ensemble", str(epath), "--out", str(tmp_path / "op.csv")])
        assert code == 2
        assert "line 3" in capsys.readouterr().err

    def test_missing_row_exit_code(self, rng, tmp_path, capsys):
        # the rows must be the pairs of the sidecar's layout, one per feature
        fom = from_dense_operators({1: rng.standard_normal((4, 4))})
        epath = tmp_path / "ens.csv"
        write_ensemble(generate_ensemble(fom, np.eye(4)[:, :2], 0.01), epath)
        lines = epath.read_text().splitlines()
        epath.write_text("\n".join(lines[:2] + lines[3:]) + "\n")
        opath = tmp_path / "op.csv"
        code = main(["infer", "--ensemble", str(epath), "--out", str(opath)])
        assert code == 2
        assert "line 3" in capsys.readouterr().err
        assert not opath.exists()

    def test_infinite_cond_p_is_strict_json(self, rng, tmp_path, capsys):
        # at amplitude 2**-30 the degree-3 rows of P are 2**-90 times the
        # linear ones, so cond_P is infinite; it is written as "inf"
        N, n = 6, 3
        fom = from_dense_operators(
            {i: rng.standard_normal((N, monomial_count(N, i))) for i in (1, 3)}
        )
        V = np.linalg.qr(rng.standard_normal((N, n)))[0]
        epath = tmp_path / "ens.csv"
        write_ensemble(generate_ensemble(fom, V, 0.01, 2.0**-30), epath)
        code = main(["infer", "--ensemble", str(epath), "--out", str(tmp_path / "op.csv")])
        assert code == 0

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        document = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert document["cond_P"] == "inf" and float(document["cond_P"]) == np.inf

    def test_huge_sidecar_layout_exit_code(self, tmp_path, capsys):
        # one row against the 7.9e9 pairs of n = 30, degree 12: rejected as a
        # row count, not by building 1.72 TiB of pairs
        n = 30
        epath = tmp_path / "ens.csv"
        header = ["kind", "tag"] + [f"xbar_{j}" for j in range(1, n + 1)]
        header += [f"xdot_{j}" for j in range(1, n + 1)]
        row = ["state", "12:" + ".".join(["1"] * 12), "12"] + ["0"] * (2 * n - 1)
        epath.write_text(
            "# exactopinf-csv v1 ensemble\n" + ",".join(header) + "\n" + ",".join(row) + "\n"
        )
        sidecar = {"n": n, "degree_set": [12], "n_u": 0, "dt": 0.1, "scale": 1.0}
        (tmp_path / "ens.csv.json").write_text(json.dumps(sidecar))
        opath = tmp_path / "op.csv"
        code = main(["infer", "--ensemble", str(epath), "--out", str(opath)])
        assert code == 2
        err = capsys.readouterr().err
        assert "line 4" in err and "got 1" in err
        assert not opath.exists()

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_step_beyond_finite_range_exit_code(self, tmp_path, capsys):
        vpath = tmp_path / "V.csv"
        V = np.eye(BURGERS.N)[:, :3]
        write_basis(PodBasis(V=V, singular_values=np.ones(3)), vpath, tmp_path / "sv.csv")
        opath = tmp_path / "op.csv"
        code = main(
            ["infer", "--benchmark", "burgers", "--basis", str(vpath),
             "--dt", "1e307", "--out", str(opath)]
        )
        assert code == 2
        assert "left the finite range" in capsys.readouterr().err
        assert not opath.exists()

    def test_threads_flag_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["infer", "--ensemble", str(tmp_path / "ens.csv"),
                  "--threads", "2", "--out", str(tmp_path / "op.csv")])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --threads" in capsys.readouterr().err

    def test_sidecar_without_dt_exit_code(self, rng, tmp_path, capsys):
        fom = from_dense_operators({1: rng.standard_normal((4, 4))})
        ens = generate_ensemble(fom, np.eye(4)[:, :2], 0.01)
        epath = tmp_path / "ens.csv"
        write_ensemble(ens, epath)
        sidecar = tmp_path / "ens.csv.json"
        meta = json.loads(sidecar.read_text())
        del meta["dt"]
        sidecar.write_text(json.dumps(meta))
        code = main(["infer", "--ensemble", str(epath), "--out", str(tmp_path / "op.csv")])
        assert code == 2
        assert "missing key 'dt'" in capsys.readouterr().err

    def test_non_finite_sidecar_exit_code(self, rng, tmp_path, capsys):
        fom = from_dense_operators({1: rng.standard_normal((4, 4))})
        epath = tmp_path / "ens.csv"
        write_ensemble(generate_ensemble(fom, np.eye(4)[:, :2], 0.01), epath)
        sidecar = tmp_path / "ens.csv.json"
        meta = json.loads(sidecar.read_text())
        meta.update(dt=float("nan"), scale=float("-inf"))
        sidecar.write_text(json.dumps(meta))
        opath = tmp_path / "op.csv"
        code = main(["infer", "--ensemble", str(epath), "--out", str(opath)])
        assert code == 2
        err = capsys.readouterr().err
        assert str(sidecar) in err and "key 'dt' must be positive and finite" in err
        assert not opath.exists()

    def test_zero_column_basis_exit_code(self, tmp_path, capsys):
        vpath = tmp_path / "V.csv"
        vpath.write_text("# exactopinf-csv v1 basis\n" + "\n" * (1 + CHAFEE_INFANTE.N))
        opath = tmp_path / "op.csv"
        code = main(
            ["infer", "--benchmark", "chafee-infante", "--basis", str(vpath),
             "--dt", "1e-5", "--out", str(opath)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert str(vpath) in err and "line 2" in err
        assert not opath.exists()

    def test_unwritable_out_exit_code(self, rng, tmp_path, capsys):
        fom = from_dense_operators({1: rng.standard_normal((4, 4))})
        epath = tmp_path / "ens.csv"
        write_ensemble(generate_ensemble(fom, np.eye(4)[:, :2], 0.01), epath)
        opath = tmp_path / "missing" / "op.csv"
        code = main(["infer", "--ensemble", str(epath), "--out", str(opath)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and str(opath) in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["infer", "--ensemble", "ens.csv", "--dt", "0"],
        ["infer", "--benchmark", "burgers", "--basis", "V.csv", "--dt=-1e-3"],
        ["infer", "--benchmark", "burgers", "--basis", "V.csv", "--dt", "1e-3", "--n", "0"],
        ["experiment", "burgers", "--dt", "-1"],
        ["experiment", "burgers", "--n-max", "0"],
    ],
    ids=["infer-dt-zero", "infer-dt-negative", "infer-n-zero", "experiment-dt", "experiment-n-max"],
)
def test_non_positive_value_rejected_at_parse_time(argv, tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as excinfo:
        main(argv + ["--out", str(out)])
    assert excinfo.value.code == 2
    assert "must be positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["experiment", "chafee-infante", "--freeze-right"],
        ["infer", "--ensemble", "ens.csv", "--degrees", "1,2", "--out", "op.csv"],
        ["infer", "--ensemble", "ens.csv", "--n-u", "2", "--out", "op.csv"],
        ["experiment", "burgers", "--baseline", "--regularization", "1"],
    ],
    ids=["freeze-right", "degrees", "n-u", "regularization"],
)
def test_deleted_option_rejected(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["pod", "MISSING.csv", "--n", "1"],
        ["infer", "--benchmark", "burgers", "--basis", "MISSING.csv", "--dt", "1e-3",
         "--out", "op.csv"],
    ],
    ids=["pod", "infer-basis"],
)
def test_missing_input_file_exit_code(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    assert code == 2
    assert "MISSING.csv" in capsys.readouterr().err


def _write_valid_inputs(rng):
    """A Chafee-Infante-sized basis V.csv, and a small model's ensemble E.csv,
    its operator OP.csv and REF.csv, and identity snapshots S.csv, in the
    working directory."""
    V = np.eye(CHAFEE_INFANTE.N)[:, :2]
    write_basis(PodBasis(V=V, singular_values=np.ones(2)), "V.csv", "SV.csv")
    fom = from_dense_operators({1: rng.standard_normal((4, 4))})
    ens = generate_ensemble(fom, np.eye(4)[:, :2], 0.01)
    write_ensemble(ens, "E.csv")
    op = infer(ens).operator
    write_operator(op, "OP.csv")
    write_operator(op, "REF.csv")
    write_snapshots(
        SnapshotMatrix(states=np.eye(4), times=np.arange(4.0), inputs=np.zeros((0, 4))), "S.csv"
    )


def _set_field(path, row, column, text):
    """Replace one field of data row ``row`` (line ``row + 3``) of a CSV."""
    with open(path) as fh:
        lines = fh.read().split("\n")
    fields = lines[row + 2].split(",")
    fields[column] = text
    lines[row + 2] = ",".join(fields)
    with open(path, "w") as fh:
        fh.write("\n".join(lines))


POD_ARGV = ["pod", "S.csv", "--n", "1", "--out-basis", "B.csv", "--out-singular-values", "W.csv"]


@pytest.mark.parametrize(
    "bad, row, column, text, argv",
    [
        ("V.csv", 5, 1, "nan",
         ["infer", "--benchmark", "chafee-infante", "--basis", "V.csv", "--dt", "1e-5",
          "--out", "OUT.csv"]),
        ("E.csv", 0, -1, "nan", ["infer", "--ensemble", "E.csv", "--out", "OUT.csv"]),
        ("OP.csv", 1, 0, "inf", ["diagnose", "OP.csv", "--out", "OUT.json"]),
        ("OP.csv", 1, 0, "-inf",
         ["diagnose", "REF.csv", "--reference", "OP.csv", "--out", "OUT.json"]),
        ("S.csv", 1, 0, "0", POD_ARGV),
        ("S.csv", 1, 2, "nan", POD_ARGV),
    ],
    ids=["basis-nan", "ensemble-nan", "operator-inf", "reference-inf", "repeated-time",
         "snapshot-nan"],
)
def test_bad_file_content_exit_code(bad, row, column, text, argv, rng, tmp_path, monkeypatch,
                                    capsys):
    monkeypatch.chdir(tmp_path)
    _write_valid_inputs(rng)
    _set_field(bad, row, column, text)
    files = sorted(tmp_path.iterdir())
    code = main(argv)
    assert code == 2
    assert bad in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == files


class TestDiagnoseCommand:
    def test_report_fields(self, rng, tmp_path, capsys):
        fom, _, x0 = build_burgers()
        V = pod_basis(simulate(fom, x0, None, BURGERS.dt_pod, 200), 3)
        red = intrusive_reduce(fom, V.matrix(3))
        from exactopinf.serialize import write_operator

        opath = tmp_path / "op.csv"
        write_operator(red, opath)
        jpath = tmp_path / "report.json"
        code = main(["diagnose", str(opath), "--reference", str(opath), "--out", str(jpath)])
        assert code == 0
        report = json.loads(jpath.read_text())
        assert report["relative_operator_error"] == 0.0
        assert report["energy_violation_scaled"] < 1e-11
        assert report["symmetry_violation"] < 1e-11
        assert min(report["diffusion_spectrum"]) > -1e-10

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_inferred_zero_quadratic_block_matches_build_report(
        self, chafee_data, n, tmp_path, capsys
    ):
        # Chafee-Infante has no quadratic term: inference fills the block
        # with rounding, so the energy violation must be scaled by the whole
        # operator, as build_report does
        spec = chafee_data["spec"]
        pod = chafee_data["pod"]
        dt = estimate_dt(chafee_data["snaps"], pod, spec.degree_set, spec.n_u)
        result = infer(
            generate_ensemble(chafee_data["fom"], pod.matrix(n), dt, scale=spec.state_scale)
        )
        ref = intrusive_reduce(chafee_data["fom"], pod.matrix(n))
        expected = build_report(result.operator, ref, result.cond_P, n)["energy_violation"]
        from exactopinf.serialize import write_operator

        opath = tmp_path / "op.csv"
        write_operator(result.operator, opath)
        assert main(["diagnose", str(opath)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["energy_violation_scaled"] == expected
        assert expected < 1e-12

    @pytest.mark.parametrize(
        "reference, message",
        [
            (np.ones((3, 3)), "operators use different feature layouts"),
            (np.zeros((2, 2)), "relative error undefined"),
        ],
        ids=["other-layout", "all-zero"],
    )
    def test_bad_reference_exit_code(self, reference, message, rng, tmp_path, capsys):
        from exactopinf.galerkin import AggregatedOperator
        from exactopinf.tensor_poly import MonomialBasis

        opath, rpath = tmp_path / "op.csv", tmp_path / "ref.csv"
        basis = MonomialBasis(n=2, degree_set=(1,))
        write_operator(AggregatedOperator(basis, rng.standard_normal((2, 2))), opath)
        ref_basis = MonomialBasis(n=reference.shape[0], degree_set=(1,))
        write_operator(AggregatedOperator(ref_basis, reference), rpath)
        jpath = tmp_path / "report.json"
        code = main(["diagnose", str(opath), "--reference", str(rpath), "--out", str(jpath)])
        assert code == 2
        err = capsys.readouterr().err
        assert str(rpath) in err and message in err
        assert not jpath.exists()

    def test_unwritable_out_exit_code(self, tmp_path, capsys):
        opath = tmp_path / "op.csv"
        write_operator(AggregatedOperator(MonomialBasis(n=2, degree_set=(1,)), np.eye(2)), opath)
        jpath = tmp_path / "missing" / "report.json"
        code = main(["diagnose", str(opath), "--out", str(jpath)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and str(jpath) in captured.err

    def test_missing_sidecar_exit_code(self, tmp_path, capsys):
        bogus = tmp_path / "op.csv"
        bogus.write_text("# exactopinf-csv v1 operator\ncol_1\n0\n")
        assert main(["diagnose", str(bogus)]) == 2

    def test_malformed_sidecar_exit_code(self, tmp_path, capsys):
        bogus = tmp_path / "op.csv"
        bogus.write_text("# exactopinf-csv v1 operator\ncol_1\n0\n")
        (tmp_path / "op.csv.json").write_text('{"n": 1, "degree_set": [1]')
        assert main(["diagnose", str(bogus)]) == 2
        assert "op.csv.json" in capsys.readouterr().err


class TestExperimentCommand:
    def test_burgers_small_sweep(self, tmp_path, capsys):
        out = tmp_path / "results"
        code = main(
            ["experiment", "burgers", "--n-max", "3", "--out", str(out)]
        )
        assert code == 0
        for fname in (
            "dt_estimate.csv",
            "operator_errors.csv",
            "cond_P.csv",
            "energy_violation.csv",
            "symmetry_violation.csv",
            "spectra.csv",
        ):
            assert (out / fname).exists(), fname
        body = (out / "operator_errors.csv").read_text().splitlines()
        assert len(body) == 2 + 3  # header comment, column names, one row per n
        errs = [float(line.split(",")[2]) for line in body[2:]]
        assert max(errs) < 1e-9

    def test_deterministic_outputs(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["experiment", "burgers", "--n-max", "2", "--out", str(a)]) == 0
        assert main(["experiment", "burgers", "--n-max", "2", "--out", str(b)]) == 0
        for fname in ("operator_errors.csv", "cond_P.csv", "spectra.csv"):
            assert (a / fname).read_bytes() == (b / fname).read_bytes(), fname

    def test_out_is_a_file_exit_code(self, tmp_path, capsys):
        out = tmp_path / "r"
        out.write_text("")
        code = main(["experiment", "burgers", "--n-max", "1", "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and str(out) in captured.err

    def test_out_of_range_n_requires_force(self, tmp_path, capsys):
        code = main(
            ["experiment", "burgers", "--n-max", "99", "--out", str(tmp_path / "r")]
        )
        assert code == 2
        assert "--force" in capsys.readouterr().err

    def test_unknown_benchmark(self, tmp_path, capsys):
        # rejected at parse time, before any file is read or written
        for argv in (
            ["experiment", "heat-cube", "--out", str(tmp_path / "r")],
            ["infer", "--benchmark", "heat-cube", "--basis", str(tmp_path / "V.csv"),
             "--dt", "1e-3", "--out", str(tmp_path / "O.csv")],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            assert "unknown benchmark 'heat-cube'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_config_override(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("N = 32\nT = 0.01\n")
        out = tmp_path / "r"
        code = main(
            ["experiment", "burgers", "--n-max", "2", "--out", str(out),
             "--config", str(cfg)]
        )
        assert code == 0

    def test_unused_config_key_exit_code(self, tmp_path, capsys):
        # Burgers has no c1 or c2; its builder would ignore them
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("c1 = 5\nc2 = -3\n")
        code = main(
            ["experiment", "burgers", "--n-max", "2",
             "--out", str(tmp_path / "r"), "--config", str(cfg)]
        )
        assert code == 2
        assert "burgers has no parameter 'c1'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_bad_config_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("bogus = 1\n")
        code = main(
            ["experiment", "burgers", "--n-max", "2",
             "--out", str(tmp_path / "r"), "--config", str(cfg)]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "text",
        [
            "dt = -1",
            "N = 0",
            "dt = nan",
            "T = 0",
            "T = inf",
            "c1 = nan",
            "c2 = -inf",
            "N = 1.5",
            "dt = abc",
        ],
    )
    def test_out_of_range_config_value_exit_code(self, text, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"# override\n{text}\n")
        out = tmp_path / "r"
        code = main(
            ["experiment", "burgers", "--n-max", "2", "--out", str(out), "--config", str(cfg)]
        )
        assert code == 2
        assert f"{cfg}:2: {text.split()[0]} must be" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize(
        "text, message",
        [
            # K_pod rounds to 0: a one-column trajectory
            ("T = 1e-6", "need at least two snapshot columns"),
            # one grid point: the periodic differences vanish
            ("N = 1", "trajectory is constant"),
        ],
    )
    def test_no_step_size_estimate_exit_code(self, text, message, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"{text}\n")
        out = tmp_path / "r"
        code = main(
            ["experiment", "burgers", "--n-max", "1", "--out", str(out), "--config", str(cfg)]
        )
        assert code == 2
        assert message in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == [cfg, out]
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("N", [1, 2])
    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_tiny_grid_runs_or_exits_2(self, name, N, tmp_path):
        # one or two cells either run or stop at the step-size estimate with
        # exit 2, never with a traceback
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"N = {N}\n")
        argv = ["experiment", name, "--n-max", "1", "--out", str(tmp_path / "r"), "--config", str(cfg)]
        assert main(argv) in (0, 2)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_step_beyond_finite_range_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("T = 0.05\n")
        code = main(
            ["experiment", "burgers", "--n-max", "2", "--dt", "1e307",
             "--out", str(tmp_path / "r"), "--config", str(cfg)]
        )
        assert code == 2
        assert "single step failed for pair" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_diverging_trajectory_exit_code(self, tmp_path, capsys):
        # explicit Euler at 100 times the bundled step blows up within steps
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("dt = 0.01\n")
        out = tmp_path / "r"
        code = main(["experiment", "burgers", "--out", str(out), "--config", str(cfg)])
        assert code == 2
        assert "failed" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_n_max_beyond_snapshots_exit_code(self, tmp_path, capsys):
        # T = 0.01 at dt = 1e-4 gives 101 snapshot columns, fewer than 200
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("T = 0.01\n")
        out = tmp_path / "r"
        code = main(
            ["experiment", "burgers", "--n-max", "200", "--force", "--out", str(out),
             "--config", str(cfg)]
        )
        assert code == 2
        assert "n_max must be in 1..101" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_baseline_errors_written(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("T = 0.05\n")
        out = tmp_path / "r"
        code = main(
            ["experiment", "burgers", "--n-max", "2", "--out", str(out),
             "--baseline", "--config", str(cfg)]
        )
        assert code == 0
        lines = (out / "baseline_errors.csv").read_text().splitlines()
        assert len(lines) == 2 + 2
        assert lines[1] == "n,relative_error,rank,cond_P"
        # the rank and cond_P of standard_opinf on the same basis, projected in fixed order
        spec = apply_overrides(BURGERS, parse_config(cfg))
        fom, signal, x0 = build(spec)
        snaps = simulate(fom, x0, signal, spec.dt_pod, spec.K_pod, scheme=spec.scheme)
        pod = pod_basis(snaps, 2)
        for n, line in enumerate(lines[2:], start=1):
            V = pod.matrix(n)
            reduced = SnapshotMatrix(states=ordered_product(V, snaps.states), times=snaps.times, inputs=snaps.inputs)
            ls = standard_opinf(reduced, MonomialBasis(n=n, degree_set=spec.degree_set))
            row = line.split(",")
            assert (int(row[0]), int(row[2]), float(row[3])) == (n, ls.rank, ls.cond_P)
