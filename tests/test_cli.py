import json

import numpy as np
import pytest

import golazo as gz
from golazo import cli
from golazo import data as dio
from golazo.errors import MaxIterationsExceededError

from oracles import loop_kendall_tau, near_collinear_correlation, random_correlation


@pytest.fixture
def cov_csv(tmp_path):
    rng = np.random.default_rng(0)
    s = random_correlation(rng, 4)
    path = tmp_path / "S.csv"
    dio.write_csv_matrix(path, s)
    return path, s


@pytest.fixture
def data_csv(tmp_path):
    rng = np.random.default_rng(1)
    x = rng.multivariate_normal(np.zeros(3), np.eye(3) + 0.4, size=80)
    path = tmp_path / "X.csv"
    np.savetxt(path, x, delimiter=",", fmt="%.17g")
    return path, x


def run(argv):
    return cli.main([str(a) for a in argv])


class TestFit:
    def test_glasso_outputs(self, cov_csv, tmp_path):
        path, s = cov_csv
        out = tmp_path / "out"
        code = run(["fit", "--input", path, "--input-kind", "covariance",
                    "--out", out, "--preset", "glasso", "--rho", "0.1",
                    "--n", "50"])
        assert code == 0
        khat = dio.read_csv_matrix(out / "Khat.csv")
        ref = gz.fit(s, gz.glasso_bounds(0.1, 4))
        assert np.max(np.abs(khat - ref.khat)) < 1e-12
        summary = json.loads((out / "summary.json").read_text())
        assert summary["edgeCount"] == ref.edge_count
        assert summary["dualGap"] <= 1e-8
        assert summary["ebic"] is not None
        edges = (out / "edges.txt").read_text().splitlines()
        assert len(edges) == ref.edge_count

    def test_mtp2_reports_m_matrix(self, cov_csv, tmp_path):
        path, _ = cov_csv
        out = tmp_path / "out"
        code = run(["fit", "--input", path, "--input-kind", "covariance",
                    "--out", out, "--preset", "mtp2"])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["mMatrix"] is True

    def test_ggm_with_graph(self, cov_csv, tmp_path):
        path, s = cov_csv
        graph_file = tmp_path / "g.txt"
        graph_file.write_text("1 2\n3 4\n")
        out = tmp_path / "out"
        code = run(["fit", "--input", path, "--input-kind", "covariance",
                    "--out", out, "--preset", "ggm", "--graph", graph_file])
        assert code == 0
        khat = dio.read_csv_matrix(out / "Khat.csv")
        assert abs(khat[0, 2]) < 1e-6

    def test_graphml_flag(self, cov_csv, tmp_path):
        path, _ = cov_csv
        out = tmp_path / "out"
        code = run(["fit", "--input", path, "--input-kind", "covariance",
                    "--out", out, "--preset", "glasso", "--rho", "0.05",
                    "--graphml"])
        assert code == 0
        assert (out / "graph.graphml").exists()

    def test_custom_bounds_files(self, cov_csv, tmp_path):
        path, s = cov_csv
        lo = np.zeros((4, 4))
        hi = np.full((4, 4), np.inf)
        np.fill_diagonal(hi, 0.0)
        lo_f, hi_f = tmp_path / "L.csv", tmp_path / "U.csv"
        dio.write_csv_matrix(lo_f, lo)
        dio.write_csv_matrix(hi_f, hi)
        out = tmp_path / "out"
        code = run(["fit", "--input", path, "--input-kind", "covariance",
                    "--out", out, "--bounds-l", lo_f, "--bounds-u", hi_f])
        assert code == 0
        khat = dio.read_csv_matrix(out / "Khat.csv")
        ref = gz.fit(s, gz.mtp2_bounds(4))
        assert np.max(np.abs(khat - ref.khat)) < 1e-12


class TestExitCodes:
    def test_usage_missing_rho(self, cov_csv, tmp_path):
        path, _ = cov_csv
        code = run(["fit", "--input", path, "--input-kind", "covariance",
                    "--out", tmp_path / "o", "--preset", "glasso"])
        assert code == cli.EXIT_USAGE

    def test_usage_no_preset(self, cov_csv, tmp_path):
        path, _ = cov_csv
        code = run(["fit", "--input", path, "--input-kind", "covariance",
                    "--out", tmp_path / "o"])
        assert code == cli.EXIT_USAGE

    def test_usage_bad_flag(self):
        assert run(["fit", "--nope"]) == cli.EXIT_USAGE

    def test_max_sweeps_exit(self, tmp_path):
        rng = np.random.default_rng(5)
        s = random_correlation(rng, 8)
        path = tmp_path / "S.csv"
        dio.write_csv_matrix(path, s)
        code = run(["fit", "--input", path, "--input-kind", "covariance",
                    "--out", tmp_path / "o", "--preset", "glasso",
                    "--rho", "0.01", "--tol", "1e-15", "--max-sweeps", "1"])
        assert code == cli.EXIT_MAX_SWEEPS

    def test_no_feasible_start_exit(self, tmp_path):
        s = np.array([[1.0, 1.0], [1.0, 1.0]])
        path = tmp_path / "S.csv"
        dio.write_csv_matrix(path, s)
        graph_file = tmp_path / "g.txt"
        graph_file.write_text("1 2\n")
        # Singular S with a positive-glasso start blocked by S12 = sqrt(S11 S22).
        code = run(["fit", "--input", path, "--input-kind", "covariance",
                    "--out", tmp_path / "o", "--preset", "positive",
                    "--rho", "0.1"])
        assert code == cli.EXIT_NO_FEASIBLE_START

    def test_near_collinear_mtp2_exit(self, tmp_path, capsys):
        path = tmp_path / "R.csv"
        dio.write_csv_matrix(path, near_collinear_correlation(6e-15))
        code = run(["fit", "--input", path, "--input-kind", "correlation",
                    "--out", tmp_path / "o", "--preset", "mtp2"])
        assert code == cli.EXIT_NO_FEASIBLE_START == 2
        assert "degenerate correlation at pair (0, 1)" in capsys.readouterr().err

    def test_non_finite_input_is_usage(self, tmp_path, capsys):
        s = np.full((3, 3), 0.2)
        np.fill_diagonal(s, 1.0)
        s[0, 2] = s[2, 0] = np.inf
        path = tmp_path / "S.csv"
        dio.write_csv_matrix(path, s)
        code = run(["fit", "--input", path, "--input-kind", "covariance",
                    "--out", tmp_path / "o", "--preset", "glasso", "--rho", "0.1"])
        assert code == cli.EXIT_USAGE
        assert "non-finite" in capsys.readouterr().err

    def test_qp_iteration_limit_exit(self, cov_csv, tmp_path, monkeypatch, capsys):
        def stuck(*args, **kwargs):
            raise MaxIterationsExceededError(np.zeros(3))

        monkeypatch.setattr(cli, "fit", stuck)
        path, _ = cov_csv
        code = run(["fit", "--input", path, "--input-kind", "covariance",
                    "--out", tmp_path / "o", "--preset", "glasso", "--rho", "0.1"])
        assert code == cli.EXIT_QP_ITERATIONS == 7
        assert "MaxIterationsExceeded: box-QP active-set iteration limit" in capsys.readouterr().err

    @pytest.mark.parametrize("text, lineno", [("1 2\n3\n", 2), ("# 0-based\n0 1\n", 2),
                                              ("1 2\n2 x\n", 2), ("1 2 3\n", 1),
                                              ("1 5\n", 1)])
    def test_malformed_edge_list_is_usage(self, cov_csv, tmp_path, capsys, text, lineno):
        path, _ = cov_csv
        graph_file = tmp_path / "g.txt"
        graph_file.write_text(text)
        code = run(["fit", "--input", path, "--input-kind", "covariance",
                    "--out", tmp_path / "o", "--preset", "ggm", "--graph", graph_file])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert f"{graph_file}, line {lineno}: expected two 1-based vertex indices in 1..4" in err

    def test_self_loop_in_edge_list_is_usage(self, cov_csv, tmp_path, capsys):
        path, _ = cov_csv
        graph_file = tmp_path / "g.txt"
        graph_file.write_text("1 2\n3 3\n")
        code = run(["fit", "--input", path, "--input-kind", "covariance",
                    "--out", tmp_path / "o", "--preset", "ggm", "--graph", graph_file])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert (f"{graph_file}, line 2: expected two distinct 1-based vertex indices in 1..4, "
                "got '3 3' (self-loop at vertex 3)") in err

    @pytest.mark.parametrize("penalty, message", [
        (["--preset", "glasso", "--rho", "nan"], "L and U must not contain NaN"),
        (["--preset", "asymmetric", "--rho-neg", "nan", "--rho-pos", "0.1"],
         "L and U must not contain NaN"),
        (["--preset", "positive", "--rho", "nan"], "L and U must not contain NaN"),
        (["--preset", "glasso", "--rho", "-1"], "rho must be nonnegative"),
    ], ids=["glasso-nan", "asymmetric-nan", "positive-nan", "glasso-negative"])
    def test_bad_penalty_value_is_usage(self, cov_csv, tmp_path, capsys, penalty, message):
        path, _ = cov_csv
        out = tmp_path / "o"
        code = run(["fit", "--input", path, "--input-kind", "covariance",
                    "--out", out, *penalty])
        assert code == cli.EXIT_USAGE
        assert f"input error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_bounds_files_are_usage(self, cov_csv, tmp_path, capsys):
        # L > 0 off the diagonal.
        path, _ = cov_csv
        lo_f, hi_f = tmp_path / "L.csv", tmp_path / "U.csv"
        lo = np.full((4, 4), 0.1)
        np.fill_diagonal(lo, 0.0)
        dio.write_csv_matrix(lo_f, lo)
        dio.write_csv_matrix(hi_f, lo)
        out = tmp_path / "o"
        code = run(["fit", "--input", path, "--input-kind", "covariance",
                    "--out", out, "--bounds-l", lo_f, "--bounds-u", hi_f])
        assert code == cli.EXIT_USAGE
        assert "input error: off-diagonal entries must satisfy L <= 0 <= U" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_missing_file_is_usage(self, tmp_path):
        code = run(["fit", "--input", tmp_path / "absent.csv",
                    "--input-kind", "covariance", "--out", tmp_path / "o",
                    "--preset", "glasso", "--rho", "0.1"])
        assert code == cli.EXIT_USAGE


class TestPath:
    def test_path_outputs(self, data_csv, tmp_path):
        path, x = data_csv
        out = tmp_path / "out"
        code = run(["path", "--input", path, "--input-kind", "data",
                    "--out", out, "--preset", "glasso", "--rho", "1.0",
                    "--grid", "log:0.05:0.8:6"])
        assert code == 0
        payload = json.loads((out / "path.json").read_text())
        assert len(payload["points"]) == 6
        assert payload["selectedRho"] == payload["grid"][payload["selectedIndex"]]
        assert (out / "Khat.csv").exists()

    def test_path_needs_sample_size(self, cov_csv, tmp_path):
        path, _ = cov_csv
        code = run(["path", "--input", path, "--input-kind", "covariance",
                    "--out", tmp_path / "o", "--preset", "glasso", "--rho", "1.0"])
        assert code == cli.EXIT_USAGE


    @pytest.mark.parametrize("grid", ["log:0.1:1", "0.5,,1", "log:0.1:1:x", "log:0:1:5"])
    def test_malformed_grid_is_usage(self, data_csv, tmp_path, capsys, grid):
        path, _ = data_csv
        code = run(["path", "--input", path, "--input-kind", "data",
                    "--out", tmp_path / "o", "--preset", "glasso", "--rho", "1.0",
                    "--grid", grid])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert f"usage error: --grid '{grid}' is neither a comma list" in err
        assert "log:lo:hi:k" in err


    @pytest.mark.parametrize("grid", ["0.1,nan,1", "log:0.1:inf:3"])
    def test_non_finite_grid_is_usage(self, data_csv, tmp_path, capsys, grid):
        path, _ = data_csv
        code = run(["path", "--input", path, "--input-kind", "data",
                    "--out", tmp_path / "o", "--preset", "glasso", "--rho", "1.0",
                    "--grid", grid])
        assert code == cli.EXIT_USAGE
        assert "grid entries must be finite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestMdeAndSkeptic:
    def test_mde_outputs(self, cov_csv, tmp_path):
        path, s = cov_csv
        graph_file = tmp_path / "g.txt"
        graph_file.write_text("1 2\n2 3\n3 4\n")
        out = tmp_path / "out"
        code = run(["mde", "--input", path, "--input-kind", "covariance",
                    "--out", out, "--graph", graph_file])
        assert code == 0
        sigma_check = dio.read_csv_matrix(out / "SigmaCheck.csv")
        conditions = json.loads((out / "conditions.json").read_text())
        assert max(conditions.values()) < 1e-7
        assert np.min(np.linalg.eigvalsh(sigma_check)) > 0

    def test_mde_self_loop_is_usage(self, cov_csv, tmp_path, capsys):
        path, _ = cov_csv
        graph_file = tmp_path / "g.txt"
        graph_file.write_text("# chain\n1 2\n2 3\n4 4\n")
        code = run(["mde", "--input", path, "--input-kind", "covariance",
                    "--out", tmp_path / "o", "--graph", graph_file])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert (f"{graph_file}, line 4: expected two distinct 1-based vertex indices in 1..4, "
                "got '4 4' (self-loop at vertex 4)") in err

    def test_mde_requires_graph(self, cov_csv, tmp_path):
        path, _ = cov_csv
        code = run(["mde", "--input", path, "--input-kind", "covariance",
                    "--out", tmp_path / "o"])
        assert code == cli.EXIT_USAGE

    def test_skeptic(self, data_csv, tmp_path):
        path, x = data_csv
        out = tmp_path / "out"
        code = run(["skeptic", "--input", path, "--out", out])
        assert code == 0
        r = dio.read_csv_matrix(out / "R.csv")
        assert np.array_equal(r, gz.skeptic_correlation(x))

    def test_skeptic_two_tied_rows(self, tmp_path):
        x = np.array([[1.0, 2.0, 3.0], [1.0, 5.0, 0.0]])
        path = tmp_path / "X.csv"
        np.savetxt(path, x, delimiter=",", fmt="%.17g")
        out = tmp_path / "out"
        assert run(["skeptic", "--input", path, "--out", out]) == 0
        expected = np.sin(0.5 * np.pi * loop_kendall_tau(x))
        np.fill_diagonal(expected, 1.0)
        assert np.array_equal(dio.read_csv_matrix(out / "R.csv"), expected)

    def test_skeptic_one_row_is_usage(self, tmp_path, capsys):
        path = tmp_path / "X.csv"
        path.write_text("1,2,3\n")
        code = run(["skeptic", "--input", path, "--out", tmp_path / "out"])
        assert code == cli.EXIT_USAGE
        assert "skeptic needs at least two observations" in capsys.readouterr().err


class TestDeterminism:
    def test_fit_byte_identical(self, cov_csv, tmp_path):
        path, _ = cov_csv
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run(["fit", "--input", path, "--input-kind", "covariance",
                        "--out", out, "--preset", "glasso", "--rho", "0.1",
                        "--n", "50", "--seed", "0"]) == 0
            outs.append(out)
        for fname in ("Khat.csv", "Sigma.csv", "edges.txt", "summary.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
