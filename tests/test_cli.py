import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import golazo as gz
from golazo import cli, linalg
from golazo import data as dio
from golazo.errors import ConstantColumnWarning, GolazoError, MaxIterationsExceededError
from golazo.selection import default_grid

from oracles import (
    blas_thread_counts,
    chain_er_correlation,
    loop_kendall_tau,
    near_collinear_correlation,
    random_correlation,
)

SRC = Path(__file__).resolve().parent.parent / "src"


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


CHAIN = gz.GraphSpec(4, [(0, 1), (1, 2), (2, 3)])

# Each preset's CLI arguments and the library bounds they stand for, d = 4;
# None stands for the file that holds CHAIN.
PRESETS = {
    "glasso": (["--rho", "0.1"], gz.glasso_bounds(0.1, 4)),
    "asymmetric": (["--rho-neg", "0.05", "--rho-pos", "0.2"],
                   gz.asymmetric_bounds(0.05, 0.2, 4)),
    "positive": (["--rho", "0.1"], gz.positive_glasso_bounds(0.1, 4)),
    "mtp2": ([], gz.mtp2_bounds(4)),
    "ggm": (["--graph", None], gz.ggm_bounds(CHAIN)),
    "dual-positivity": (["--graph", None], gz.dual_positivity_bounds(CHAIN)),
}


@pytest.fixture
def singular_csv(tmp_path):
    """S = [[1, 1], [1, 1]] and the edge list of its one pair."""
    path, graph_file = tmp_path / "S.csv", tmp_path / "g.txt"
    dio.write_csv_matrix(path, np.ones((2, 2)))
    graph_file.write_text("1 2\n")
    return path, graph_file


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

    @pytest.mark.parametrize("preset", PRESETS)
    def test_preset_matches_library_builder(self, cov_csv, tmp_path, preset):
        path, _ = cov_csv
        graph_file = tmp_path / "g.txt"
        dio.write_edge_list(graph_file, CHAIN)
        args, bounds = PRESETS[preset]
        args = [graph_file if a is None else a for a in args]
        out = tmp_path / "out"
        assert run(["fit", "--input", path, "--input-kind", "covariance",
                    "--out", out, "--preset", preset, *args]) == 0
        dio.write_csv_matrix(tmp_path / "ref.csv", gz.fit(dio.read_csv_matrix(path), bounds).khat)
        assert (out / "Khat.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


    @pytest.mark.parametrize("factor", [1e7, 1e-7])
    @pytest.mark.parametrize("preset", [["mtp2"], ["glasso", "--rho", "0.1"]], ids=["mtp2", "glasso"])
    def test_one_variable_on_another_scale_fits(self, tmp_path, factor, preset):
        # Full-rank data whose first column is 1e7 (or 1e-7) times the
        # others: each Cholesky pivot is tested against its own variance, so
        # S is positive definite and the fit succeeds.
        x = np.random.default_rng(0).standard_normal((40, 4))
        x[:, 0] *= factor
        path = tmp_path / "X.csv"
        np.savetxt(path, x, delimiter=",", fmt="%.17g")
        assert run(["fit", "--input", path, "--input-kind", "data", "--out", tmp_path / "out",
                    "--preset", *preset]) == 0


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

    @pytest.mark.parametrize("command", ["fit", "path", "mde", "skeptic"])
    def test_seed_is_not_an_option(self, tmp_path, capsys, command):
        # No command draws a random number, so none takes a seed.
        kind = [] if command == "skeptic" else ["--input-kind", "data"]
        code = run([command, "--input", tmp_path / "X.csv", *kind, "--out", tmp_path / "o",
                    "--seed", "0"])
        assert code == cli.EXIT_USAGE
        assert "unrecognized arguments: --seed 0" in capsys.readouterr().err

    @pytest.mark.parametrize("preset, given, missing", [
        ("glasso", [], "--rho"),
        ("asymmetric", ["--rho-neg", "0.1"], "--rho-pos"),
        ("asymmetric", ["--rho-pos", "0.1"], "--rho-neg"),
        ("positive", [], "--rho"),
        ("ggm", [], "--graph"),
        ("dual-positivity", [], "--graph"),
    ])
    def test_preset_names_missing_argument(self, cov_csv, tmp_path, capsys, preset, given,
                                           missing):
        path, _ = cov_csv
        code = run(["fit", "--input", path, "--input-kind", "covariance",
                    "--out", tmp_path / "o", "--preset", preset, *given])
        assert code == cli.EXIT_USAGE
        assert capsys.readouterr().err == f"usage error: --preset {preset} requires {missing}\n"

    @pytest.mark.parametrize("command", ["fit", "path"])
    @pytest.mark.parametrize("penalty, message", [
        (["--preset", "mtp2", "--bounds-l", "L", "--bounds-u", "U"],
         "--preset cannot be given with --bounds-l/--bounds-u"),
        (["--preset", "glasso", "--rho", "0.1", "--bounds-l", "L"],
         "--preset cannot be given with --bounds-l/--bounds-u"),
        (["--preset", "mtp2", "--rho", "0.5"], "--rho is not read by --preset mtp2"),
        (["--preset", "glasso", "--rho", "0.5", "--graph", "absent.txt"],
         "--graph is not read by --preset glasso"),
        (["--preset", "positive", "--rho", "0.1", "--rho-neg", "0.1"],
         "--rho-neg is not read by --preset positive"),
        (["--preset", "asymmetric", "--rho-neg", "0.1", "--rho-pos", "0.1", "--rho", "0.1"],
         "--rho is not read by --preset asymmetric"),
        (["--preset", "ggm", "--graph", "G", "--rho-pos", "0.1"],
         "--rho-pos is not read by --preset ggm"),
        (["--bounds-l", "L", "--bounds-u", "U", "--rho", "0.1"],
         "--rho is not read by --bounds-l/--bounds-u"),
        (["--bounds-l", "L", "--bounds-u", "U", "--graph", "G"],
         "--graph is not read by --bounds-l/--bounds-u"),
    ])
    def test_unread_penalty_option_is_usage(self, cov_csv, tmp_path, capsys, command,
                                            penalty, message):
        # An option the chosen penalty does not read would be silently ignored.
        path, _ = cov_csv
        files = {"L": tmp_path / "L.csv", "U": tmp_path / "U.csv", "G": tmp_path / "g.txt"}
        upper = np.full((4, 4), 0.1)
        np.fill_diagonal(upper, 0.0)
        dio.write_csv_matrix(files["L"], -upper)
        dio.write_csv_matrix(files["U"], upper)
        files["G"].write_text("1 2\n2 3\n")
        out = tmp_path / "o"
        code = run([command, "--input", path, "--input-kind", "covariance", "--n", "50",
                    "--out", out, *(files.get(a, a) for a in penalty)])
        assert code == cli.EXIT_USAGE
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not out.exists()

    def test_unknown_preset_is_usage(self, cov_csv, tmp_path, capsys):
        path, _ = cov_csv
        code = run(["fit", "--input", path, "--input-kind", "covariance",
                    "--out", tmp_path / "o", "--preset", "nope", "--rho", "0.1"])
        assert code == cli.EXIT_USAGE
        assert "invalid choice: 'nope'" in capsys.readouterr().err

    @pytest.mark.parametrize("setting, message", [
        (["--tol", "nan"], "dual_gap_tol must be positive and finite"),
        (["--tol", "0"], "dual_gap_tol must be positive and finite"),
        (["--tol", "inf"], "dual_gap_tol must be positive and finite"),
        (["--n", "50", "--gamma", "nan"], "gamma must lie in [0, 1]"),
        (["--n", "50", "--gamma", "2"], "gamma must lie in [0, 1]"),
        (["--gamma", "nan"], "gamma must lie in [0, 1]"),
        (["--gamma", "2"], "gamma must lie in [0, 1]"),
        (["--n", "-5"], "sample size must be at least 1"),
        (["--n", "0"], "sample size must be at least 1"),
        (["--max-sweeps", "0"], "max_sweeps must be at least 1"),
    ], ids=["tol-nan", "tol-zero", "tol-inf", "gamma-nan", "gamma-2", "gamma-nan-without-n",
            "gamma-2-without-n", "n-negative", "n-zero", "max-sweeps-zero"])
    def test_bad_solver_or_sample_setting_is_usage(self, cov_csv, tmp_path, capsys, setting,
                                                   message):
        path, _ = cov_csv
        out = tmp_path / "o"
        code = run(["fit", "--input", path, "--input-kind", "covariance",
                    "--out", out, "--preset", "glasso", "--rho", "0.1", *setting])
        assert code == cli.EXIT_USAGE
        assert f"input error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, extra", [
        ("fit", ["--preset", "glasso", "--rho", "0.1"]),
        ("path", ["--preset", "glasso", "--rho", "1.0"]),
        ("mde", ["--graph"]),
    ])
    def test_zero_variance_column_is_usage(self, tmp_path, capsys, command, extra):
        path, graph_file = tmp_path / "X.csv", tmp_path / "g.txt"
        x = np.column_stack([np.arange(10.0), np.full(10, 3.0), np.arange(10.0) ** 2])
        np.savetxt(path, x, delimiter=",", fmt="%.17g")
        graph_file.write_text("1 2\n")
        extra = [*extra, graph_file] if command == "mde" else extra
        with pytest.warns(ConstantColumnWarning):
            code = run([command, "--input", path, "--input-kind", "data",
                        "--out", tmp_path / "o", *extra])
        assert code == cli.EXIT_USAGE
        assert "input error: diagonal entry 1 is not strictly positive" in capsys.readouterr().err

    @pytest.mark.parametrize("command, extra", [
        ("fit", ["--preset", "glasso", "--rho", "0.1"]),
        ("path", ["--preset", "glasso", "--rho", "1.0"]),
        ("mde", ["--graph"]),
    ])
    def test_one_observation_is_usage(self, tmp_path, capsys, command, extra):
        # Rejected before the covariance is formed: no ConstantColumnWarning
        # for its three zero-variance columns, no diagonal error.
        path, graph_file = tmp_path / "one.csv", tmp_path / "g.txt"
        path.write_text("1,2,3\n")
        graph_file.write_text("1 2\n")
        extra = [*extra, graph_file] if command == "mde" else extra
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run([command, "--input", path, "--input-kind", "data",
                        "--out", tmp_path / "o", *extra])
        assert code == cli.EXIT_USAGE
        assert (capsys.readouterr().err
                == f"usage error: {command} needs at least two observations\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, extra", [
        ("fit", ["--preset", "glasso", "--rho", "0.1"]),
        ("path", ["--preset", "glasso", "--rho", "1.0"]),
    ])
    def test_sample_size_with_data_is_usage(self, data_csv, tmp_path, capsys, command, extra):
        # The rows are the sample size, so a --n beside them would be ignored.
        path, _ = data_csv
        code = run([command, "--input", path, "--input-kind", "data", "--n", "7",
                    "--out", tmp_path / "o", *extra])
        assert code == cli.EXIT_USAGE
        assert capsys.readouterr().err == ("usage error: --n cannot be given with "
                                           "--input-kind data: n is the number of rows\n")
        assert not (tmp_path / "o").exists()

    def test_all_path_fits_failed_exit(self, singular_csv, tmp_path, capsys):
        path, graph_file = singular_csv
        code = run(["path", "--input", path, "--input-kind", "covariance", "--n", "10",
                    "--out", tmp_path / "o", "--preset", "ggm", "--graph", graph_file,
                    "--grid", "0.5,1"])
        assert code == cli.EXIT_ALL_FITS_FAILED == 5
        assert "AllFitsFailed: all penalty-path fits failed" in capsys.readouterr().err

    def test_mde_step1_failed_exit(self, singular_csv, tmp_path, capsys):
        path, graph_file = singular_csv
        code = run(["mde", "--input", path, "--input-kind", "covariance",
                    "--out", tmp_path / "o", "--graph", graph_file])
        assert code == cli.EXIT_MDE_STEP1 == 6
        assert "MdeStep1Failed: step 1 (graph-constrained MLE) failed" in capsys.readouterr().err

    def test_other_package_error_exit(self, cov_csv, tmp_path, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise GolazoError("unexpected state")

        monkeypatch.setattr(cli, "fit", broken)
        path, _ = cov_csv
        code = run(["fit", "--input", path, "--input-kind", "covariance",
                    "--out", tmp_path / "o", "--preset", "glasso", "--rho", "0.1"])
        assert code == cli.EXIT_ERROR == 1
        assert capsys.readouterr().err == "GolazoError: unexpected state\n"

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
        (["--preset", "glasso", "--rho", "nan"], "rho must be nonnegative, got nan"),
        (["--preset", "asymmetric", "--rho-neg", "nan", "--rho-pos", "0.1"],
         "rho_neg must be nonnegative, got nan"),
        (["--preset", "asymmetric", "--rho-neg", "0.1", "--rho-pos", "nan"],
         "rho_pos must be nonnegative, got nan"),
        (["--preset", "positive", "--rho", "nan"], "rho must be nonnegative, got nan"),
        (["--preset", "glasso", "--rho", "-1"], "rho must be nonnegative, got -1.0"),
    ], ids=["glasso-nan", "asymmetric-nan", "asymmetric-pos-nan", "positive-nan",
            "glasso-negative"])
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

    @pytest.mark.parametrize("given", ["--bounds-l", "--bounds-u"])
    def test_bounds_files_must_come_in_pairs(self, cov_csv, tmp_path, capsys, given):
        path, _ = cov_csv
        bounds_f = tmp_path / "B.csv"
        dio.write_csv_matrix(bounds_f, np.zeros((4, 4)))
        out = tmp_path / "o"
        code = run(["fit", "--input", path, "--input-kind", "covariance",
                    "--out", out, given, bounds_f])
        assert code == cli.EXIT_USAGE
        assert ("usage error: --bounds-l and --bounds-u must be given together"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("d_bounds", [1, 3])
    def test_bounds_files_must_match_s(self, tmp_path, capsys, d_bounds):
        path = tmp_path / "S.csv"
        dio.write_csv_matrix(path, random_correlation(np.random.default_rng(2), 5))
        lo_f, hi_f = tmp_path / "L.csv", tmp_path / "U.csv"
        dio.write_csv_matrix(lo_f, np.zeros((d_bounds, d_bounds)))
        dio.write_csv_matrix(hi_f, np.zeros((d_bounds, d_bounds)))
        out = tmp_path / "o"
        code = run(["fit", "--input", path, "--input-kind", "covariance",
                    "--out", out, "--bounds-l", lo_f, "--bounds-u", hi_f])
        assert code == cli.EXIT_USAGE
        assert (f"input error: bounds are {d_bounds} x {d_bounds} but S is 5 x 5"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_missing_file_is_usage(self, tmp_path):
        code = run(["fit", "--input", tmp_path / "absent.csv",
                    "--input-kind", "covariance", "--out", tmp_path / "o",
                    "--preset", "glasso", "--rho", "0.1"])
        assert code == cli.EXIT_USAGE

    @pytest.mark.parametrize("kind, text, where", [
        (["--input-kind", "data", "--header"], "a,b,c\n1,2,3\n\n4,x,6\n",
         "line 4, column 2: could not convert string to float: 'x'"),
        (["--input-kind", "data", "--header"], "a,b,c\n1,2,3\n4,5\n",
         "line 3: expected 3 values, got 2"),
        (["--input-kind", "covariance"], "1,0.5\n0.5,1x\n",
         "line 2, column 2: could not convert string to float: '1x'"),
        (["--input-kind", "covariance"], "1,0.5,0\n0.5,1\n0,0,1\n",
         "line 2: expected 3 values, got 2"),
        (["--input-kind", "data", "--header"], "a,b,c\n1,2,3\n\n4,NaN,6\n",
         "line 4, column 2: data contains missing or non-finite values (nan)"),
        (["--input-kind", "covariance"], "1,0.5\n0.5,nan\n",
         "line 2, column 2: matrix CSV contains missing or non-finite values (nan)"),
        (["--input-kind", "correlation"], "1,0.5,0\n0.5,1,-inf\n0,-inf,1\n",
         "line 2, column 3: matrix CSV contains missing or non-finite values (-inf)"),
    ], ids=["data-token", "data-short-row", "covariance-token", "covariance-short-row",
            "data-nan", "covariance-nan", "correlation-inf"])
    def test_bad_csv_names_file_line_and_column(self, tmp_path, capsys, kind, text, where):
        path = tmp_path / "in.csv"
        path.write_text(text)
        out = tmp_path / "o"
        code = run(["fit", "--input", path, *kind, "--out", out,
                    "--preset", "glasso", "--rho", "0.1"])
        assert code == cli.EXIT_USAGE
        assert f"input error: {path}, {where}" in capsys.readouterr().err
        assert not out.exists()

    def test_csv_field_over_the_size_limit_is_an_input_error(self, tmp_path, capsys):
        # The quoted second field makes np.loadtxt fail, so the csv module
        # reads the file and meets the 200001-digit first field.
        path = tmp_path / "X.csv"
        path.write_text("1" * 200001 + ',"2"\n')
        out = tmp_path / "o"
        assert run(["skeptic", "--input", path, "--out", out]) == cli.EXIT_USAGE
        assert (f"input error: {path}, line 1: field larger than field limit (131072)"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_bad_bounds_csv_names_that_file(self, cov_csv, tmp_path, capsys):
        path, _ = cov_csv
        lo_f, hi_f = tmp_path / "L.csv", tmp_path / "U.csv"
        dio.write_csv_matrix(lo_f, np.zeros((4, 4)))
        hi_f.write_text("0,1,1,1\n1,0,1,1\n1,1,0,one\n1,1,1,0\n")
        code = run(["fit", "--input", path, "--input-kind", "covariance",
                    "--out", tmp_path / "o", "--bounds-l", lo_f, "--bounds-u", hi_f])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert (f"input error: {hi_f}, line 3, column 4: could not convert string to float: "
                "'one'") in err
        assert str(path) not in err

    def test_nan_bounds_csv_names_that_file(self, cov_csv, tmp_path, capsys):
        path, _ = cov_csv
        lo_f, hi_f = tmp_path / "L.csv", tmp_path / "U.csv"
        lo_f.write_text("0,-inf,0,0\n-inf,0,0,0\n0,0,0,nan\n0,0,nan,0\n")
        dio.write_csv_matrix(hi_f, np.full((4, 4), np.inf))  # inf stays legal in bounds
        code = run(["fit", "--input", path, "--input-kind", "covariance",
                    "--out", tmp_path / "o", "--bounds-l", lo_f, "--bounds-u", hi_f])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert f"input error: {lo_f}, line 3, column 4: matrix CSV contains missing values (nan)" in err
        assert str(hi_f) not in err


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

    def test_failed_point_is_recorded(self, tmp_path):
        # At rho = 0.01 one sweep does not certify; at rho = 10 every row is
        # screened off and the start is optimal after 0 sweeps.
        path = tmp_path / "S.csv"
        dio.write_csv_matrix(path, random_correlation(np.random.default_rng(5), 8))
        out = tmp_path / "out"
        code = run(["path", "--input", path, "--input-kind", "correlation", "--n", "50",
                    "--out", out, "--preset", "glasso", "--rho", "1.0", "--grid", "0.01,10",
                    "--tol", "1e-15", "--max-sweeps", "1"])
        assert code == 0
        failed, ok = json.loads((out / "path.json").read_text())["points"]
        assert sorted(failed) == ["error", "rho"] and failed["rho"] == 0.01
        assert failed["error"].startswith("MaxSweepsExceededError: no convergence after 1 sweeps")
        assert ok["rho"] == 10.0 and ok["edgeCount"] == 0 and ok["dualGap"] == 0.0

    def test_path_needs_sample_size(self, cov_csv, tmp_path):
        path, _ = cov_csv
        code = run(["path", "--input", path, "--input-kind", "covariance",
                    "--out", tmp_path / "o", "--preset", "glasso", "--rho", "1.0"])
        assert code == cli.EXIT_USAGE

    @pytest.mark.parametrize("n", ["0", "-5"])
    def test_path_bad_sample_size_is_an_input_error(self, cov_csv, tmp_path, capsys, n):
        # As for fit: a given --n is checked, not taken for a missing one.
        path, _ = cov_csv
        code = run(["path", "--input", path, "--input-kind", "covariance", "--n", n,
                    "--out", tmp_path / "o", "--preset", "glasso", "--rho", "1.0"])
        assert code == cli.EXIT_USAGE
        assert capsys.readouterr().err == f"input error: sample size must be at least 1, got {n}\n"
        assert not (tmp_path / "o").exists()


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


class TestDefaults:
    """Options left out take the library's defaults, which have no second home
    in the command line."""

    @staticmethod
    def spy(monkeypatch, name):
        calls = []
        real = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls.append((args, kwargs))
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, name, wrapper)
        return calls

    def test_fit(self, cov_csv, tmp_path, monkeypatch):
        path, _ = cov_csv
        fits, scores = self.spy(monkeypatch, "fit"), self.spy(monkeypatch, "ebic")
        assert run(["fit", "--input", path, "--input-kind", "covariance", "--n", "50",
                    "--out", tmp_path / "o", "--preset", "glasso", "--rho", "0.1"]) == 0
        assert [kwargs for _, kwargs in fits] == [{"config": gz.SolverConfig()}]
        assert [args[2:] for args, _ in scores] == [(50, gz.EbicConfig(n=50).gamma)]

    def test_path(self, cov_csv, tmp_path, monkeypatch):
        path, _ = cov_csv
        paths = self.spy(monkeypatch, "fit_path")
        assert run(["path", "--input", path, "--input-kind", "covariance", "--n", "50",
                    "--out", tmp_path / "o", "--preset", "glasso", "--rho", "1.0"]) == 0
        (args, kwargs), = paths
        assert args[2:] == (gz.EbicConfig(n=50), gz.SolverConfig()) and not kwargs

    def test_mde(self, cov_csv, tmp_path, monkeypatch):
        path, _ = cov_csv
        graph_file = tmp_path / "g.txt"
        graph_file.write_text("1 2\n2 3\n3 4\n")
        mdes = self.spy(monkeypatch, "mde")
        assert run(["mde", "--input", path, "--input-kind", "covariance",
                    "--out", tmp_path / "o", "--graph", graph_file]) == 0
        assert [kwargs for _, kwargs in mdes] == [{"config": gz.SolverConfig()}]

    def test_path_grid(self, data_csv, tmp_path):
        path, _ = data_csv
        out = tmp_path / "out"
        assert run(["path", "--input", path, "--input-kind", "data",
                    "--out", out, "--preset", "glasso", "--rho", "1.0"]) == 0
        payload = json.loads((out / "path.json").read_text())
        assert payload["grid"] == default_grid() and len(payload["points"]) == 20


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

    def test_skeptic_nan_cell_names_file_line_and_column(self, tmp_path, capsys):
        path = tmp_path / "X.csv"
        path.write_text("1,2,3\n4,5,6\n7,nan,9\n")
        code = run(["skeptic", "--input", path, "--out", tmp_path / "out"])
        assert code == cli.EXIT_USAGE
        assert (f"input error: {path}, line 3, column 2: data contains missing or "
                "non-finite values (nan)") in capsys.readouterr().err


class TestDeterminism:
    def test_fit_byte_identical(self, cov_csv, tmp_path):
        path, _ = cov_csv
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run(["fit", "--input", path, "--input-kind", "covariance",
                        "--out", out, "--preset", "glasso", "--rho", "0.1",
                        "--n", "50"]) == 0
            outs.append(out)
        for fname in ("Khat.csv", "Sigma.csv", "edges.txt", "summary.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_fit_does_not_depend_on_the_blas_thread_count(self, tmp_path):
        # At d = 150 OpenBLAS would thread dpotrf/dpotrs (from n = 128 on),
        # which changes the last bits of K.
        path = tmp_path / "R.csv"
        dio.write_csv_matrix(path, chain_er_correlation(np.random.default_rng(0), 150, 300))
        outs = []
        for threads in ("1", "2"):
            outs.append(tmp_path / f"t{threads}")
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(SRC))
            done = subprocess.run(
                [sys.executable, "-m", "golazo.cli", "fit", "--input", str(path),
                 "--input-kind", "correlation", "--preset", "glasso", "--rho", "0.1",
                 "--out", str(outs[-1])],
                env=env, capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
        for fname in ("Khat.csv", "summary.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


class TestOneBlasThread:
    @pytest.fixture
    def counts(self):
        counts = blas_thread_counts()
        if not counts:
            pytest.skip("numpy and scipy bundle no OpenBLAS here")
        return counts

    @pytest.mark.parametrize("raised, code", [
        (None, cli.EXIT_OK),
        (ValueError("bad value"), cli.EXIT_USAGE),
        (GolazoError("failed"), cli.EXIT_ERROR),
    ], ids=["ok", "input-error", "error"])
    def test_command_runs_on_one_thread_and_counts_come_back(
            self, counts, cov_csv, tmp_path, monkeypatch, raised, code):
        seen = []

        def command(args):
            seen.append(blas_thread_counts())
            if raised is not None:
                raise raised
            return cli.EXIT_OK

        monkeypatch.setitem(cli._COMMANDS, "fit", command)
        path, _ = cov_csv
        assert run(["fit", "--input", path, "--input-kind", "covariance",
                    "--out", tmp_path / "o", "--preset", "mtp2"]) == code
        assert seen == [[1] * len(counts)]
        assert blas_thread_counts() == counts

    def test_no_bundled_openblas_is_a_no_op(self, cov_csv, tmp_path, monkeypatch):
        path, _ = cov_csv
        argv = ["fit", "--input", path, "--input-kind", "covariance",
                "--preset", "glasso", "--rho", "0.1", "--n", "50", "--out"]
        assert run([*argv, tmp_path / "a"]) == 0
        empty = tmp_path / "empty"
        empty.mkdir()
        monkeypatch.setattr(linalg, "_BUNDLED_OPENBLAS", tuple(
            (empty, pattern, suffix) for _, pattern, suffix in linalg._BUNDLED_OPENBLAS))
        assert run([*argv, tmp_path / "b"]) == 0
        assert linalg._blas_pools(linalg._BUNDLED_OPENBLAS) == ()
        for fname in ("Khat.csv", "Sigma.csv", "edges.txt", "summary.json"):
            assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()
