"""Command-line surface for batch estimation runs.

Subcommands: ``fit`` (single penalized fit), ``path`` (EBIC penalty path),
``mde`` (two-step locally associated estimate), ``skeptic`` (rank-based
correlation).  Matrices are exchanged as CSV with 17 significant digits;
graphs as 1-based edge lists; summaries as JSON.
"""
import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import data as dio
from .errors import (
    AllFitsFailedError,
    GolazoError,
    InvalidBoundsError,
    MaxIterationsExceededError,
    MaxSweepsExceededError,
    MdeStep1FailedError,
    NoFeasibleStartError,
)
from .estimators import GraphSpec, gaussian_neg_loglik, mde
from .linalg import is_m_matrix
from .penalty import preset_bounds, PenaltyBounds
from .selection import EbicConfig, ebic, fit_path
from .solver import SolverConfig, fit

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_FEASIBLE_START = 2
EXIT_MAX_SWEEPS = 3
EXIT_USAGE = 4
EXIT_ALL_FITS_FAILED = 5
EXIT_MDE_STEP1 = 6
EXIT_QP_ITERATIONS = 7


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="golazo",
        description="Penalized Gaussian precision-matrix estimation with "
                    "sign-asymmetric (L, U) penalties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("--input", required=True, help="input CSV path")
        p.add_argument("--input-kind", required=True,
                       choices=["data", "covariance", "correlation"],
                       help="explicit input interpretation (no auto-detection)")
        p.add_argument("--header", action="store_true",
                       help="input CSV has a header row")
        p.add_argument("--out", required=True, help="output directory")

    def add_penalty(p):
        p.add_argument("--preset",
                       choices=["glasso", "asymmetric", "positive", "mtp2",
                                "ggm", "dual-positivity"])
        p.add_argument("--rho", type=float)
        p.add_argument("--rho-neg", type=float)
        p.add_argument("--rho-pos", type=float)
        p.add_argument("--bounds-l", help="CSV with the lower penalty matrix "
                                          "('-inf' tokens allowed)")
        p.add_argument("--bounds-u", help="CSV with the upper penalty matrix "
                                          "('inf' tokens allowed)")
        p.add_argument("--graph", help="1-based edge-list file")

    def add_solver(p):
        p.add_argument("--tol", type=float, default=1e-8, help="duality-gap tolerance")
        p.add_argument("--max-sweeps", type=int, default=1000)

    p_fit = sub.add_parser("fit", help="single penalized fit")
    add_io(p_fit)
    add_penalty(p_fit)
    add_solver(p_fit)
    p_fit.add_argument("--n", type=int, help="sample size (for the EBIC in the summary)")
    p_fit.add_argument("--gamma", type=float, default=0.5)
    p_fit.add_argument("--graphml", action="store_true",
                       help="also write graph.graphml with partial correlations")

    p_path = sub.add_parser("path", help="EBIC selection over a penalty grid")
    add_io(p_path)
    add_penalty(p_path)
    add_solver(p_path)
    p_path.add_argument("--n", type=int, help="sample size (required unless "
                                              "--input-kind data)")
    p_path.add_argument("--gamma", type=float, default=0.5)
    p_path.add_argument("--grid", default="log:0.01:1.0:20",
                        help="comma list of scale factors, or 'log:lo:hi:k'")
    p_path.add_argument("--threads", type=int, default=1,
                        help="accepted and ignored; grid points run in one loop")

    p_mde = sub.add_parser("mde", help="two-step locally associated estimate")
    add_io(p_mde)
    add_solver(p_mde)
    p_mde.add_argument("--graph", help="1-based edge-list file (required)")

    p_sk = sub.add_parser("skeptic", help="rank-based correlation matrix")
    p_sk.add_argument("--input", required=True)
    p_sk.add_argument("--header", action="store_true")
    p_sk.add_argument("--out", required=True)

    for p in (p_fit, p_path, p_mde, p_sk):
        p.add_argument("--seed", type=int, default=0)
    return parser


def _load_input(args):
    """Returns (statistic matrix S, sample size n or None)."""
    if args.input_kind == "data":
        dm = dio.read_csv_data(args.input, header=args.header)
        s = dio.sample_covariance(dm)
        return s, dm.n
    s = dio.read_csv_matrix(args.input, header=args.header)
    return s, getattr(args, "n", None)


def _load_bounds(args, d):
    # Bad bounds from the arguments or files are an input error (exit 4); an
    # InvalidBoundsError raised later in a command keeps exit 1.
    try:
        return _bounds_from_args(args, d)
    except InvalidBoundsError as exc:
        raise ValueError(str(exc)) from exc


def _bounds_from_args(args, d):
    if args.bounds_l or args.bounds_u:
        if not (args.bounds_l and args.bounds_u):
            raise _usage("--bounds-l and --bounds-u must be given together")
        lower = dio.read_csv_matrix(args.bounds_l)
        upper = dio.read_csv_matrix(args.bounds_u)
        return PenaltyBounds(lower, upper)
    if not args.preset:
        raise _usage("either --preset or --bounds-l/--bounds-u is required")
    kind = args.preset.replace("-", "_")
    graph = None
    if kind in ("ggm", "dual_positivity"):
        if not args.graph:
            raise _usage(f"--preset {args.preset} requires --graph")
        graph = dio.read_edge_list(args.graph, d=d)
    if kind == "glasso" and args.rho is None:
        raise _usage("--preset glasso requires --rho")
    if kind == "positive" and args.rho is None:
        raise _usage("--preset positive requires --rho")
    if kind == "asymmetric" and (args.rho_neg is None or args.rho_pos is None):
        raise _usage("--preset asymmetric requires --rho-neg and --rho-pos")
    return preset_bounds(kind, d, rho=args.rho, rho_neg=args.rho_neg,
                         rho_pos=args.rho_pos, graph=graph)


class _UsageError(Exception):
    pass


def _usage(msg):
    return _UsageError(msg)


def _parse_grid(text):
    try:
        if text.startswith("log:"):
            _, lo, hi, k = text.split(":")
            with np.errstate(invalid="ignore"):  # an infinite end: EbicConfig says so
                return list(np.geomspace(float(lo), float(hi), int(k)))
        return [float(t) for t in text.split(",")]
    except ValueError:
        raise _usage(f"--grid {text!r} is neither a comma list of scale factors "
                     "(e.g. 0.1,0.5,1) nor log:lo:hi:k (e.g. log:0.01:1:20)") from None


def _json_default(o):
    if isinstance(o, (np.floating, np.integer)):
        return o.item()
    raise TypeError(f"not JSON serializable: {type(o)}")


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _write_fit_artifacts(outdir, s, result, n, gamma, **extra):
    dio.write_csv_matrix(outdir / "Khat.csv", result.khat)
    dio.write_csv_matrix(outdir / "Sigma.csv", result.sigma_hat)
    graph = GraphSpec.from_support(result.khat)
    dio.write_edge_list(outdir / "edges.txt", graph)
    negll = gaussian_neg_loglik(s, result.khat)
    summary = {
        "dualGap": result.dual_gap,
        "sweeps": result.sweeps,
        "edgeCount": result.edge_count,
        "negLogLik": negll,
        "ebic": ebic(s, result, n, gamma) if n else None,
        **extra,
    }
    _write_json(outdir / "summary.json", summary)


def cmd_fit(args):
    s, n = _load_input(args)
    bounds = _load_bounds(args, s.shape[0])
    config = SolverConfig(dual_gap_tol=args.tol, max_sweeps=args.max_sweeps)
    result = fit(s, bounds, config=config)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    extra = {}
    if args.preset == "mtp2":
        extra["mMatrix"] = bool(is_m_matrix(result.khat, tol=1e-8))
    _write_fit_artifacts(outdir, s, result, n, args.gamma, **extra)
    if args.graphml:
        dio.write_graphml(outdir / "graph.graphml", result.khat)
    return EXIT_OK


def cmd_path(args):
    s, n = _load_input(args)
    if not n:
        raise _usage("path needs a sample size: use --input-kind data or --n")
    bounds = _load_bounds(args, s.shape[0])
    config = EbicConfig(n=n, gamma=args.gamma, grid=_parse_grid(args.grid))
    solver_config = SolverConfig(dual_gap_tol=args.tol, max_sweeps=args.max_sweeps)
    path_result = fit_path(s, bounds, config, solver_config)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    per_point = []
    for i, rho in enumerate(config.grid):
        entry = {"rho": rho}
        if path_result.fits[i] is None:
            entry["error"] = path_result.failures[i]
        else:
            entry.update(ebic=path_result.ebic_scores[i],
                         edgeCount=path_result.edge_counts[i],
                         dualGap=path_result.fits[i].dual_gap)
        per_point.append(entry)
    _write_json(outdir / "path.json", {
        "grid": list(config.grid),
        "gamma": args.gamma,
        "selectedIndex": path_result.selected_index,
        "selectedRho": config.grid[path_result.selected_index],
        "points": per_point,
    })
    _write_fit_artifacts(outdir, s, path_result.selected_fit, n, args.gamma)
    return EXIT_OK


def cmd_mde(args):
    if not args.graph:
        raise _usage("mde requires --graph")
    s, _ = _load_input(args)
    graph = dio.read_edge_list(args.graph, d=s.shape[0])
    config = SolverConfig(dual_gap_tol=args.tol, max_sweeps=args.max_sweeps)
    result = mde(s, graph, config=config)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    dio.write_csv_matrix(outdir / "SigmaCheck.csv", result.sigma_check)
    dio.write_csv_matrix(outdir / "Kcheck.csv", result.kcheck)
    _write_json(outdir / "conditions.json", result.conditions_report)
    return EXIT_OK


def cmd_skeptic(args):
    dm = dio.read_csv_data(args.input, header=args.header)
    if dm.n < 2:
        raise _usage("skeptic needs at least two observations")
    r = dio.skeptic_correlation(dm)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    dio.write_csv_matrix(outdir / "R.csv", r)
    return EXIT_OK


_COMMANDS = {"fit": cmd_fit, "path": cmd_path, "mde": cmd_mde, "skeptic": cmd_skeptic}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NoFeasibleStartError as exc:
        print(f"NoFeasibleStart: {exc}", file=sys.stderr)
        return EXIT_NO_FEASIBLE_START
    except MaxSweepsExceededError as exc:
        print(f"MaxSweepsExceeded: {exc}", file=sys.stderr)
        return EXIT_MAX_SWEEPS
    except MaxIterationsExceededError as exc:
        print(f"MaxIterationsExceeded: {exc}", file=sys.stderr)
        return EXIT_QP_ITERATIONS
    except MdeStep1FailedError as exc:
        print(f"MdeStep1Failed: {exc}", file=sys.stderr)
        return EXIT_MDE_STEP1
    except AllFitsFailedError as exc:
        print(f"AllFitsFailed: {exc}", file=sys.stderr)
        return EXIT_ALL_FITS_FAILED
    except (ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GolazoError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
