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
    NonpositiveDiagonalError,
)
from .estimators import GraphSpec, gaussian_neg_loglik, mde
from .linalg import _one_blas_thread, is_m_matrix, positive_diagonal
from .penalty import (
    PenaltyBounds,
    asymmetric_bounds,
    dual_positivity_bounds,
    ggm_bounds,
    glasso_bounds,
    mtp2_bounds,
    positive_glasso_bounds,
)
from .selection import EbicConfig, default_grid, ebic, fit_path
from .solver import SolverConfig, fit

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_FEASIBLE_START = 2
EXIT_MAX_SWEEPS = 3
EXIT_USAGE = 4
EXIT_ALL_FITS_FAILED = 5
EXIT_MDE_STEP1 = 6
EXIT_QP_ITERATIONS = 7

# Each preset: the arguments it requires and its bounds builder over
# (arguments, d).
_PRESETS = {
    "glasso": (("rho",), lambda a, d: glasso_bounds(a.rho, d)),
    "asymmetric": (("rho_neg", "rho_pos"),
                   lambda a, d: asymmetric_bounds(a.rho_neg, a.rho_pos, d)),
    "positive": (("rho",), lambda a, d: positive_glasso_bounds(a.rho, d)),
    "mtp2": ((), lambda a, d: mtp2_bounds(d)),
    "ggm": (("graph",), lambda a, d: ggm_bounds(dio.read_edge_list(a.graph, d=d))),
    "dual-positivity": (("graph",),
                        lambda a, d: dual_positivity_bounds(dio.read_edge_list(a.graph, d=d))),
}


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
        p.add_argument("--preset", choices=_PRESETS)
        p.add_argument("--rho", type=float)
        p.add_argument("--rho-neg", type=float)
        p.add_argument("--rho-pos", type=float)
        p.add_argument("--bounds-l", help="CSV with the lower penalty matrix "
                                          "('-inf' tokens allowed)")
        p.add_argument("--bounds-u", help="CSV with the upper penalty matrix "
                                          "('inf' tokens allowed)")
        p.add_argument("--graph", help="1-based edge-list file")

    def add_solver(p):
        p.add_argument("--tol", type=float, default=SolverConfig.dual_gap_tol,
                       help="duality-gap tolerance")
        p.add_argument("--max-sweeps", type=int, default=SolverConfig.max_sweeps)

    p_fit = sub.add_parser("fit", help="single penalized fit")
    add_io(p_fit)
    add_penalty(p_fit)
    add_solver(p_fit)
    p_fit.add_argument("--n", type=int, help="sample size, for the EBIC in the summary "
                                             "(not with --input-kind data: n is the rows)")
    p_fit.add_argument("--gamma", type=float, default=EbicConfig.gamma)
    p_fit.add_argument("--graphml", action="store_true",
                       help="also write graph.graphml with partial correlations")

    p_path = sub.add_parser("path", help="EBIC selection over a penalty grid")
    add_io(p_path)
    add_penalty(p_path)
    add_solver(p_path)
    p_path.add_argument("--n", type=int, help="sample size (required, except with "
                                              "--input-kind data, where n is the rows "
                                              "and --n cannot be given)")
    p_path.add_argument("--gamma", type=float, default=EbicConfig.gamma)
    p_path.add_argument("--grid", help="comma list of scale factors, or 'log:lo:hi:k'")
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
    return parser


def _read_data(args):
    x = dio.read_csv_data(args.input, header=args.header)
    if x.shape[0] < 2:
        raise _UsageError(f"{args.command} needs at least two observations")
    return x


def _load_input(args):
    """Returns (statistic matrix S, sample size n or None)."""
    if args.input_kind == "data":
        if getattr(args, "n", None) is not None:
            raise _UsageError("--n cannot be given with --input-kind data: "
                              "n is the number of rows")
        x = _read_data(args)
        s, n = dio.sample_covariance(x), x.shape[0]
    else:
        s = dio.read_csv_matrix(args.input, header=args.header, allow_inf=False)
        n = getattr(args, "n", None)
    positive_diagonal(s)
    return s, n


def _load_bounds(args, d):
    """The bounds files' or the preset's bounds.  A penalty option that the
    one chosen does not read is a usage error, as is one it needs and lacks."""
    files = args.bounds_l or args.bounds_u
    if files and args.preset:
        raise _UsageError("--preset cannot be given with --bounds-l/--bounds-u")
    if not (files or args.preset):
        raise _UsageError("either --preset or --bounds-l/--bounds-u is required")
    if files and not (args.bounds_l and args.bounds_u):
        raise _UsageError("--bounds-l and --bounds-u must be given together")
    required, build = _PRESETS.get(args.preset, ((), None))
    source = f"--preset {args.preset}" if args.preset else "--bounds-l/--bounds-u"
    for name in ("rho", "rho_neg", "rho_pos", "graph"):
        flag, given = "--" + name.replace("_", "-"), getattr(args, name) is not None
        if given and name not in required:
            raise _UsageError(f"{flag} is not read by {source}")
        if name in required and not given:
            raise _UsageError(f"{source} requires {flag}")
    if build:
        return build(args, d)
    bounds = PenaltyBounds(dio.read_csv_matrix(args.bounds_l),
                           dio.read_csv_matrix(args.bounds_u))
    if bounds.dim != d:
        raise InvalidBoundsError(f"bounds are {bounds.dim} x {bounds.dim} but S is {d} x {d}")
    return bounds


class _UsageError(Exception):
    pass


def _parse_grid(text):
    try:
        if text.startswith("log:"):
            _, lo, hi, k = text.split(":")
            with np.errstate(invalid="ignore"):  # an infinite end: EbicConfig says so
                return default_grid(float(lo), float(hi), int(k))
        return [float(t) for t in text.split(",")]
    except ValueError:
        raise _UsageError(f"--grid {text!r} is neither a comma list of scale factors "
                          "(e.g. 0.1,0.5,1) nor log:lo:hi:k (e.g. log:0.01:1:20)") from None


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_fit_artifacts(outdir, s, result, ebic_config, **extra):
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
        "ebic": ebic(s, result, ebic_config.n, ebic_config.gamma) if ebic_config else None,
        **extra,
    }
    _write_json(outdir / "summary.json", summary)


def cmd_fit(args):
    s, n = _load_input(args)
    bounds = _load_bounds(args, s.shape[0])
    # Built without --n too, so that a bad --gamma is always an input error.
    ebic_config = EbicConfig(n=1 if n is None else n, gamma=args.gamma)
    config = SolverConfig(dual_gap_tol=args.tol, max_sweeps=args.max_sweeps)
    result = fit(s, bounds, config=config)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    extra = {}
    if args.preset == "mtp2":
        extra["mMatrix"] = bool(is_m_matrix(result.khat, tol=1e-8))
    _write_fit_artifacts(outdir, s, result, None if n is None else ebic_config, **extra)
    if args.graphml:
        dio.write_graphml(outdir / "graph.graphml", result.khat)
    return EXIT_OK


def cmd_path(args):
    s, n = _load_input(args)
    if n is None:
        raise _UsageError("path needs a sample size: use --input-kind data or --n")
    bounds = _load_bounds(args, s.shape[0])
    grid = {} if args.grid is None else {"grid": _parse_grid(args.grid)}
    config = EbicConfig(n=n, gamma=args.gamma, **grid)
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
                         edgeCount=path_result.fits[i].edge_count,
                         dualGap=path_result.fits[i].dual_gap)
        per_point.append(entry)
    _write_json(outdir / "path.json", {
        "grid": list(config.grid),
        "gamma": args.gamma,
        "selectedIndex": path_result.selected_index,
        "selectedRho": config.grid[path_result.selected_index],
        "points": per_point,
    })
    _write_fit_artifacts(outdir, s, path_result.selected_fit, config)
    return EXIT_OK


def cmd_mde(args):
    if not args.graph:
        raise _UsageError("mde requires --graph")
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
    r = dio.skeptic_correlation(_read_data(args))
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
        with _one_blas_thread():
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
    except (ValueError, OSError, NonpositiveDiagonalError, InvalidBoundsError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GolazoError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
