"""Extended-BIC scoring and penalty-path selection over a grid of scale
factors applied to a base (L, U)."""
from dataclasses import dataclass, field

import numpy as np

from .errors import AllFitsFailedError, GolazoError
from .estimators import gaussian_neg_loglik
from .solver import SolverConfig, _check_count, fit


def default_grid(lo=0.01, hi=1.0, num=20):
    return list(np.geomspace(lo, hi, num))


@dataclass(frozen=True)
class EbicConfig:
    n: int
    gamma: float = 0.5
    grid: tuple = field(default_factory=lambda: tuple(default_grid()))

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        grid = tuple(float(g) for g in self.grid)
        if not np.isfinite(grid).all():
            raise ValueError(f"grid entries must be finite, got {grid}")
        if not grid or any(g <= 0 for g in grid):
            raise ValueError("grid must be nonempty with positive entries")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("grid must be strictly increasing")
        _check_count("sample size", self.n)
        object.__setattr__(self, "grid", grid)


@dataclass(frozen=True, eq=False)
class PathResult:
    selected_fit: object  # FitResult of the EBIC minimizer
    selected_index: int
    ebic_scores: list     # float or None per grid point
    edge_counts: list     # int or None per grid point
    dual_gaps: list       # float or None per grid point
    failures: dict        # grid index -> error message


def ebic(s, fit_result, n, gamma):
    """n * negloglik + |E| * (log n + 4 gamma log d); gamma = 0 is plain BIC."""
    k = fit_result.khat
    d = k.shape[0]
    edges = fit_result.edge_count
    return float(n * gaussian_neg_loglik(s, k) + edges * (np.log(n) + 4.0 * gamma * np.log(d)))


def fit_path(s, base_bounds, config, solver_config=None):
    """Fit one problem per grid point (rho * L, rho * U) and pick the EBIC
    minimizer.  Per-point failures are recorded and skipped.  Each point is
    scored as its fit ends, and only its scalars are kept: the walk holds
    the best fit so far and the last ``sigma_hat``, not one fit per point.

    The grid is walked from its largest scale down, and each fit starts from
    the ``sigma_hat`` of the last fit that succeeded, blended into the new
    box (``fit``'s ``start``).  On a scaled glasso box the blend step is
    rho_k / rho_{k+1}, so the pairs that were active land on the new bounds
    and each row QP starts near its optimal face.
    """
    solver_config = solver_config or SolverConfig()
    s = np.asarray(s, dtype=float)
    scores, edge_counts, dual_gaps = ([None] * len(config.grid) for _ in range(3))
    failures = {}
    best = start = None
    for i in reversed(range(len(config.grid))):
        try:
            result = fit(s, base_bounds.scaled(config.grid[i]), config=solver_config,
                         start=start)
        except GolazoError as exc:
            failures[i] = f"{type(exc).__name__}: {exc}"
            continue
        scores[i] = ebic(s, result, config.n, config.gamma)
        edge_counts[i], dual_gaps[i] = result.edge_count, result.dual_gap
        # <= keeps ties at the smallest index, as the walk runs downward.
        if best is None or scores[i] <= scores[best]:
            best, best_fit = i, result
        start, result = result.sigma_hat, None  # the next fit runs without this K
    failures = dict(sorted(failures.items()))
    if best is None:
        raise AllFitsFailedError(failures)
    return PathResult(selected_fit=best_fit, selected_index=best, ebic_scores=scores,
                      edge_counts=edge_counts, dual_gaps=dual_gaps, failures=failures)
