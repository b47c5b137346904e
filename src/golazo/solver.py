"""Block-coordinate descent on the dual of the (L, U)-penalized likelihood.

The primal problem is

    minimize  -log det K + tr(S K) + |K|_LU      over K positive definite

whose dual is

    maximize  log det Sigma + d     subject to  S + L <= Sigma <= S + U.

The solver keeps a dually feasible Sigma, sweeps its rows cyclically, and
for each row solves a box-constrained QP in the off-diagonal entries.  The
duality gap tr(S K) - d + |K|_LU (with K = Sigma^{-1}) certifies optimality.
"""
from dataclasses import dataclass

import numpy as np

from . import linalg
from .boxqp import BoxQP, solve_boxqp
from .errors import (
    DegenerateCorrelationError,
    MaxSweepsExceededError,
    NoFeasibleStartError,
    NotUnitDiagonalError,
)
from .penalty import PenaltyBounds, clip_to_finite, golazo_norm

# An entry of K counts as a nonzero edge when its magnitude exceeds this.
EDGE_THRESHOLD = 1e-6

# KKT tolerance of each row's box QP.
QP_TOL = 1e-10

# Largest per-pair KKT residual (see ``kkt_residuals``) a fit may end with.
KKT_TOL = 1e-6


@dataclass(frozen=True)
class SolverConfig:
    dual_gap_tol: float = 1e-8
    max_sweeps: int = 1000

    def __post_init__(self):
        if self.dual_gap_tol <= 0:
            raise ValueError("dual_gap_tol must be positive")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be at least 1")


@dataclass(frozen=True)
class FitResult:
    khat: np.ndarray
    sigma_hat: np.ndarray
    dual_gap: float
    sweeps: int
    gap_trace: list
    sign_pattern: np.ndarray
    clipped_bounds: PenaltyBounds
    isolated_rows: tuple = ()

    @property
    def edge_count(self):
        return int(np.count_nonzero(np.triu(self.sign_pattern, 1)))

    def edges(self):
        return linalg.upper_pairs(self.sign_pattern != 0)


def duality_gap(s, k, bounds):
    """tr(S K) - d + |K|_LU; bounds should already be clipped to finite."""
    s = np.asarray(s, dtype=float)
    k = np.asarray(k, dtype=float)
    return float(np.sum(s * k)) - s.shape[0] + golazo_norm(k, bounds)


def kkt_residuals(s, result, edge_threshold=EDGE_THRESHOLD):
    """Per-pair violation of the optimality certificate.

    At the optimum, Sigma_ij - S_ij lies at L_ij when K_ij < 0, at U_ij when
    K_ij > 0, and anywhere in [L_ij, U_ij] when K_ij = 0.  Entries of K are
    branched by sign at ``edge_threshold``.  Uses the clipped bounds stored
    on the result.  Returns a symmetric matrix of residuals, zero diagonal.
    """
    return _pair_residuals(np.asarray(s, dtype=float), result.khat, result.sigma_hat,
                           result.clipped_bounds, edge_threshold)


def _pair_residuals(s, k, sigma, clipped, edge_threshold=EDGE_THRESHOLD):
    # Built in place: ``fit`` runs this on every converged iterate, and a
    # nested np.where would hold about six d x d temporaries at once.
    diff = sigma - s
    lo, hi = clipped.lower, clipped.upper
    res = np.maximum(lo - diff, 0.0)
    above = np.subtract(diff, hi)
    res += np.maximum(above, 0.0, out=above)
    neg = k < -edge_threshold
    res[neg] = np.abs(diff[neg] - lo[neg])
    pos = k > edge_threshold
    res[pos] = np.abs(diff[pos] - hi[pos])
    np.fill_diagonal(res, 0.0)
    return res


def single_linkage_matrix(r):
    """Max-min path closure of the positive part of a unit-diagonal matrix.

    Z_ij is the best bottleneck over all paths that only use strictly
    positive entries of r; zero when no such path connects i and j.
    Computed by a Floyd-Warshall-style closure, which is exact (entries of
    the result are entries of r, only comparisons are performed).
    """
    r = np.asarray(r, dtype=float)
    if np.any(np.diag(r) != 1.0):
        raise NotUnitDiagonalError("input must have unit diagonal")
    z = np.where(r > 0.0, r, 0.0)
    np.fill_diagonal(z, 1.0)
    d = r.shape[0]
    for k in range(d):
        via_k = np.minimum.outer(z[:, k], z[k, :])
        z = np.maximum(z, via_k)
    np.fill_diagonal(z, 1.0)
    return z


def _blend(s, target, bounds):
    """(1 - t) S + t T with S's exact diagonal, for the largest t <= 1 that
    keeps every off-diagonal step t (T - S)_ij inside [L_ij, U_ij]; None
    when that blend is not positive definite.  At t = 0 it is S, which
    ``_default_start`` passes only when S is not."""
    step = target - s
    up = step > 0.0
    down = step < 0.0
    t = min(1.0,
            float(np.min(bounds.upper[up] / step[up], initial=1.0)),
            float(np.min(bounds.lower[down] / step[down], initial=1.0)))
    sigma = (1.0 - t) * s + t * target
    np.fill_diagonal(sigma, np.diag(s))
    return sigma if linalg.is_positive_definite(sigma) else None


def _default_start(s, bounds):
    """A dually feasible, positive definite start: S if it is positive
    definite, else S blended toward diag(S), else toward its single-linkage
    matrix Z >= S, which is positive definite for U > 0 (Lauritzen, Uhler &
    Zwiernik 2019) unless a pair's 2 x 2 block of S fails the Cholesky pivot
    test; the first such pair in row-major order is reported.
    """
    if linalg.is_positive_definite(s):
        return s.copy()
    diag = np.diag(s)
    sigma = _blend(s, np.diag(diag), bounds)
    if sigma is not None:
        return sigma
    degenerate = s >= np.sqrt((1.0 - linalg.PIVOT_RTOL) * np.outer(diag, diag))
    bad = np.argwhere(np.triu(degenerate, 1))
    if bad.size:
        raise DegenerateCorrelationError(*(int(v) for v in bad[0]))
    scale = np.outer(np.sqrt(diag), np.sqrt(diag))
    r = s / scale
    np.fill_diagonal(r, 1.0)
    # Rounding can leave a Z_ij an ulp below S_ij, which would block the
    # blend wherever L_ij = 0.
    z = np.maximum(single_linkage_matrix(r) * scale, s)
    np.fill_diagonal(z, diag)
    sigma = _blend(s, z, bounds)
    if sigma is None:
        raise NoFeasibleStartError(
            "S is not positive definite, and neither its blend toward diag(S) "
            "nor toward its single-linkage matrix is a feasible positive definite start"
        )
    return sigma


def _components(s, clipped):
    """Connected components of the graph that links i and j when
    0 is outside [S_ij + L_ij, S_ij + U_ij], as one label per row.

    Across components Sigma_ij = 0 is feasible and K_ij = 0 meets the KKT
    conditions, so the problem splits exactly into one problem per
    component.  Labels count up in order of each component's smallest row.
    """
    link = (s + clipped.lower > 0.0) | (s + clipped.upper < 0.0)
    np.fill_diagonal(link, False)
    d = s.shape[0]
    label = np.full(d, -1)
    for j in range(d):
        if label[j] >= 0:
            continue
        comp = front = np.arange(d) == j
        while front.any():
            front = link[front].any(axis=0) & ~comp
            comp = comp | front
        label[comp] = label.max() + 1
    return label


def _certified(s, k, sigma, clipped, gap, gap_tol):
    """The duality gap is within ``gap_tol`` of 0 and, checked only then,
    every pair's KKT residual is within KKT_TOL.  The gap alone does not
    imply the second: near the gap tolerance an entry of K that is 0 at the
    optimum can still sit just past EDGE_THRESHOLD, which would report a
    spurious edge.  A gap below -gap_tol is impossible in exact arithmetic;
    it means K is too inaccurate to certify anything."""
    return (-gap_tol <= gap <= gap_tol
            and float(np.max(_pair_residuals(s, k, sigma, clipped))) <= KKT_TOL)


def _check_feasible(sigma, s, clipped, slack=1e-9):
    scale = 1.0 + float(np.max(np.abs(s)))
    return (np.all(sigma - s >= clipped.lower - slack * scale)
            and np.all(sigma - s <= clipped.upper + slack * scale))


def fit(s, bounds, config=None, sigma0=None, screen=True):
    """Run the block-coordinate dual ascent until the duality gap is within
    ``config.dual_gap_tol`` and every pair's KKT residual within KKT_TOL.

    ``sigma0`` optionally supplies a dually feasible starting point; when
    omitted one is constructed by ``_default_start``.
    Rows are solved only against the other members of their connected
    component (see ``_components``); rows alone in theirs are never
    touched and are reported as ``isolated_rows``.  ``screen=False`` treats
    all rows as one component (used in tests as the reference).
    """
    config = config or SolverConfig()
    s = linalg.check_square_symmetric(s)
    d = s.shape[0]
    clipped = clip_to_finite(bounds, s)
    label = _components(s, clipped) if screen else np.zeros(d, dtype=int)

    if sigma0 is None:
        sigma = _default_start(s, bounds)
    else:
        sigma = linalg.check_square_symmetric(sigma0)
        if not _check_feasible(sigma, s, clipped):
            raise NoFeasibleStartError("supplied sigma0 is not dually feasible")
        if not linalg.is_positive_definite(sigma):
            raise NoFeasibleStartError("supplied sigma0 is not positive definite")
    # A block diagonal of principal submatrices of a feasible PD start is
    # still feasible and PD.
    sigma = np.where(label[:, None] == label, sigma, 0.0)
    comps = [np.flatnonzero(label == c) for c in range(label.max() + 1)]

    # One box QP per row, built once: its matrix is Sigma itself, read in
    # place, so every solve sees the current iterate and nothing is copied.
    lo = s + clipped.lower
    hi = s + clipped.upper
    rows = []
    for members in comps:
        if members.size == 1:
            continue
        for j in members:
            keep = members[members != j]
            rows.append((j, keep, BoxQP(sigma, lo[j, keep], hi[j, keep], index=keep)))

    gap_trace = []
    sweeps = 0
    k = linalg.invert_pd(sigma)
    gap = duality_gap(s, k, clipped)
    gap_trace.append(gap)
    certified = _certified(s, k, sigma, clipped, gap, config.dual_gap_tol)

    while not certified and sweeps < config.max_sweeps:
        for j, keep, problem in rows:
            y = solve_boxqp(problem, tol=QP_TOL, y0=sigma[j, keep])
            sigma[j, keep] = y
            sigma[keep, j] = y
        sweeps += 1
        k = linalg.invert_pd(sigma)
        gap = duality_gap(s, k, clipped)
        gap_trace.append(gap)
        certified = _certified(s, k, sigma, clipped, gap, config.dual_gap_tol)

    sign = np.sign(k) * (np.abs(k) > EDGE_THRESHOLD)
    np.fill_diagonal(sign, 0)
    result = FitResult(
        khat=k,
        sigma_hat=sigma,
        dual_gap=gap,
        sweeps=sweeps,
        gap_trace=gap_trace,
        sign_pattern=sign.astype(int),
        clipped_bounds=clipped,
        isolated_rows=tuple(int(m[0]) for m in comps if m.size == 1),
    )
    if not certified:
        raise MaxSweepsExceededError(result)
    return result
