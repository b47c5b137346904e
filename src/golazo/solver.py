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
    BoundsNotStrictError,
    InfeasibleBoundsError,
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


def single_linkage_matrix_cov(s):
    """Single-linkage matrix on covariance scale: closure of the correlation
    matrix rescaled back by sqrt(S_ii S_jj)."""
    s = np.asarray(s, dtype=float)
    scale = np.sqrt(np.diag(s))
    r = s / np.outer(scale, scale)
    np.fill_diagonal(r, 1.0)
    return single_linkage_matrix(r) * np.outer(scale, scale)


def starting_point_interior(s, bounds):
    """Diagonal blend (1-t) S + t diag(S), feasible when L < 0 < U strictly."""
    s = np.asarray(s, dtype=float)
    if linalg.is_positive_definite(s):
        return s.copy()
    d = s.shape[0]
    off = ~np.eye(d, dtype=bool)
    if np.any(bounds.lower[off] == 0.0) or np.any(bounds.upper[off] == 0.0):
        raise BoundsNotStrictError("diagonal-blend start needs L < 0 < U off-diagonal")
    pos = off & (s > 0.0)
    neg = off & (s < 0.0)
    t = min(1.0,
            float(np.min(-bounds.lower[pos] / s[pos], initial=1.0)),
            float(np.min(bounds.upper[neg] / -s[neg], initial=1.0)))
    sigma0 = (1.0 - t) * s + t * np.diag(np.diag(s))
    if not linalg.is_positive_definite(sigma0):
        raise NoFeasibleStartError("diagonal-blend starting point is not positive definite")
    return sigma0


def starting_point_single_linkage(s, bounds):
    """Blend of S with its single-linkage matrix; feasible for L = 0 bounds."""
    s = np.asarray(s, dtype=float)
    d = s.shape[0]
    diag = np.diag(s)
    # A pair is degenerate when its 2 x 2 block fails the Cholesky pivot
    # test: S_ij^2 >= (1 - PIVOT_RTOL) S_ii S_jj, that is, a correlation
    # within about PIVOT_RTOL / 2 of 1.
    degenerate = s >= np.sqrt((1.0 - linalg.PIVOT_RTOL) * np.outer(diag, diag))
    # The first offending pair in row-major order decides which error is raised.
    bad = np.argwhere(np.triu(degenerate | (bounds.upper == 0.0), 1))
    if bad.size:
        i, j = (int(v) for v in bad[0])
        if degenerate[i, j]:
            raise DegenerateCorrelationError(i, j)
        raise InfeasibleBoundsError(
            f"single-linkage start needs U > 0 off-diagonal; U[{i},{j}] = 0"
        )
    if linalg.is_positive_definite(s):
        return s.copy()
    z = single_linkage_matrix_cov(s)
    delta = float(np.max(np.abs(z - s)))
    if delta == 0.0:
        return z
    off = ~np.eye(d, dtype=bool)
    rho = float(np.min(bounds.upper[off]))
    t = min(1.0, rho / delta)
    sigma0 = (1.0 - t) * s + t * z
    if not linalg.is_positive_definite(sigma0):
        raise NoFeasibleStartError("single-linkage starting point is not positive definite")
    return sigma0


def _default_start(s, bounds):
    d = s.shape[0]
    off = ~np.eye(d, dtype=bool)
    if linalg.is_positive_definite(s):
        return np.asarray(s, dtype=float).copy()
    if np.all(bounds.lower[off] < 0.0) and np.all(bounds.upper[off] > 0.0):
        return starting_point_interior(s, bounds)
    if np.all(bounds.upper[off] > 0.0):
        return starting_point_single_linkage(s, bounds)
    raise NoFeasibleStartError(
        "S is rank deficient and the bounds admit no generic starting point"
    )


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
    omitted one is constructed (S itself if positive definite, else the
    diagonal blend for strict bounds, else the single-linkage blend).
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
        khat=linalg.sym(k),
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
