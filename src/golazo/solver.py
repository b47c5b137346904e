"""Block-coordinate descent on the dual of the (L, U)-penalized likelihood.

The primal problem is

    minimize  -log det K + tr(S K) + |K|_LU      over K positive definite

whose dual is

    maximize  log det Sigma + d     subject to  S + L <= Sigma <= S + U.

The solver keeps a dually feasible Sigma and sweeps the rows of each
connected component cyclically, on a contiguous copy of the component's block
that goes back into Sigma after each sweep.  Row j's box QP spans its whole
block row with entry j free, which leaves the QP in the off-diagonal entries;
Sigma_jj is put back after the solve.  The duality gap tr(S K) - d + |K|_LU
(with K = Sigma^{-1}) certifies optimality.
"""
import numbers
from dataclasses import dataclass

import numpy as np

from . import linalg
from .boxqp import face_at, row_problems, solve_boxqp
from .errors import (
    DegenerateCorrelationError,
    InvalidBoundsError,
    MaxSweepsExceededError,
    NoFeasibleStartError,
)
from .penalty import clip_to_finite, golazo_norm

# An entry of K counts as a nonzero edge when its magnitude exceeds this.
EDGE_THRESHOLD = 1e-6

# Largest per-pair KKT residual (see ``kkt_residuals``) a fit may end with.
KKT_TOL = 1e-6


@dataclass(frozen=True)
class SolverConfig:
    dual_gap_tol: float = 1e-8
    max_sweeps: int = 1000

    def __post_init__(self):
        if not 0 < self.dual_gap_tol < np.inf:
            raise ValueError(f"dual_gap_tol must be positive and finite, got {self.dual_gap_tol}")
        _check_count("max_sweeps", self.max_sweeps)


def _check_count(name, value):
    """ValueError naming ``value`` unless it is an integer (a numpy one too,
    never a bool) of at least 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value!r}")


def _support(k):
    """Edges of K, |K_ij| > EDGE_THRESHOLD off the diagonal: where K is read as a graph."""
    mask = np.abs(k) > EDGE_THRESHOLD
    np.fill_diagonal(mask, False)
    return mask


@dataclass(frozen=True, eq=False)
class FitResult:
    """K, Sigma and the solve's scalars; signs and edges are read off K by ``_support``."""

    khat: np.ndarray
    sigma_hat: np.ndarray
    dual_gap: float
    sweeps: int
    gap_trace: list
    isolated_rows: tuple = ()

    @property
    def sign_pattern(self):
        return (np.sign(self.khat) * _support(self.khat)).astype(int)

    @property
    def edge_count(self):
        return int(np.count_nonzero(np.triu(_support(self.khat), 1)))

    def edges(self):
        return linalg.upper_pairs(_support(self.khat))


def duality_gap(s, k, bounds):
    """tr(S K) - d + |K|_LU; bounds should already be clipped to finite."""
    s = np.asarray(s, dtype=float)
    k = np.asarray(k, dtype=float)
    return float(np.sum(s * k)) - s.shape[0] + golazo_norm(k, bounds)


def kkt_residuals(s, result, bounds):
    """Per-pair violation of the optimality certificate of ``result``, the fit
    of S under ``bounds`` (clipped to finite here, as ``fit`` clips them).

    At the optimum, Sigma_ij - S_ij lies at L_ij when K_ij < 0, at U_ij when
    K_ij > 0, and anywhere in [L_ij, U_ij] when K_ij = 0.  Entries of K are
    branched by sign at EDGE_THRESHOLD.  Returns a symmetric matrix of
    residuals, zero diagonal.
    """
    s = np.asarray(s, dtype=float)
    return _pair_residuals(s, result.khat, result.sigma_hat, clip_to_finite(bounds, s))


def _pair_residuals(s, k, sigma, clipped):
    # Built in place: ``fit`` runs this on every converged iterate, and a
    # nested np.where would hold about six d x d temporaries at once.
    diff = sigma - s
    lo, hi = clipped.lower, clipped.upper
    res = np.maximum(lo - diff, 0.0)
    buf = np.subtract(diff, hi)
    res += np.maximum(buf, 0.0, out=buf)
    # Where K has a sign, the residual is the distance to the bound it sets.
    np.abs(np.subtract(diff, lo, out=buf), out=buf)
    np.copyto(res, buf, where=k < -EDGE_THRESHOLD)
    np.abs(np.subtract(diff, hi, out=buf), out=buf)
    np.copyto(res, buf, where=k > EDGE_THRESHOLD)
    np.fill_diagonal(res, 0.0)
    return res


def _single_linkage(r):
    """Max-min path closure of the positive part of a unit-diagonal matrix.

    Z_ij is the best bottleneck over all paths that only use strictly
    positive entries of r; zero when no such path connects i and j.
    Computed by a Floyd-Warshall-style closure, which is exact (entries of
    the result are entries of r, only comparisons are performed).
    """
    z = np.where(r > 0.0, r, 0.0)
    d = r.shape[0]
    for k in range(d):
        via_k = np.minimum.outer(z[:, k], z[k, :])
        z = np.maximum(z, via_k)
    return z


def _blend(s, target, bounds):
    """(1 - t) S + t T with S's exact diagonal, for the largest t <= 1 that
    keeps every off-diagonal step t (T - S)_ij inside [L_ij, U_ij]; None
    when that blend is not positive definite.  At t = 0 it is S."""
    step = target - s
    np.fill_diagonal(step, 0.0)  # the diagonal is S's, whatever T's is
    up = step > 0.0
    down = step < 0.0
    t = min(1.0,
            float(np.min(bounds.upper[up] / step[up], initial=1.0)),
            float(np.min(bounds.lower[down] / step[down], initial=1.0)))
    sigma = (1.0 - t) * s + t * target
    np.fill_diagonal(sigma, np.diag(s))
    return sigma if linalg.is_positive_definite(sigma) else None


def _default_start(s, bounds, start=None):
    """A dually feasible, positive definite start: S blended toward
    ``start`` when that blend is positive definite, else S if it is positive
    definite, else S blended toward diag(S), else toward its single-linkage
    matrix Z >= S, which is positive definite for U > 0 (Lauritzen, Uhler &
    Zwiernik 2019) unless a pair's 2 x 2 block of S fails the Cholesky pivot
    test; the first such pair in row-major order is reported.
    """
    sigma = None if start is None else _blend(s, start, bounds)
    if sigma is not None:
        return sigma
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
    z = np.maximum(_single_linkage(r) * scale, s)
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
    # Each row's smallest fellow member; searched only from rows with a
    # link, so a row alone is its own in one pass.
    root = np.arange(d)
    for j in np.flatnonzero(link.any(axis=1)).tolist():
        if root[j] < j:
            continue
        comp = front = np.arange(d) == j
        while front.any():
            front = link[front].any(axis=0) & ~comp
            comp = comp | front
        root[comp] = j
    return np.unique(root, return_inverse=True)[1]


def _certified(s, k, sigma, clipped, gap, gap_tol):
    """The duality gap is within ``gap_tol`` of 0 and, checked only then,
    every pair's KKT residual is within KKT_TOL.  The gap alone does not
    imply the second: near the gap tolerance an entry of K that is 0 at the
    optimum can still sit just past EDGE_THRESHOLD, which would report a
    spurious edge.  A gap below -gap_tol is impossible in exact arithmetic;
    it means K is too inaccurate to certify anything."""
    return (-gap_tol <= gap <= gap_tol
            and float(np.max(_pair_residuals(s, k, sigma, clipped))) <= KKT_TOL)


@linalg._one_blas_thread()  # entered anew on every call
def fit(s, bounds, config=None, screen=True, start=None):
    """Run the block-coordinate dual ascent until the duality gap is within
    ``config.dual_gap_tol`` and every pair's KKT residual within KKT_TOL.
    BLAS and LAPACK run on one thread throughout (``linalg._one_blas_thread``),
    so K does not depend on the machine's core count.

    Every fit starts from ``_default_start``.  Given ``start`` (a d x d
    matrix such as the ``sigma_hat`` of a nearby fit), that is S moved
    toward it by the largest step that keeps every off-diagonal entry in the
    box, with S's diagonal, when that is positive definite; a start inside
    the box is used as it is.  Otherwise it is S when S is positive
    definite, else S blended toward diag(S) or toward its single-linkage
    matrix.  Each connected component (see ``_components``) is swept on
    its own copied block of Sigma, written back after every sweep; rows
    alone in theirs are never touched and are reported as ``isolated_rows``.
    Each block's start entries on an end of their face are set to that end
    bit for bit.  Each row's QP starts from its face, carried in an int8
    matrix per block, and reads its pinned values from its row of the block.
    ``screen=False`` treats all rows as one component (used in tests as the
    reference).
    """
    config = config or SolverConfig()
    s = linalg.check_square_symmetric(s)
    d = s.shape[0]
    if bounds.dim != d:
        raise InvalidBoundsError(f"bounds are {bounds.dim} x {bounds.dim} but S is {d} x {d}")
    if start is not None:
        start = linalg.check_square_symmetric(start)
        if start.shape != s.shape:
            raise ValueError(f"start is {start.shape} but S is {d} x {d}")
    clipped = clip_to_finite(bounds, s)
    label = _components(s, clipped) if screen else np.zeros(d, dtype=int)

    # A block diagonal of principal submatrices of a feasible PD start is
    # still feasible and PD.
    sigma = np.where(label[:, None] == label, _default_start(s, bounds, start), 0.0)
    sizes = np.bincount(label)

    # One full-width box QP and one face per row of each block, built once.
    blocks = []
    for c in np.flatnonzero(sizes > 1).tolist():
        members = np.flatnonzero(label == c)
        ix = np.ix_(members, members)
        a, lower, upper = sigma[ix], s[ix] + clipped.lower[ix], s[ix] + clipped.upper[ix]
        np.fill_diagonal(lower, -np.inf)
        np.fill_diagonal(upper, np.inf)
        # A blended start can sit an ulp outside the box: each entry on
        # an end of its face takes that end's bits, so every row QP can
        # read its pinned values from its row.
        face = face_at(a, lower, upper)
        np.copyto(a, lower, where=face < 0)
        np.copyto(a, upper, where=face > 0)
        sigma[ix] = a
        blocks.append((ix, a, face, row_problems(a, lower, upper)))

    gap_trace = []
    sweeps = 0
    while True:
        k = linalg.invert_pd(sigma)
        gap = duality_gap(s, k, clipped)
        gap_trace.append(gap)
        certified = _certified(s, k, sigma, clipped, gap, config.dual_gap_tol)
        if certified or sweeps >= config.max_sweeps:
            break
        for ix, a, face, problems in blocks:
            for j, problem in enumerate(problems):
                y = solve_boxqp(problem, face[j], a[j])
                y[j] = a[j, j]
                a[j] = y
                a[:, j] = y
                face[:, j] = face[j]
            sigma[ix] = a
        sweeps += 1

    result = FitResult(
        khat=k,
        sigma_hat=sigma,
        dual_gap=gap,
        sweeps=sweeps,
        gap_trace=gap_trace,
        isolated_rows=tuple(np.flatnonzero(sizes[label] == 1).tolist()),
    )
    if not certified:
        raise MaxSweepsExceededError(result)
    return result
