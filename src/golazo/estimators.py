"""Graph-aware estimators: graph-constrained MLE, the edge-positivity dual
step, the two-step estimator for locally associated models, and the
membership checks and the likelihood used to certify them.
"""
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import MdeStep1FailedError, GolazoError
from .penalty import dual_positivity_bounds, ggm_bounds
from .solver import SolverConfig, _support, fit


def _symmetric(mask):
    """Read-only mask | mask.T."""
    adjacency = mask | mask.T
    adjacency.flags.writeable = False
    return adjacency


@dataclass(frozen=True, eq=False)
class GraphSpec:
    """Undirected graph on vertices 0..d-1, held as one read-only, symmetric
    boolean ``adjacency`` matrix with a false diagonal.  ``edges`` and
    ``sorted_edges`` are views of its upper triangle as pairs i < j."""

    adjacency: np.ndarray

    def __init__(self, d, edges=()):
        if d < 1:
            raise ValueError("vertex count must be at least 1")
        pairs = np.array(list(edges) or np.empty((0, 2), dtype=np.intp))
        if pairs.dtype.kind not in "iu":
            raise ValueError(f"vertex indices must be integers, got {pairs.dtype} edges")
        i, j = pairs.T
        bad = (i == j) | (np.minimum(i, j) < 0) | (np.maximum(i, j) >= d)
        if bad.any():
            i, j = pairs[bad.argmax()].tolist()
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            raise ValueError(f"edge ({i}, {j}) out of range for d = {d}")
        mask = np.zeros((d, d), dtype=bool)
        mask[i, j] = True
        object.__setattr__(self, "adjacency", _symmetric(mask))

    @classmethod
    def _from_upper(cls, mask):
        """Graph on the pairs i < j where the square boolean mask is true."""
        graph = cls(len(mask))
        object.__setattr__(graph, "adjacency", _symmetric(np.triu(mask, 1)))
        return graph

    @property
    def d(self):
        return self.adjacency.shape[0]

    @property
    def edges(self):
        return frozenset(self.sorted_edges())

    def sorted_edges(self):
        return linalg.upper_pairs(self.adjacency)

    def __eq__(self, other):
        if not isinstance(other, GraphSpec):
            return NotImplemented
        return np.array_equal(self.adjacency, other.adjacency)

    def __hash__(self):
        return hash(self.adjacency.tobytes())

    @classmethod
    def chain(cls, d):
        return cls(d, [(i, i + 1) for i in range(d - 1)])

    @classmethod
    def from_support(cls, k):
        """Graph of the entries k_ij, i < j, with magnitude above EDGE_THRESHOLD."""
        return cls._from_upper(_support(np.asarray(k)))

    def complement(self):
        return GraphSpec._from_upper(~self.adjacency)


@dataclass(frozen=True, eq=False)
class MdeResult:
    khat: np.ndarray          # step-1 precision estimate (graph MLE)
    sigma_hat: np.ndarray     # its inverse
    sigma_check: np.ndarray   # step-2 covariance estimate, the inverse of kcheck
    kcheck: np.ndarray        # step-2 precision estimate, the dual iterate
    conditions_report: dict   # residual per optimality condition


def gaussian_neg_loglik(s, k):
    """-(1/2) log det K + (1/2) tr(S K); per-observation negative likelihood."""
    _, logdet = linalg.cholesky_logdet(k)
    return -0.5 * logdet + 0.5 * float(np.sum(np.asarray(s) * np.asarray(k)))


def is_locally_associated(sigma, graph, tol=0.0):
    """PD with nonnegative covariance on every edge of the graph."""
    _check_graph_size("Sigma", sigma, graph)
    sigma = np.asarray(sigma, dtype=float)
    if np.any(sigma[np.triu(graph.adjacency)] < -tol):
        return False
    return linalg.is_positive_definite(sigma)


def is_markov(k, graph, tol=0.0):
    """Precision matrix vanishes off the graph's edges."""
    _check_graph_size("K", k, graph)
    k = np.asarray(k, dtype=float)
    return not np.any(np.abs(k[np.triu(~graph.adjacency, 1)]) > tol)


def _check_graph_size(name, s, graph):
    """ValueError naming both sizes unless ``s`` is graph.d x graph.d."""
    shape = np.shape(s)
    if shape != (graph.d, graph.d):
        raise ValueError(f"the graph has {graph.d} vertices but {name} has shape {shape}")


def ggm_mle(s, graph, config=None):
    """MLE of the precision matrix under zero constraints off the graph.

    At the optimum Sigma matches S on the diagonal and the edges, and K
    vanishes off the graph.
    """
    _check_graph_size("S", s, graph)
    bounds = ggm_bounds(graph)
    return fit(s, bounds, config=config)


def dual_mle_edge_positivity(khat, graph, config=None):
    """Solve  min -log det Sigma + tr(Sigma Khat)  s.t. Sigma >= 0 on edges.

    Implemented by the same dual solver with roles swapped: the "data"
    matrix is khat, the primal variable plays the role of Sigma and the dual
    iterate that of its inverse.  Returns the pair (Sigma-check, K-check).
    K-check is dually feasible bit for bit: it equals khat on the diagonal
    and off the graph, and is at most khat on every edge.
    """
    _check_graph_size("khat", khat, graph)
    bounds = dual_positivity_bounds(graph)
    result = fit(khat, bounds, config=config)
    return result.khat, result.sigma_hat


def _largest(values):
    """Largest value, floored at +0.0: what a running max from 0.0 gives."""
    return max(0.0, float(np.max(values, initial=0.0)))


def _mde_conditions(s, graph, khat, sigma_hat, sigma_check, kcheck):
    """Residuals of the seven-condition optimality system certifying the
    two-step estimate: conditions on the edges (i < j), the diagonal and
    the non-edges (i < j)."""
    on = np.triu(graph.adjacency)
    off = np.triu(~graph.adjacency, 1)
    slack = np.abs(sigma_check[on]) * np.abs(khat[on] - kcheck[on])
    return {
        "i": _largest(-sigma_check[on]),
        "ii": _largest(np.abs(sigma_hat[on] - s[on])),
        "iii": _largest(np.abs(np.diag(sigma_hat) - np.diag(s))),
        "iv": _largest(np.maximum(np.abs(kcheck[off]), np.abs(khat[off]))),
        "v": _largest(kcheck[on] - khat[on]),
        "vi": _largest(np.abs(np.diag(kcheck) - np.diag(khat))),
        "vii": _largest(slack / (1.0 + np.abs(sigma_check[on]) + np.abs(khat[on]))),
    }


def mde(s, graph, config=None):
    """Two-step estimator for locally associated graphical models.

    Step 1 fits the graph-constrained MLE of the precision matrix; step 2
    projects, in dual likelihood, onto nonnegative edge covariances.  The
    result carries residuals of the full optimality system.
    """
    s = np.asarray(s, dtype=float)
    config = config or SolverConfig()
    try:
        step1 = ggm_mle(s, graph, config=config)  # a ValueError is not wrapped
    except GolazoError as exc:
        raise MdeStep1FailedError(exc) from exc
    khat = step1.khat
    sigma_check, kcheck = dual_mle_edge_positivity(khat, graph, config=config)
    report = _mde_conditions(s, graph, khat, step1.sigma_hat, sigma_check, kcheck)
    return MdeResult(
        khat=khat,
        sigma_hat=step1.sigma_hat,
        sigma_check=sigma_check,
        kcheck=kcheck,
        conditions_report=report,
    )

