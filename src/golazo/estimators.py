"""Graph-aware estimators: graph-constrained MLE, the edge-positivity dual
step, the two-step estimator for locally associated models, and the
membership checks and divergences used to certify them.
"""
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import MdeStep1FailedError, GolazoError
from .penalty import (
    dual_positivity_bounds,
    ggm_bounds,
    zero_equality_bounds,
)
from .solver import SolverConfig, fit


@dataclass(frozen=True)
class GraphSpec:
    """Undirected graph on vertices 0..d-1, stored as sorted edge pairs."""

    d: int
    edges: frozenset

    def __init__(self, d, edges=()):
        if d < 1:
            raise ValueError("vertex count must be at least 1")
        norm = set()
        for i, j in edges:
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if not (0 <= i < d and 0 <= j < d):
                raise ValueError(f"edge ({i}, {j}) out of range for d = {d}")
            norm.add((min(i, j), max(i, j)))
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "edges", frozenset(norm))

    def has_edge(self, i, j):
        return (min(i, j), max(i, j)) in self.edges

    def sorted_edges(self):
        return sorted(self.edges)

    @classmethod
    def complete(cls, d):
        return cls(d, [(i, j) for i in range(d) for j in range(i + 1, d)])

    @classmethod
    def empty(cls, d):
        return cls(d, [])

    @classmethod
    def chain(cls, d):
        return cls(d, [(i, i + 1) for i in range(d - 1)])

    @classmethod
    def cycle(cls, d):
        edges = [(i, i + 1) for i in range(d - 1)]
        if d > 2:
            edges.append((0, d - 1))
        return cls(d, edges)

    @classmethod
    def from_support(cls, k, threshold=1e-6):
        """Graph of off-diagonal entries of k with magnitude above threshold."""
        k = np.asarray(k)
        return cls(k.shape[0], linalg.upper_pairs(np.abs(k) > threshold))

    def complement(self):
        missing = np.ones((self.d, self.d), dtype=bool)
        if self.edges:
            missing[tuple(np.array(list(self.edges)).T)] = False
        return GraphSpec(self.d, linalg.upper_pairs(missing))


@dataclass(frozen=True)
class MdeResult:
    khat: np.ndarray          # step-1 precision estimate (graph MLE)
    sigma_hat: np.ndarray     # its inverse
    sigma_check: np.ndarray   # step-2 covariance estimate
    kcheck: np.ndarray        # its inverse
    conditions_report: dict   # residual per optimality condition

    def max_residual(self):
        return max(self.conditions_report.values())


def gaussian_neg_loglik(s, k):
    """-(1/2) log det K + (1/2) tr(S K); per-observation negative likelihood."""
    _, logdet = linalg.cholesky_logdet(k)
    return -0.5 * logdet + 0.5 * float(np.sum(np.asarray(s) * np.asarray(k)))


def kl_gaussian(sigma1, k2):
    """KL divergence between centered Gaussians, first given by covariance
    sigma1 and second by precision k2:  (1/2) tr(sigma1 k2 - I) -
    (1/2) log det(sigma1 k2)."""
    sigma1 = np.asarray(sigma1, dtype=float)
    k2 = np.asarray(k2, dtype=float)
    d = sigma1.shape[0]
    _, ld1 = linalg.cholesky_logdet(sigma1)
    _, ld2 = linalg.cholesky_logdet(k2)
    trace = float(np.sum(sigma1 * k2))
    return 0.5 * (trace - d) - 0.5 * (ld1 + ld2)


def is_locally_associated(sigma, graph, tol=0.0):
    """PD with nonnegative covariance on every edge of the graph."""
    sigma = np.asarray(sigma, dtype=float)
    for i, j in graph.edges:
        if sigma[i, j] < -tol:
            return False
    return linalg.is_positive_definite(sigma)


def is_markov(k, graph, tol=0.0):
    """Precision matrix vanishes off the graph's edges."""
    k = np.asarray(k, dtype=float)
    for i, j in graph.complement().edges:
        if abs(k[i, j]) > tol:
            return False
    return True


def ggm_mle(s, graph, config=None, sigma0=None):
    """MLE of the precision matrix under zero constraints off the graph.

    At the optimum Sigma matches S on the diagonal and the edges, and K
    vanishes off the graph.
    """
    bounds = ggm_bounds(graph)
    return fit(s, bounds, config=config, sigma0=sigma0)


def dual_mle_edge_positivity(khat, graph, config=None):
    """Solve  min -log det Sigma + tr(Sigma Khat)  s.t. Sigma >= 0 on edges.

    Implemented by the same dual solver with roles swapped: the "data"
    matrix is khat and the variable plays the role of Sigma.  Returns the
    optimal Sigma (the primal optimizer of the swapped problem).
    """
    khat = linalg.check_square_symmetric(khat)
    bounds = dual_positivity_bounds(graph)
    result = fit(khat, bounds, config=config)
    return result.khat  # primal variable of the swapped problem = Sigma-check


def _mde_conditions(s, graph, khat, sigma_hat, sigma_check, kcheck):
    """Residuals of the seven-condition optimality system certifying the
    two-step estimate."""
    res = {k: 0.0 for k in ("i", "ii", "iii", "iv", "v", "vi", "vii")}
    d = graph.d
    for i, j in graph.edges:
        res["i"] = max(res["i"], -sigma_check[i, j])
        res["ii"] = max(res["ii"], abs(sigma_hat[i, j] - s[i, j]))
        res["v"] = max(res["v"], kcheck[i, j] - khat[i, j])
        slack = abs(sigma_check[i, j]) * abs(khat[i, j] - kcheck[i, j])
        res["vii"] = max(res["vii"], slack / (1.0 + abs(sigma_check[i, j]) + abs(khat[i, j])))
    for i in range(d):
        res["iii"] = max(res["iii"], abs(sigma_hat[i, i] - s[i, i]))
        res["vi"] = max(res["vi"], abs(kcheck[i, i] - khat[i, i]))
    for i, j in graph.complement().edges:
        res["iv"] = max(res["iv"], abs(kcheck[i, j]), abs(khat[i, j]))
    return res


def mde(s, graph, config=None):
    """Two-step estimator for locally associated graphical models.

    Step 1 fits the graph-constrained MLE of the precision matrix; step 2
    projects, in dual likelihood, onto nonnegative edge covariances.  The
    result carries residuals of the full optimality system.
    """
    config = config or SolverConfig()
    try:
        step1 = ggm_mle(s, graph, config=config)
    except GolazoError as exc:
        raise MdeStep1FailedError(exc) from exc
    khat = step1.khat
    sigma_check = dual_mle_edge_positivity(khat, graph, config=config)
    kcheck = linalg.invert_pd(sigma_check)
    report = _mde_conditions(np.asarray(s, dtype=float), graph, khat,
                             step1.sigma_hat, sigma_check, kcheck)
    return MdeResult(
        khat=khat,
        sigma_hat=step1.sigma_hat,
        sigma_check=sigma_check,
        kcheck=kcheck,
        conditions_report=report,
    )


def mde_via_zero_pattern(s, graph, sigma_check, config=None):
    """Recompute the step-2 estimate through its sparsity pattern: constrain
    the covariance to vanish exactly where sigma_check does (within the
    graph's edges) and leave every other entry of the precision matrix at
    its step-1 value.  Used to certify the equivalence of the two
    formulations."""
    step1 = ggm_mle(s, graph, config=config)
    zero_pairs = [(i, j) for i, j in graph.edges if sigma_check[i, j] <= 1e-8]
    bounds = zero_equality_bounds(GraphSpec(graph.d, zero_pairs))
    result = fit(step1.khat, bounds, config=config)
    return result.khat
