"""Hard-constrained estimators: the M-matrix MLE and the graph-constrained
MLE, both expressed as limiting cases of the (L, U) penalty.
"""
import numpy as np

import golazo as gz

rng = np.random.default_rng(1)
a = rng.standard_normal((6, 12))
s = a @ a.T / 12
scale = np.sqrt(np.diag(s))
s = s / np.outer(scale, scale)
np.fill_diagonal(s, 1.0)

# M-matrix MLE: L = 0, U = +inf forces every off-diagonal K entry <= 0,
# i.e. all partial correlations nonnegative.
res = gz.fit(s, gz.mtp2_bounds(6))
print("M-matrix estimate? ", gz.is_m_matrix(res.khat, tol=1e-8))
print("off-diagonal max of K:", np.max(res.khat[~np.eye(6, dtype=bool)]))
# At the optimum Sigma dominates S entrywise, with equality on the support.
print("min of Sigma - S:", np.min(res.sigma_hat - s))

# Graph-constrained MLE: K is forced to vanish off a given edge set.
graph = gz.GraphSpec(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
mle = gz.ggm_mle(s, graph)
print("\ngraph:", graph.sorted_edges())
print("K restricted to the graph:")
print(np.round(mle.khat, 3))

# Moment conditions of the MLE: Sigma agrees with S on the diagonal and on
# every edge of the graph.
print("max |Sigma_ij - S_ij| on edges:",
      np.max(np.abs(mle.sigma_hat - s)[graph.adjacency]))
print("max off-graph |K_ij|:",
      np.max(np.abs(mle.khat)[graph.complement().adjacency]))

# The same machinery handles rank-deficient inputs through a single-linkage
# starting point, as long as no pair is perfectly correlated.
x = rng.standard_normal((2, 6))
s2 = x.T @ x / 2
low_rank = gz.fit(s2, gz.positive_glasso_bounds(0.1, 6))
print("\nrank-2 input solved, gap:", low_rank.dual_gap)
