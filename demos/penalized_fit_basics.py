"""Walkthrough of the core penalized fit.

We build a small covariance matrix, fit precision matrices under several
penalty presets, and verify the optimality certificate by hand.
"""
import numpy as np

import golazo as gz

rng = np.random.default_rng(0)

# A correlated 5-variable toy covariance.
a = rng.standard_normal((5, 10))
s = a @ a.T / 10
scale = np.sqrt(np.diag(s))
s = s / np.outer(scale, scale)
np.fill_diagonal(s, 1.0)

print("input correlation matrix:")
print(np.round(s, 3))

# Standard graphical lasso: symmetric penalty rho on every off-diagonal entry.
bounds = gz.glasso_bounds(0.15, 5)
res = gz.fit(s, bounds)
print("\nglasso(0.15) precision estimate:")
print(np.round(res.khat, 3))
print("edges:", res.edges())
print("duality gap:", res.dual_gap, "after", res.sweeps, "sweeps")

# The certificate: Sigma - S sits at the matching bound per sign of K.
print("max certificate residual:", np.max(gz.kkt_residuals(s, res, bounds)))

# Asymmetric penalty: punish negative partial correlations (positive K
# entries) harder than positive ones.
res_asym = gz.fit(s, gz.asymmetric_bounds(0.05, 0.4, 5))
print("\nasymmetric(0.05, 0.4) edge count:", res_asym.edge_count)

# Positive-only penalty: L = 0 leaves positive partial correlations free.
res_pos = gz.fit(s, gz.positive_glasso_bounds(0.15, 5))
print("positive(0.15) edge count:", res_pos.edge_count)

# The gap trace is monotone, a quick sanity check on the dual ascent.
print("\ngap trace:", ["%.2e" % g for g in res.gap_trace])
