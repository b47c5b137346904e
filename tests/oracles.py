"""Independent reference implementations used only to cross-check the
package.  Each oracle deliberately uses a different algorithm than the code
under test (brute force, projected gradient, a primal active-set method,
proximal gradient, iterative proportional scaling, path enumeration).
"""
import itertools

import numpy as np

from golazo import linalg
from golazo.errors import (
    DegenerateCorrelationError,
    MaxIterationsExceededError,
    NoFeasibleStartError,
    NotPositiveDefiniteError,
)
from golazo.estimators import GraphSpec, ggm_mle
from golazo.linalg import PIVOT_RTOL
from golazo.penalty import PenaltyBounds
from golazo.solver import fit, single_linkage_matrix


def bruteforce_det(a):
    """Determinant by cofactor expansion along the first row."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if n == 1:
        return a[0, 0]
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += ((-1.0) ** j) * a[0, j] * bruteforce_det(minor)
    return total


def projected_gradient_boxqp(w, lower, upper, iters=100_000):
    """min y'Wy on the box by projected gradient with step 1/(2 lambda_max)."""
    w = np.asarray(w, dtype=float)
    lam = float(np.max(np.linalg.eigvalsh(w)))
    step = 1.0 / (2.0 * lam)
    y = np.clip(np.zeros(w.shape[0]), lower, upper)
    for _ in range(iters):
        y = np.clip(y - step * 2.0 * (w @ y), lower, upper)
    return y


def active_set_boxqp(a, lower, upper, tol=1e-10, y0=None, max_iter=None):
    """min y'A^{-1}y on the box by a primal active-set method on the explicit
    matrix A: at each step it solves the current face exactly, then either
    adds the first blocking bound or releases the bound with the most
    negative multiplier.  Returns y and the number of face solves."""
    a = np.asarray(a, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    n = lower.size
    if max_iter is None:
        max_iter = 50 * (n + 5)
    y = np.zeros(n) if y0 is None else np.asarray(y0, dtype=float).ravel()
    y = y.clip(lower, upper)
    y = np.where(np.isfinite(y), y, np.where(np.isfinite(lower), lower, 0.0)).clip(lower, upper)
    pinned = lower == upper
    state = np.where(pinned | (y <= lower), -1, np.where(y >= upper, 1, 0))
    finite_lower = np.isfinite(lower)
    finite_upper = np.isfinite(upper)

    for faces in range(1, max_iter + 1):
        free = state == 0
        fixed = (~free).nonzero()[0]
        y_c = np.where(state[fixed] == -1, lower[fixed], upper[fixed])
        target, z = np.zeros(n), np.zeros(0)
        if fixed.size:
            acc = a[np.ix_(fixed, fixed)]
            try:
                z = linalg.solve_pd(acc, y_c)
            except NotPositiveDefiniteError:
                ridge = 1e-10 * float(a.diagonal().sum()) / n
                z = linalg.solve_pd(acc + ridge * np.eye(fixed.size), y_c)
            target = a[:, fixed] @ z
            target[fixed] = y_c
        step = target - y
        # Largest feasible fraction of the step before a bound blocks it,
        # over the free coordinates that move toward a finite bound; the
        # lowest index wins ties.
        up = free & (step > 0) & finite_upper
        moving = (up | (free & (step < 0) & finite_lower)).nonzero()[0]
        if moving.size:
            ratio = (np.where(up[moving], upper[moving], lower[moving])
                     - y[moving]) / step[moving]
            k = ratio.argmin()
            if ratio[k] < 1.0 - 1e-15:
                blocker = moving[k]
                y = (y + max(ratio[k], 0.0) * step).clip(lower, upper)
                state[blocker] = 1 if up[blocker] else -1
                continue
        y = target.clip(lower, upper)

        # On the face optimum: release the active bound with the worst
        # multiplier; equality-pinned coordinates are never released.
        if not fixed.size:
            return y, faces
        viol = np.where(state[fixed] == -1, -2.0 * z, 2.0 * z)
        viol[pinned[fixed]] = -np.inf
        k = viol.argmax()
        if not viol[k] > tol:
            return y, faces
        state[fixed[k]] = 0

    raise MaxIterationsExceededError(y)


def _soft_threshold_offdiag(a, t):
    out = np.sign(a) * np.maximum(np.abs(a) - t, 0.0)
    np.fill_diagonal(out, np.diag(a))
    return out


def glasso_kkt_residual(s, k, rho, zero_tol=1e-10, grad=None):
    """Max subgradient-condition violation of the primal lasso-penalized
    likelihood at k."""
    if grad is None:
        grad = np.asarray(s, dtype=float) - np.linalg.inv(k)
    pos = np.abs(grad + rho) * (k > zero_tol)
    neg = np.abs(grad - rho) * (k < -zero_tol)
    zero = np.maximum(np.abs(grad) - rho, 0.0) * (np.abs(k) <= zero_tol)
    off = pos + neg + zero
    np.fill_diagonal(off, 0.0)
    return max(float(np.max(np.abs(np.diag(grad)))), float(np.max(off)))


def prox_gradient_glasso(s, rho, max_iter=200_000, kkt_tol=1e-9):
    """Primal proximal-gradient (ISTA with backtracking) solver for

        min -log det K + tr(S K) + rho * sum_{i != j} |K_ij|

    used as an independent check of the dual block-coordinate solver.
    Terminates on the subgradient optimality residual, so its accuracy does
    not depend on the step size.
    """
    s = np.asarray(s, dtype=float)
    d = s.shape[0]
    k = np.linalg.inv(s + rho * np.eye(d))
    z = k.copy()
    theta = 1.0
    lips = float(np.max(np.linalg.eigvalsh(s + rho * np.eye(d))) ** 2)
    t = 1.0 / lips

    def smooth(km):
        sign, logdet = np.linalg.slogdet(km)
        if sign <= 0:
            return np.inf
        return -logdet + float(np.sum(s * km))

    for _ in range(max_iter):
        grad_k = s - np.linalg.inv(k)
        if glasso_kkt_residual(s, k, rho, grad=grad_k) < kkt_tol:
            break
        grad = s - np.linalg.inv(z) if theta > 1.0 else grad_k
        f_z = smooth(z)
        while True:
            cand = _soft_threshold_offdiag(z - t * grad, t * rho)
            cand = (cand + cand.T) / 2.0
            f_cand = smooth(cand)
            quad = (f_z + np.sum(grad * (cand - z))
                    + np.sum((cand - z) ** 2) / (2.0 * t))
            if np.isfinite(f_cand) and f_cand <= quad + 1e-13:
                break
            t *= 0.5
        theta_new = (1.0 + np.sqrt(1.0 + 4.0 * theta * theta)) / 2.0
        momentum = (theta - 1.0) / theta_new
        z = cand + momentum * (cand - k)
        if np.sum(grad * (cand - k)) > 0:  # adaptive restart
            z = cand.copy()
            theta_new = 1.0
        k = cand
        theta = theta_new
    return k


def ips_ggm(s, edges, d, max_iter=20_000, tol=1e-12):
    """Iterative proportional scaling over edge and vertex marginals for the
    Gaussian model with zero precision entries off the edge set."""
    s = np.asarray(s, dtype=float)
    k = np.diag(1.0 / np.diag(s))
    cliques = [list(e) for e in edges] + [[v] for v in range(d)]
    for _ in range(max_iter):
        sigma = np.linalg.inv(k)
        worst = 0.0
        for c in cliques:
            idx = np.ix_(c, c)
            worst = max(worst, float(np.max(np.abs(sigma[idx] - s[idx]))))
        if worst < tol:
            break
        for c in cliques:
            idx = np.ix_(c, c)
            sigma = np.linalg.inv(k)
            k[idx] += np.linalg.inv(s[idx]) - np.linalg.inv(sigma[idx])
    return (k + k.T) / 2.0


def bruteforce_single_linkage(r):
    """Max over all simple paths of the minimum positive edge weight."""
    r = np.asarray(r, dtype=float)
    d = r.shape[0]
    z = np.eye(d)
    for i in range(d):
        for j in range(d):
            if i == j:
                continue
            best = 0.0
            inner = [v for v in range(d) if v not in (i, j)]
            for count in range(len(inner) + 1):
                for mid in itertools.permutations(inner, count):
                    path = (i, *mid, j)
                    weights = [r[a, b] for a, b in zip(path, path[1:])]
                    if all(w > 0 for w in weights):
                        best = max(best, min(weights))
            z[i, j] = best
    np.fill_diagonal(z, 1.0)
    return z


def random_pd(rng, d, extra=0.0):
    a = rng.standard_normal((d, 2 * d))
    return a @ a.T / (2 * d) + extra * np.eye(d)


def random_correlation(rng, d, extra=0.05):
    s = random_pd(rng, d, extra)
    scale = np.sqrt(np.diag(s))
    r = s / np.outer(scale, scale)
    np.fill_diagonal(r, 1.0)
    return (r + r.T) / 2.0


def chain_er_correlation(rng, d, n, p=0.05):
    """Sample correlation of n draws from N(0, K^{-1}), where K is a chain
    plus Erdos-Renyi(p) edges with weights -U(0.1, 0.3), made diagonally
    dominant."""
    k = np.zeros((d, d))
    k[np.arange(d - 1), np.arange(1, d)] = -rng.uniform(0.1, 0.3, d - 1)
    iu, ju = np.triu_indices(d, 2)
    pick = rng.random(iu.size) < p
    k[iu[pick], ju[pick]] = -rng.uniform(0.1, 0.3, int(pick.sum()))
    k = k + k.T
    np.fill_diagonal(k, np.abs(k).sum(axis=1) + 0.1)
    x = rng.standard_normal((n, d)) @ np.linalg.cholesky(np.linalg.inv(k)).T
    r = np.corrcoef(x, rowvar=False)
    r = (r + r.T) / 2.0
    np.fill_diagonal(r, 1.0)
    return r


def near_collinear_correlation(gap, seed=5, n=50):
    """Sample correlation of n draws of four columns whose first two are
    equal, with the correlation of that pair set to 1 - gap."""
    x = np.random.default_rng(seed).standard_normal((n, 4))
    x[:, 1] = x[:, 0]
    r = np.corrcoef(x, rowvar=False)
    r = (r + r.T) / 2.0
    np.fill_diagonal(r, 1.0)
    r[0, 1] = r[1, 0] = 1.0 - gap
    return r


def forced_pair_bounds(rng, s, rho, frac=0.3):
    """Glasso bounds at rho, widened on a random subset of pairs to
    +-1.5 (|S_ij| + sqrt(S_ii S_jj)), which forces K_ij = 0 there."""
    d = s.shape[0]
    root = np.sqrt(np.outer(np.diag(s), np.diag(s)))
    pick = np.triu(rng.random((d, d)) < frac, 1)
    wide = np.where(pick | pick.T, 1.5 * (np.abs(s) + root), rho)
    np.fill_diagonal(wide, 0.0)
    return PenaltyBounds(-wide, wide)


def random_graph(rng, d, p=0.5):
    edges = [(i, j) for i in range(d) for j in range(i + 1, d) if rng.random() < p]
    return edges


def loop_isolated_rows(s, clipped):
    """Rows whose every off-diagonal dual box contains 0, scanned row by row."""
    d = s.shape[0]
    lo = s + clipped.lower
    hi = s + clipped.upper
    rows = []
    for j in range(d):
        mask = np.arange(d) != j
        if np.all(lo[j, mask] <= 0.0) and np.all(hi[j, mask] >= 0.0):
            rows.append(j)
    return rows


def loop_components(s, clipped):
    """Component label per row of the graph linking i != j when the dual box
    [S_ij + L_ij, S_ij + U_ij] excludes 0, by depth-first search over pairs;
    labels count up in order of each component's smallest row."""
    d = s.shape[0]

    def linked(i, j):
        return i != j and not (s[i, j] + clipped.lower[i, j] <= 0.0
                               <= s[i, j] + clipped.upper[i, j])

    label = [-1] * d
    count = 0
    for root in range(d):
        if label[root] >= 0:
            continue
        stack = [root]
        label[root] = count
        while stack:
            i = stack.pop()
            for j in range(d):
                if label[j] < 0 and linked(i, j):
                    label[j] = count
                    stack.append(j)
        count += 1
    return label


def loop_forced_zero_pairs(s, bounds):
    """Pairs i < j whose box reaches past +-sqrt(S_ii S_jj), scanned in order."""
    d = s.shape[0]
    root = np.sqrt(np.outer(np.diag(s), np.diag(s)))
    pairs = []
    for i in range(d):
        for j in range(i + 1, d):
            if (bounds.lower[i, j] <= -s[i, j] - root[i, j]
                    and bounds.upper[i, j] >= -s[i, j] + root[i, j]):
                pairs.append((i, j))
    return pairs


def loop_blend_weight(s, target, bounds):
    """Largest t <= 1 keeping every off-diagonal step t (T - S)_ij inside
    [L_ij, U_ij], scanned pair by pair."""
    d = s.shape[0]
    t = 1.0
    for i in range(d):
        for j in range(d):
            step = target[i, j] - s[i, j]
            if i == j or step == 0.0:
                continue
            if step > 0:
                t = min(t, bounds.upper[i, j] / step)
            else:
                t = min(t, bounds.lower[i, j] / step)
    return t


def loop_degenerate_pair(s):
    """First pair i < j, in row-major order, whose 2 x 2 block fails the
    Cholesky pivot test, or None."""
    d = s.shape[0]
    for i in range(d):
        for j in range(i + 1, d):
            if s[i, j] >= np.sqrt((1.0 - PIVOT_RTOL) * (s[i, i] * s[j, j])):
                return i, j
    return None


# The three starting-point constructions that ``solver._default_start``
# replaced, kept as references: the diagonal blend for L < 0 < U, the
# single-linkage blend for U > 0 (whose diagonal is sqrt(S_ii)^2, not S_ii)
# and the dispatch between them.  Only the two error classes that no longer
# exist became NoFeasibleStartError.

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
        raise NoFeasibleStartError("diagonal-blend start needs L < 0 < U off-diagonal")
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
    degenerate = s >= np.sqrt((1.0 - linalg.PIVOT_RTOL) * np.outer(diag, diag))
    bad = np.argwhere(np.triu(degenerate | (bounds.upper == 0.0), 1))
    if bad.size:
        i, j = (int(v) for v in bad[0])
        if degenerate[i, j]:
            raise DegenerateCorrelationError(i, j)
        raise NoFeasibleStartError(
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


def reference_start(s, bounds):
    """S if positive definite, else the diagonal blend for L < 0 < U, else
    the single-linkage blend for U > 0, else NoFeasibleStartError."""
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


def loop_kendall_tau(x, variant="a"):
    """Kendall correlation by direct pair enumeration: one dense n x n sign
    matrix per column, and a sum of their products for every column pair."""
    x = np.asarray(x, dtype=float)
    n, d = x.shape
    signs = [np.sign(x[:, None, j] - x[None, :, j]) for j in range(d)]
    tau = np.eye(d)
    for i in range(d):
        for j in range(i + 1, d):
            agree = float(np.sum(signs[i] * signs[j]))  # 2 * (concordant - discordant)
            if variant == "a":
                denom = n * (n - 1)
            else:
                ti = float(np.sum(np.abs(signs[i])))
                tj = float(np.sum(np.abs(signs[j])))
                denom = np.sqrt(ti * tj) if ti > 0 and tj > 0 else np.inf
            tau[i, j] = tau[j, i] = agree / denom
    return tau


def loop_support_pairs(k, threshold):
    """Pairs i < j with |k_ij| > threshold, scanned in row-major order."""
    d = k.shape[0]
    return [(i, j) for i in range(d) for j in range(i + 1, d) if abs(k[i, j]) > threshold]


def loop_complement_pairs(d, edges):
    """Pairs i < j not in the set of normalized edges, in row-major order."""
    return [(i, j) for i in range(d) for j in range(i + 1, d) if (i, j) not in edges]


def loop_kkt_residuals(s, k, sigma, lower, upper, edge_threshold):
    """Per-pair KKT residual, pair by pair: |Sigma - S - L| where K < -t,
    |Sigma - S - U| where K > t, the distance outside [L, U] otherwise."""
    d = s.shape[0]
    res = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            if i == j:
                continue
            diff = sigma[i, j] - s[i, j]
            if k[i, j] < -edge_threshold:
                res[i, j] = abs(diff - lower[i, j])
            elif k[i, j] > edge_threshold:
                res[i, j] = abs(diff - upper[i, j])
            else:
                res[i, j] = max(lower[i, j] - diff, 0.0) + max(diff - upper[i, j], 0.0)
    return res


def loop_is_locally_associated(sigma, graph, tol=0.0):
    """PD with sigma_ij >= -tol on every edge i < j, edge by edge."""
    sigma = np.asarray(sigma, dtype=float)
    for i, j in graph.edges:
        if sigma[i, j] < -tol:
            return False
    return linalg.is_positive_definite(sigma)


def loop_is_markov(k, graph, tol=0.0):
    """|k_ij| <= tol on every non-edge i < j, pair by pair."""
    k = np.asarray(k, dtype=float)
    for i, j in loop_complement_pairs(graph.d, graph.edges):
        if abs(k[i, j]) > tol:
            return False
    return True


def loop_ggm_bounds(graph):
    """L = -inf, U = +inf off the graph and 0 on its edges, edge by edge."""
    d = graph.d
    lower = np.full((d, d), -np.inf)
    upper = np.full((d, d), np.inf)
    for i, j in graph.edges:
        lower[i, j] = lower[j, i] = 0.0
        upper[i, j] = upper[j, i] = 0.0
    np.fill_diagonal(lower, 0.0)
    np.fill_diagonal(upper, 0.0)
    return PenaltyBounds(lower, upper)


def loop_dual_positivity_bounds(graph):
    """L = -inf on the graph's edges, 0 elsewhere; U = 0, edge by edge."""
    d = graph.d
    lower = np.zeros((d, d))
    upper = np.zeros((d, d))
    for i, j in graph.edges:
        lower[i, j] = lower[j, i] = -np.inf
    return PenaltyBounds(lower, upper)


def loop_mde_conditions(s, graph, khat, sigma_hat, sigma_check, kcheck):
    """The seven two-step residuals as running maxima over edges i < j, the
    diagonal and non-edges i < j."""
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
    for i, j in loop_complement_pairs(d, graph.edges):
        res["iv"] = max(res["iv"], abs(kcheck[i, j]), abs(khat[i, j]))
    return res


def loop_graphml_edges(khat, threshold=1e-6):
    """1-based edges i < j with |k_ij| > threshold and their partial
    correlations, scanned pair by pair."""
    k = np.asarray(khat, dtype=float)
    d = k.shape[0]
    edges = {}
    for i in range(d):
        for j in range(i + 1, d):
            if abs(k[i, j]) > threshold:
                pcor = -k[i, j] / np.sqrt(k[i, i] * k[j, j])
                edges[(i + 1, j + 1)] = float(pcor)
    return edges


def zero_equality_bounds(graph):
    """Force the role-swapped variable to vanish on the given pairs
    (L = -inf, U = +inf on edges, unpenalized elsewhere)."""
    d = graph.d
    lower = np.zeros((d, d))
    upper = np.zeros((d, d))
    for i, j in graph.edges:
        lower[i, j] = lower[j, i] = -np.inf
        upper[i, j] = upper[j, i] = np.inf
    return PenaltyBounds(lower, upper)


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
