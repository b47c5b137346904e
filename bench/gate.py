"""Correctness gate for one op, computed from the files the op wrote.

The certificates are recomputed here from the CSV outputs and the input
matrix, never read from ``summary.json``:

* the duality gap tr(S K) - d + |K|_LU <= the fit tolerance, on bounds
  clipped to finite values as the solver clips them;
* the KKT residual of every pair <= 1e-6, and K Sigma = I to 1e-6;
* ``edges.txt`` equals the support of K.

Where ``refs.json`` holds a reference for the seed, the edge set must equal
it and four fixed random bilinear forms u'Kv must match it to a relative
1e-6; the path's selected index must equal it.  Every check that fails adds
one message; an op with any message counts as failed.
"""
import hashlib
import json

import numpy as np

FIT_TOL = 1e-8           # the CLI's default --tol
GAP_SLACK = 1e-12        # summation order differs from the solver's
KKT_TOL = 1e-6
INVERSE_TOL = 1e-6
EDGE_THRESHOLD = 1e-6    # the solver's EDGE_THRESHOLD
M_MATRIX_TOL = 1e-8      # the tolerance `fit --preset mtp2` uses for mMatrix
MDE_TOL = 1e-6
K_REF_RTOL = 1e-6
R_REF_RTOL = 1e-10


def read_matrix(path):
    return np.loadtxt(path, delimiter=",", ndmin=2)


def read_edges(path):
    edges = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                i, j = (int(t) - 1 for t in line.split())
                edges.add((min(i, j), max(i, j)))
    return edges


def support(k):
    iu, ju = np.nonzero(np.triu(np.abs(k) > EDGE_THRESHOLD, 1))
    return set(zip(iu.tolist(), ju.tolist()))


def edges_sha256(edges):
    return hashlib.sha256(repr(sorted(edges)).encode()).hexdigest()


def probes(a):
    """u'Av for four fixed Gaussian probe pairs: a sketch of A."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([0, a.shape[0]])))
    u, v = rng.standard_normal((2, 4, a.shape[0]))
    return [float(x) for x in np.einsum("pi,ij,pj->p", u, a, v)]


def off_diagonal(d, value):
    m = np.full((d, d), float(value))
    np.fill_diagonal(m, 0.0)
    return m


def clip_bounds(s, lower, upper):
    """Every dually feasible Sigma has |Sigma_ij| < sqrt(S_ii S_jj), so
    U_ij <= sqrt(S_ii S_jj) - S_ij and L_ij >= -S_ij - sqrt(S_ii S_jj)."""
    root = np.sqrt(np.outer(np.diag(s), np.diag(s)))
    lo = np.minimum(np.maximum(lower, -s - root), 0.0)
    up = np.maximum(np.minimum(upper, root - s), 0.0)
    np.fill_diagonal(lo, 0.0)
    np.fill_diagonal(up, 0.0)
    return lo, up


def duality_gap(s, k, lo, up):
    terms = np.maximum(lo * k, up * k)
    np.fill_diagonal(terms, 0.0)
    return float(np.sum(s * k)) - s.shape[0] + float(np.sum(terms))


def kkt_residual(s, sigma, k, lo, up):
    """Largest violation of: Sigma - S at L where K < 0, at U where K > 0,
    inside [L, U] where K = 0 (K's sign taken at EDGE_THRESHOLD)."""
    diff = sigma - s
    with np.errstate(invalid="ignore"):
        res = np.where(k < -EDGE_THRESHOLD, np.abs(diff - lo),
                       np.where(k > EDGE_THRESHOLD, np.abs(diff - up),
                                np.maximum(lo - diff, 0.0) + np.maximum(diff - up, 0.0)))
    np.fill_diagonal(res, 0.0)
    return float(np.max(res))


def _near(values, ref, rtol):
    return len(values) == len(ref) and all(abs(a - b) <= rtol * (1.0 + abs(b))
                                           for a, b in zip(values, ref))


def check_fit(outdir, s, lower, upper, fail, ref=None):
    """Certificate of a fit written by `fit` or `path`; returns K."""
    k = read_matrix(outdir / "Khat.csv")
    sigma = read_matrix(outdir / "Sigma.csv")
    summary = json.loads((outdir / "summary.json").read_text())
    lo, up = clip_bounds(s, lower, upper)
    gap = duality_gap(s, k, lo, up)
    if not gap <= FIT_TOL + GAP_SLACK:
        fail(f"{outdir.name}: duality gap {gap:.3e} > {FIT_TOL:g}")
    kkt = kkt_residual(s, sigma, k, lo, up)
    if not kkt <= KKT_TOL:
        fail(f"{outdir.name}: KKT residual {kkt:.3e} > {KKT_TOL:g}")
    inv = float(np.max(np.abs(k @ sigma - np.eye(k.shape[0]))))
    if not inv <= INVERSE_TOL:
        fail(f"{outdir.name}: |K Sigma - I| = {inv:.3e}")
    edges = support(k)
    if read_edges(outdir / "edges.txt") != edges:
        fail(f"{outdir.name}: edges.txt differs from the support of Khat.csv")
    if summary["edgeCount"] != len(edges) or not summary["dualGap"] <= FIT_TOL:
        fail(f"{outdir.name}: summary.json disagrees with the outputs")
    if ref is not None:
        if edges_sha256(edges) != ref["edges_sha256"]:
            fail(f"{outdir.name}: edge set differs from the reference "
                 f"({len(edges)} edges, reference {ref['edge_count']})")
        if not _near(probes(k), ref["k_probes"], K_REF_RTOL):
            fail(f"{outdir.name}: K differs from the reference")
    return k


def fit_reference(outdir):
    k = read_matrix(outdir / "Khat.csv")
    edges = support(k)
    return {"edges_sha256": edges_sha256(edges), "edge_count": len(edges), "k_probes": probes(k)}


def neg_loglik(s, k):
    logdet = 2.0 * float(np.sum(np.log(np.diag(np.linalg.cholesky(k)))))
    return -0.5 * logdet + 0.5 * float(np.sum(s * k))


# --- per workload ------------------------------------------------------------

def gate_dense_glasso(outdirs, inputs, meta, ref, fail):
    s = read_matrix(inputs["S"])
    d = s.shape[0]
    check_fit(outdirs[0], s, off_diagonal(d, -meta["rho"]), off_diagonal(d, meta["rho"]),
              fail, ref and ref["fit"])


def gate_block_path(outdirs, inputs, meta, ref, fail):
    out = outdirs[0]
    s = read_matrix(inputs["S"])
    d, n, gamma = s.shape[0], meta["n"], meta["gamma"]
    path = json.loads((out / "path.json").read_text())
    scores = [p.get("ebic") for p in path["points"]]
    if any(sc is None for sc in scores):
        fail("path: a grid point failed")
    valid = [i for i, sc in enumerate(scores) if sc is not None]
    sel = path["selectedIndex"]
    if not valid or sel != min(valid, key=lambda i: (scores[i], i)):
        fail(f"path: selected index {sel} is not the EBIC minimiser")
        return
    rho = path["grid"][sel]
    k = check_fit(out, s, off_diagonal(d, -rho), off_diagonal(d, rho), fail, ref and ref["fit"])
    score = n * neg_loglik(s, k) + len(support(k)) * (np.log(n) + 4.0 * gamma * np.log(d))
    if abs(score - scores[sel]) > 1e-8 * (1.0 + abs(score)):
        fail(f"path: EBIC of the written fit {score!r} differs from path.json {scores[sel]!r}")
    if ref is not None and sel != ref["selected_index"]:
        fail(f"path: selected index {sel}, reference {ref['selected_index']}")


def gate_rank_pipeline(outdirs, inputs, meta, ref, fail):
    sk, mt, md = outdirs
    r = read_matrix(sk / "R.csv")
    d = r.shape[0]
    if (np.any(np.diag(r) != 1.0) or np.any(np.abs(r) > 1.0)
            or not np.array_equal(r, r.T)):
        fail("skeptic: R is not a symmetric unit-diagonal matrix in [-1, 1]")
    if ref is not None and not _near(probes(r), ref["r_probes"], R_REF_RTOL):
        fail("skeptic: R differs from the reference")

    k = check_fit(mt, r, off_diagonal(d, 0.0), off_diagonal(d, np.inf), fail,
                  ref and ref["mtp2"])
    off = k - np.diag(np.diag(k))
    try:
        np.linalg.cholesky(k)
        pd = True
    except np.linalg.LinAlgError:
        pd = False
    if not pd or np.any(off > M_MATRIX_TOL):
        fail("mtp2: Khat is not an M-matrix")
    if json.loads((mt / "summary.json").read_text()).get("mMatrix") is not True:
        fail("mtp2: summary.json does not report an M-matrix")

    worst = max(json.loads((md / "conditions.json").read_text()).values())
    if not worst <= MDE_TOL:
        fail(f"mde: optimality condition residual {worst:.3e} > {MDE_TOL:g}")
    kcheck = read_matrix(md / "Kcheck.csv")
    scheck = read_matrix(md / "SigmaCheck.csv")
    graph = read_edges(inputs["graph"])
    if float(np.max(np.abs(kcheck @ scheck - np.eye(d)))) > INVERSE_TOL:
        fail("mde: Kcheck is not the inverse of SigmaCheck")
    if any(scheck[i, j] < -MDE_TOL for i, j in graph):
        fail("mde: SigmaCheck is negative on an edge of the graph")
    if any(abs(kcheck[i, j]) > MDE_TOL for i in range(d) for j in range(i + 1, d)
           if (i, j) not in graph):
        fail("mde: Kcheck is nonzero off the graph")
    if ref is not None and not _near(probes(kcheck), ref["kcheck_probes"], K_REF_RTOL):
        fail("mde: Kcheck differs from the reference")


def reference(workload, outdirs):
    """The reference record of one op's outputs, as stored in refs.json."""
    if workload == "dense-glasso":
        return {"fit": fit_reference(outdirs[0])}
    if workload == "block-path":
        path = json.loads((outdirs[0] / "path.json").read_text())
        return {"fit": fit_reference(outdirs[0]), "selected_index": path["selectedIndex"]}
    sk, mt, md = outdirs
    return {"r_probes": probes(read_matrix(sk / "R.csv")),
            "mtp2": fit_reference(mt),
            "kcheck_probes": probes(read_matrix(md / "Kcheck.csv"))}


GATES = {
    "dense-glasso": gate_dense_glasso,
    "block-path": gate_block_path,
    "rank-pipeline": gate_rank_pipeline,
}


def check(workload, outdirs, inputs, meta, ref):
    """List of failure messages for one op; empty when it passes."""
    failures = []
    try:
        GATES[workload](outdirs, inputs, meta, ref, failures.append)
    except (OSError, ValueError, KeyError, IndexError, TypeError, np.linalg.LinAlgError) as exc:
        failures.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return failures
