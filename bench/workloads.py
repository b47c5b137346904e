"""The three benchmark workloads: seeded input generators and the CLI command
sequence that makes up one timed op.

Every input is drawn from ``--seed`` through Philox, one independent stream per
purpose, by this file alone: the program under test receives only the CSV and
edge-list files written here, so two commits given the same seed read
byte-identical inputs (``inputs_sha256`` in the result proves it).
"""
from dataclasses import dataclass

import numpy as np

STREAM_TRUTH = 1
STREAM_SAMPLE = 2


def philox(key, stream):
    """Independent Philox stream per (seed, instance) key and purpose."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([*key, stream])))


def write_matrix(path, a):
    # The same number format the CLI writes, so the input parses exactly.
    np.savetxt(path, np.asarray(a, dtype=float), delimiter=",", fmt="%.17g")


def write_edges(path, edges):
    with open(path, "w", encoding="utf-8") as fh:
        for i, j in sorted(edges):
            fh.write(f"{i + 1} {j + 1}\n")


def gaussian_correlation(k, n, rng):
    """Correlation matrix of n draws from N(0, K^{-1})."""
    factor = np.linalg.cholesky(np.linalg.inv(k))
    x = rng.standard_normal((n, k.shape[0])) @ factor.T
    r = np.corrcoef(x, rowvar=False)
    r = (r + r.T) / 2.0
    np.fill_diagonal(r, 1.0)
    return r


@dataclass(frozen=True)
class Op:
    """One timed op: the argv lists passed to ``golazo.cli.main`` in order,
    and the output directory each writes."""
    commands: tuple
    outdirs: tuple


# --- dense-glasso -----------------------------------------------------------
# One glasso fit on a connected sparse problem.  The row inverses and the
# face solves (`linalg`) dominate; no row is screened.  At d = 150 the row
# inverses are past n = 128, from which OpenBLAS threads cho_solve: each
# takes ~13 ms with the default two threads, ~1 ms with one.

def chain_er_precision(d, rng, p=0.05):
    """Chain plus Erdos-Renyi(p) edges with weights -U(0.1, 0.3), made
    diagonally dominant."""
    k = np.zeros((d, d))
    idx = np.arange(d - 1)
    k[idx, idx + 1] = -rng.uniform(0.1, 0.3, d - 1)
    iu, ju = np.triu_indices(d, 2)
    pick = rng.random(iu.size) < p
    k[iu[pick], ju[pick]] = -rng.uniform(0.1, 0.3, int(pick.sum()))
    k = k + k.T
    np.fill_diagonal(k, np.abs(k).sum(axis=1) + 0.1)
    return k


def dense_glasso_inputs(key, workdir, size):
    d, n = size["d"], size["n"]
    truth = chain_er_precision(d, philox(key, STREAM_TRUTH))
    s = gaussian_correlation(truth, n, philox(key, STREAM_SAMPLE))
    path = workdir / "S.csv"
    write_matrix(path, s)
    return {"S": path}, {"d": d, "n": n, "rho": 0.1}


def dense_glasso_op(inputs, outroot):
    out = outroot / "fit"
    return Op(commands=(["fit", "--input", str(inputs["S"]), "--input-kind", "correlation",
                         "--preset", "glasso", "--rho", "0.1", "--out", str(out)],),
              outdirs=(out,))


# --- block-path -------------------------------------------------------------
# An 8-point EBIC path on a 5-block truth, with a two-thread pool.  At the
# upper grid points screening removes rows; at the selected point the
# thresholded |S| graph falls apart into the blocks.  This is the workload on
# which block decomposition and fit_path threading can move anything.

def block_chain_precision(blocks, size, rng, chords=5):
    d = blocks * size
    k = np.eye(d)
    for b in range(blocks):
        base = b * size
        for i in range(size - 1):
            k[base + i, base + i + 1] = 0.4         # partial correlation -0.4
        iu, ju = np.triu_indices(size, 2)
        for c in rng.choice(iu.size, size=chords, replace=False):
            k[base + iu[c], base + ju[c]] = 0.1     # partial correlation -0.1
    k = np.triu(k) + np.triu(k, 1).T
    floor = float(np.linalg.eigvalsh(k)[0])
    if floor < 0.1:
        k += (0.1 - floor) * np.eye(d)
    return k


def block_path_inputs(key, workdir, size):
    blocks, bsize, n = size["blocks"], size["block_size"], size["n"]
    truth = block_chain_precision(blocks, bsize, philox(key, STREAM_TRUTH))
    s = gaussian_correlation(truth, n, philox(key, STREAM_SAMPLE))
    path = workdir / "S.csv"
    write_matrix(path, s)
    return {"S": path}, {"d": blocks * bsize, "n": n, "gamma": 0.5}


BLOCK_PATH_GRID = "log:0.1:0.6:8"


def block_path_op(inputs, outroot, n):
    out = outroot / "path"
    return Op(commands=(["path", "--input", str(inputs["S"]), "--input-kind", "correlation",
                         "--n", str(n), "--preset", "glasso", "--rho", "1.0",
                         "--grid", BLOCK_PATH_GRID, "--threads", "2", "--out", str(out)],),
              outdirs=(out,))


# --- rank-pipeline ----------------------------------------------------------
# skeptic -> MTP2 fit -> two-step mde on nonparanormal data.  Kendall's tau
# (`data`) is the largest layer; the solver runs with infinite and one-sided
# bounds; `estimators` runs only here.

def positive_dag(d, rng, p=0.08):
    """Parents of c: c-1 plus each earlier vertex with probability p;
    loadings U(0.2, 0.5), unit noise."""
    parents = {c: sorted({c - 1} | {int(q) for q in np.nonzero(rng.random(c - 1) < p)[0]})
               for c in range(1, d)}
    loadings = {(q, c): float(rng.uniform(0.2, 0.5))
                for c in range(1, d) for q in parents[c]}
    return parents, loadings


def moral_graph(d, parents):
    edges = set()
    for c, ps in parents.items():
        edges.update((q, c) for q in ps)
        edges.update((a, b) for i, a in enumerate(ps) for b in ps[i + 1:])
    return edges


def rank_pipeline_inputs(key, workdir, size):
    d, n = size["d"], size["n"]
    parents, loadings = positive_dag(d, philox(key, STREAM_TRUTH))
    y = philox(key, STREAM_SAMPLE).standard_normal((n, d))
    for (q, c), w in sorted(loadings.items(), key=lambda e: e[0][1]):
        y[:, c] += w * y[:, q]
    # Monotone transforms leave Kendall's tau unchanged.
    x = y.copy()
    x[:, 0::3] = np.exp(y[:, 0::3])
    x[:, 1::3] = y[:, 1::3] ** 3
    data_path, graph_path = workdir / "X.csv", workdir / "moral.txt"
    write_matrix(data_path, x)
    write_edges(graph_path, moral_graph(d, parents))
    return {"X": data_path, "graph": graph_path}, {"d": d, "n": n}


def rank_pipeline_op(inputs, outroot):
    sk, mt, md = outroot / "skeptic", outroot / "mtp2", outroot / "mde"
    r = str(sk / "R.csv")
    return Op(commands=(["skeptic", "--input", str(inputs["X"]), "--out", str(sk)],
                        ["fit", "--input", r, "--input-kind", "correlation",
                         "--preset", "mtp2", "--out", str(mt)],
                        ["mde", "--input", r, "--input-kind", "correlation",
                         "--graph", str(inputs["graph"]), "--out", str(md)]),
              outdirs=(sk, mt, md))


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: dict          # "full" and "tiny" (self-test) parameters
    make_inputs: object  # ((seed, instance), workdir, size) -> (paths, meta)
    make_op: object      # (paths, outroot, meta) -> Op


WORKLOADS = {
    "dense-glasso": Workload(
        "dense-glasso",
        {"full": {"d": 150, "n": 300}, "tiny": {"d": 10, "n": 40}},
        dense_glasso_inputs,
        lambda paths, out, meta: dense_glasso_op(paths, out)),
    "block-path": Workload(
        "block-path",
        {"full": {"blocks": 5, "block_size": 20, "n": 200},
         "tiny": {"blocks": 2, "block_size": 5, "n": 60}},
        block_path_inputs,
        lambda paths, out, meta: block_path_op(paths, out, meta["n"])),
    "rank-pipeline": Workload(
        "rank-pipeline",
        {"full": {"d": 40, "n": 1000}, "tiny": {"d": 10, "n": 60}},
        rank_pipeline_inputs,
        lambda paths, out, meta: rank_pipeline_op(paths, out)),
}
