"""Data ingestion and statistics: sample covariance/correlation, rank-based
(sine-transformed Kendall) correlation, synthetic generators, and the CSV /
edge-list file formats used by the command-line tool.
"""
import csv
import os
import threading
import warnings

import numpy as np

from . import linalg
from .errors import ConstantColumnWarning
from .estimators import GraphSpec, ggm_mle
from .solver import _support


def sample_covariance(x):
    """X'X / n after subtracting the column means."""
    x = np.asarray(x, dtype=float)
    x = x - x.mean(axis=0)
    s = linalg.sym(x.T @ x / x.shape[0])
    const = np.nonzero(np.diag(s) <= 0)[0]
    for i in const:
        warnings.warn(f"column {i} is constant (zero variance)", ConstantColumnWarning)
    return s


def to_correlation(s):
    """Rescale a covariance matrix to unit diagonal."""
    s = np.asarray(s, dtype=float)
    scale = np.sqrt(linalg.positive_diagonal(s))
    r = s / np.outer(scale, scale)
    np.fill_diagonal(r, 1.0)
    return linalg.sym(r)


# Entries (sample pairs x columns) of one block of pair signs: one float32
# buffer of 1 MB per worker thread.  A block always holds at least one whole
# lag.
_SIGN_BLOCK_ENTRIES = 1 << 18

# Ranks, rank differences and the partial sums of a block's sign product are
# integers, exact in float32 while below 2**24 in magnitude.
_MAX_KENDALL_ROWS = 1 << 24

# When ``_sign_gram`` adds worker threads, measured on 2-core x86-64 with the
# bundled OpenBLAS: one per 4 blocks, as a thread costs about a small block
# (n = 250, d = 40 has 5 blocks and stays on the calling thread), and only
# from 24 columns on, below which two concurrent ssyrk calls run no faster
# than one after the other and n = 1000, d = 16 took 11 ms serial, 13 split.
_BLOCKS_PER_WORKER = 4
_MIN_SPLIT_COLUMNS = 24


def _usable_cpus():
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _dense_ranks(x):
    """Each column's values replaced by 0, 1, 2, ... in increasing order, equal
    values (equal infinities, 0.0 and -0.0) sharing one rank; float32."""
    order = np.argsort(x, axis=0)
    ordered = np.take_along_axis(x, order, axis=0)
    steps = np.empty(x.shape, dtype=np.float32)
    steps[:1] = 0.0
    np.not_equal(ordered[1:], ordered[:-1], out=steps[1:])
    np.cumsum(steps, axis=0, out=steps)
    ranks = np.empty_like(steps)
    np.put_along_axis(ranks, order, steps, axis=0)
    return ranks


def _lag_signs(ranks, lags, signs):
    """The signs of the rank differences at each lag q - p in ``lags``,
    stacked into the leading rows of ``signs``; that view is returned."""
    n = ranks.shape[0]
    m = 0
    for lag in lags:
        np.subtract(ranks[lag:], ranks[:-lag], out=signs[m:m + n - lag])
        m += n - lag
    # The differences are integers, so clipping them is their sign, and in
    # place it is several times faster than np.sign.
    block = signs[:m]
    np.clip(block, -1.0, 1.0, out=block)
    return block


def _sign_gram(x):
    """G[i, j] = sum over sample pairs p < q of
    sign(x_qi - x_pi) * sign(x_qj - x_pj).

    The columns are replaced by their dense ranks, which keep every pair
    sign.  The pairs are taken a lag q - p at a time and packed into float32
    blocks of rows; clipping a block of rank differences to [-1, 1] gives its
    signs S, and S'S is added to a float64 G.  Ranks below 2**24 are exact in
    float32, every summand of S'S is -1, 0 or 1, and every partial sum an
    integer of magnitude at most the block's rows, which is below 2**24 too.
    So G is exact whatever the BLAS blocking or thread count.

    From ``_MIN_SPLIT_COLUMNS`` columns on, the blocks are shared out over up
    to one worker thread per usable CPU and per ``_BLOCKS_PER_WORKER``
    blocks, the calling thread among them, each pulling the next block as it
    finishes one into its own buffer and its own partial G.  Every partial G
    is integer-valued, so their sum is exact in any order and G has the same
    bits however the blocks were split.
    """
    n, d = x.shape
    ranks = _dense_ranks(x)
    rows = max(n - 1, _SIGN_BLOCK_ENTRIES // max(d, 1))
    blocks, lag = [], 1
    while lag < n:
        first, m = lag, 0
        while lag < n and m + n - lag <= rows:
            m += n - lag
            lag += 1
        blocks.append(range(first, lag))
    pending, lock = iter(blocks), threading.Lock()

    def work():
        signs = np.empty((rows, d), dtype=np.float32)
        gram = np.zeros((d, d))
        try:
            while True:
                with lock:
                    lags = next(pending, None)
                if lags is None:
                    return gram
                block = _lag_signs(ranks, lags, signs)
                gram += block.T @ block
        except BaseException:  # KeyboardInterrupt too
            with lock:  # the other workers stop after the block they hold
                for _ in pending:
                    pass
            raise

    workers = 1
    if d >= _MIN_SPLIT_COLUMNS:
        workers = min(_usable_cpus(), len(blocks) // _BLOCKS_PER_WORKER)
    if workers <= 1:
        return work()
    # Loaded on first use, here: ``concurrent.futures`` also loads ``logging``.
    from concurrent import futures
    with futures.ThreadPoolExecutor(workers - 1) as pool:
        helpers = [pool.submit(work) for _ in range(workers - 1)]
        gram = work()
        for helper in helpers:
            gram += helper.result()
    return gram


@linalg._one_blas_thread()  # entered anew on every call
def kendall_tau_matrix(x):
    """Pairwise Kendall's tau-a of the columns of the n x d array ``x``,
    exact, from one blocked Gram product of the signs of rank differences:
    O(d^2 n^2) flops in single-precision BLAS, split over the CPUs the
    process may run on, and O(n d) working memory per worker thread.  BLAS
    runs on one thread (``linalg._one_blas_thread``); the result has the
    same bits whatever the split or the core count.

    The concordant-discordant balance is divided by n(n-1)/2, every pair of
    observations, so a tied pair counts as zero.  Infinities are ordered
    values, so equal ones tie; a NaN is an error, and so is an array that is
    not 2-d or has n > 2**24, past which float32 ranks are no longer exact.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"Kendall correlation needs an n x d data array, got shape {x.shape}")
    n, d = x.shape
    if n < 2:
        raise ValueError("Kendall correlation needs at least two observations")
    if n > _MAX_KENDALL_ROWS:
        raise ValueError(f"Kendall correlation is exact for at most 2**24 = "
                         f"{_MAX_KENDALL_ROWS} observations, got {n}")
    nan = np.isnan(x)
    if nan.any():
        r, c = np.argwhere(nan)[0]
        raise ValueError(f"Kendall correlation needs data without NaN; "
                         f"row {r}, column {c} (0-based) is NaN")
    tau = 2.0 * _sign_gram(x) / (n * (n - 1))  # concordant - discordant pairs
    np.fill_diagonal(tau, 1.0)
    return tau


def skeptic_correlation(x):
    """Rank-based correlation estimate sin(pi/2 * tau), with Kendall's tau-a;
    entries in [-1, 1], unit diagonal.  The result need not be positive
    semidefinite."""
    tau = kendall_tau_matrix(x)
    r = np.sin(0.5 * np.pi * tau)
    np.fill_diagonal(r, 1.0)
    return linalg.sym(r)


# Smallest eigenvalue that ``nearest_correlation`` leaves before rescaling.
_EIG_FLOOR = 1e-6


def nearest_correlation(r):
    """Project to the nearest correlation matrix by clipping eigenvalues at
    1e-6 and rescaling to unit diagonal."""
    r = linalg.sym(r)
    vals, vecs = np.linalg.eigh(r)
    vals = np.maximum(vals, _EIG_FLOOR)
    fixed = (vecs * vals) @ vecs.T
    return to_correlation(linalg.sym(fixed))


@linalg._one_blas_thread()  # entered anew on every call
def sample_locally_associated(graph, seed):
    """Random PD covariance that is Markov to the graph and has nonnegative
    covariance on its edges: a locally associated model, for any graph.

    Draws one entrywise positive, positive definite matrix A A' / (2d) + 0.1 I,
    with A the absolute values of a d x 2d standard normal draw, and projects
    it onto the graph model: the ``ggm_mle`` fit matches it on the diagonal
    and every edge, so the edge covariances stay positive; its K, set to 0
    off the graph, is inverted.  Runs on one BLAS thread, so a seeded draw
    does not depend on the machine's core count.
    """
    d = graph.d
    # Counter-based generator: a seeded stream does not depend on how work is
    # split across threads.
    rng = np.random.Generator(np.random.Philox(seed))
    a = np.abs(rng.standard_normal((d, 2 * d)))
    k = ggm_mle(a @ a.T / (2 * d) + 0.1 * np.eye(d), graph).khat
    return linalg.invert_pd(np.where(graph.adjacency | np.eye(d, dtype=bool), k, 0.0))


# --- file formats -----------------------------------------------------------

def _read_csv(path, header, what, allow_inf):
    """The CSV's numbers as an array; the first entry that is NaN (or
    infinite, unless ``allow_inf``) is an error naming its line and column.

    ``np.loadtxt`` parses in C and rounds correctly, as ``float`` does.  When
    it fails or warns, or the header or values do not pass, the csv-module
    scan reads the file again: it forms every error message, and it accepts
    what ``loadtxt`` does not, such as quoted numbers.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with open(path, newline="", encoding="utf-8") as fh:
                names = next(csv.reader(fh), None) if header else None
                a = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
    except (ValueError, csv.Error, Warning):
        pass  # outside the handler, so the scan's own error has no context
    else:
        bad = np.isnan(a).any() if allow_inf else not np.isfinite(a).all()
        if not bad and (names is None or len(names) == a.shape[1]):
            return a
    return _scan_csv(path, header, what, allow_inf)


def _scan_csv(path, header, what, allow_inf):
    """``_read_csv`` one csv-module row at a time, in Python."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows, lines = [], []
        try:  # the csv module's own errors, such as a field over its size limit
            names = next(reader, None) if header else None
            for row in filter(None, reader):
                where = f"{path}, line {reader.line_num}"  # the header row counts
                if rows and len(row) != len(rows[0]):
                    raise ValueError(f"{where}: expected {len(rows[0])} values, got {len(row)}")
                rows.append([])
                lines.append(reader.line_num)
                for col, token in enumerate(row, 1):
                    try:  # float reads 'inf', '+inf' and '-inf' in any case, blanks around them
                        rows[-1].append(float(token))
                    except ValueError as exc:
                        raise ValueError(f"{where}, column {col}: {exc}") from None
        except csv.Error as exc:
            raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
    a = np.array(rows)
    if names is not None and a.ndim == 2 and len(names) != a.shape[1]:
        raise ValueError(f"header has {len(names)} names for {a.shape[1]} columns")
    bad = np.isnan(a) if allow_inf else ~np.isfinite(a)
    if bad.any():
        r, c = np.argwhere(bad)[0]
        kind = "missing" if allow_inf else "missing or non-finite"
        raise ValueError(f"{path}, line {lines[r]}, column {c + 1}: "
                         f"{what} contains {kind} values ({a[r, c]})")
    return a


def read_csv_data(path, header=False):
    """Read an n x d data CSV (comma separator, '.' decimal point) as a
    float array; a header row is skipped.  Every entry must be finite."""
    x = _read_csv(path, header, "data", allow_inf=False)
    if x.ndim != 2 or x.size == 0:
        raise ValueError("data must be a nonempty 2-d array")
    return x


# Enough digits to read every float64 back bit for bit.
_CSV_FORMAT = "%.17g"


def read_csv_matrix(path, header=False, allow_inf=True):
    """Read a square symmetric matrix CSV; symmetrized by averaging after a
    symmetry check at ``linalg.SYM_TOL``.  Unlike data CSVs, 'inf' / '-inf' entries
    are allowed (penalty-bound matrices use them) unless ``allow_inf`` is
    false."""
    a = _read_csv(path, header, "matrix CSV", allow_inf)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix CSV must be square, got {a.shape}")
    if not np.allclose(a, a.T, atol=linalg.SYM_TOL, rtol=0.0):  # an infinity only equals itself
        raise ValueError("matrix CSV is not symmetric within tolerance")
    return linalg.sym(a)  # infinite entries equal their mirror, so they stay


def write_csv_matrix(path, a):
    """Write an exactly symmetric matrix as comma-separated ``_CSV_FORMAT``
    rows, the bytes numpy's ``savetxt`` writes, formatting each pair once.

    Row i formats its entries from the diagonal on in one ``%`` call and
    takes its left part from the strings that rows 0..i-1 formatted for
    column i, dropping each once written: at most about d²/4 are alive.
    A matrix that differs from its transpose in any bit (0.0 against -0.0
    too) is a ValueError.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    bits = a.view(np.uint64)
    if not np.array_equal(bits, bits.T):
        i, j = np.argwhere(bits != bits.T)[0].tolist()
        raise ValueError(f"matrix is not exactly symmetric: entry ({i}, {j}) is "
                         f"{float(a[i, j])!r} and entry ({j}, {i}) is {float(a[j, i])!r}")
    d = a.shape[0]
    later = []  # per row above, its strings for the columns still to come, last first
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(d):
            right = ",".join([_CSV_FORMAT] * (d - i)) % tuple(a[i, i:].tolist())
            fh.write(",".join([*map(list.pop, later), right]) + "\n")
            later.append(right.split(",")[:0:-1])


def read_edge_list(path, d):
    """Edge-list file, one '1-based-i 1-based-j' pair per line, on vertices 1..d."""
    edges = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                i, j = (int(t) for t in line.split())
                ok = min(i, j) >= 1 and max(i, j) <= d
            except ValueError:
                ok = False
            if not ok:
                raise ValueError(f"{path}, line {lineno}: expected two 1-based vertex "
                                 f"indices in 1..{d}, got {line!r}")
            if i == j:
                raise ValueError(f"{path}, line {lineno}: expected two distinct 1-based "
                                 f"vertex indices in 1..{d}, got {line!r} (self-loop at "
                                 f"vertex {i})")
            edges.append((i - 1, j - 1))
    return GraphSpec(d, edges)


def write_edge_list(path, graph):
    with open(path, "w", encoding="utf-8") as fh:
        for i, j in graph.sorted_edges():
            fh.write(f"{i + 1} {j + 1}\n")


def write_graphml(path, khat):
    """GraphML export of nodes 1..d and the edges i < j of K's support at
    EDGE_THRESHOLD in row-major order, each with a 'partialCorrelation'; its
    key is declared only when there is an edge."""
    k = np.asarray(khat, dtype=float)
    i, j = np.nonzero(np.triu(_support(k), 1))
    pcor = -k[i, j] / np.sqrt(k[i, i] * k[j, j])
    ns = "http://graphml.graphdrawing.org/xmlns"
    parts = ["<?xml version='1.0' encoding='utf-8'?>\n"
             f'<graphml xmlns="{ns}" xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" '
             f'xsi:schemaLocation="{ns} {ns}/1.0/graphml.xsd">\n']
    if i.size:
        parts.append('  <key id="d0" for="edge" attr.name="partialCorrelation" '
                     'attr.type="double" />\n')
    parts.append('  <graph edgedefault="undirected">\n')
    parts += [f'    <node id="{v}" />\n' for v in range(1, k.shape[0] + 1)]
    parts += [f'    <edge source="{a}" target="{b}">\n      <data key="d0">{p!r}</data>\n'
              '    </edge>\n'
              for a, b, p in zip((i + 1).tolist(), (j + 1).tolist(), pcor.tolist())]
    parts.append("  </graph>\n</graphml>\n")
    with open(path, "wb") as fh:
        fh.write("".join(parts).encode("utf-8"))
