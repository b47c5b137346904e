"""Dense symmetric-matrix primitives: Cholesky/log-det, inversion, solves.

All functions take and return plain ``numpy`` arrays.  Matrices are assumed
symmetric; ``sym`` can be used to enforce exact symmetry after operations
that may break it in the last bits.
"""
import contextlib
import ctypes
import functools
import importlib.machinery
import importlib.util
import os
import sys
import threading
from pathlib import Path

import numpy as np
import scipy

from .errors import NonpositiveDiagonalError, NotPositiveDefiniteError


def _lapack():
    """``dposv``, ``dpotrf`` and ``dpotri`` of scipy's f2py LAPACK wrappers,
    the extension ``scipy.linalg._flapack`` that ``scipy.linalg.lapack``
    re-exports, loaded without importing ``scipy.linalg``: that package
    loads ``numpy.f2py`` and ``numpy.testing`` on the way, about half of
    ``import golazo``.  ``import scipy`` above runs the wheel's own start-up
    first.  The extension is registered under its own name, so a later
    ``import scipy.linalg`` reuses it, and one already loaded is reused
    here: either way these are the functions ``scipy.linalg.lapack`` has."""
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is None:
        directory = str(Path(scipy.__file__).parent / "linalg")
        spec = importlib.machinery.PathFinder.find_spec(name, [directory])
        if spec is None:
            raise ImportError(f"scipy's LAPACK extension _flapack is not in {directory}",
                              name=name)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return module.dposv, module.dpotrf, module.dpotri


dposv, dpotrf, dpotri = _lapack()

# Relative pivot tolerance for declaring a Cholesky pivot positive.
PIVOT_RTOL = 1e-12

# Largest |a_ij - a_ji| of a matrix read as symmetric.
SYM_TOL = 1e-9


def sym(a):
    """Return the exactly symmetric part (a + a.T) / 2, without overflow:
    where a_ij + a_ji overflows but both are finite, the average is formed
    as a_ij / 2 + a_ji / 2, which is exact in halving and so the correctly
    rounded mean.  An exactly symmetric entry keeps its value."""
    a = np.asarray(a, dtype=float)
    with np.errstate(over="ignore"):
        out = (a + a.T) / 2.0
    over = np.isinf(out) & np.isfinite(a) & np.isfinite(a.T)
    if over.any():
        out[over] = a[over] / 2.0 + a.T[over] / 2.0
    return out


def upper_pairs(mask):
    """Pairs (i, j) with i < j where the square boolean ``mask`` is true,
    in row-major order, as tuples of Python ints."""
    return list(map(tuple, np.argwhere(np.triu(mask, 1)).tolist()))


def check_square_symmetric(a):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not a.size:
        raise ValueError(f"expected a nonempty matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries (NaN or Inf)")
    if np.array_equal(a, a.T):
        return a.copy()  # the bits sym gives, C-ordered as its output is
    if not np.allclose(a, a.T, atol=SYM_TOL, rtol=0.0):
        raise ValueError("matrix is not symmetric")
    return sym(a)


def positive_diagonal(a):
    """The diagonal of ``a``; NonpositiveDiagonalError at its first entry <= 0."""
    diag = np.diag(a)
    bad = np.flatnonzero(diag <= 0)
    if bad.size:
        raise NonpositiveDiagonalError(int(bad[0]))
    return diag


def _pivot_tol(a):
    """PIVOT_RTOL * max |a_ii|: a bound on the tolerance of each of ``a``'s
    pivots (see ``_first_bad_pivot``).  On a list, which beats numpy on a
    row QP's faces of a few coordinates; max skips a NaN a_ii, as none can
    replace the first entry 1e-300."""
    return PIVOT_RTOL * max([1.0e-300, *map(abs, a.diagonal().tolist())])


def _pivots_pass(pivots, tol):
    """Every entry p of the list ``pivots`` has p * p > tol.  True when the
    smallest is positive and passes, as p * p rounds monotonically for
    p > 0, and none is NaN: min skips a NaN that is not first, but the sum
    does not."""
    low = min(pivots) if pivots else 1.0
    total = sum(pivots)
    return low > 0.0 and low * low > tol and total == total


def _first_bad_pivot(a, factor, count=None):
    """Index of the first pivot p_i among the first ``count`` (default: all)
    of ``factor``, the lower Cholesky factor of ``a``, with not p_i * p_i >
    PIVOT_RTOL * a_ii, or None: the test on ``a`` scaled to unit diagonal, so
    scaling a row and column by a power of two leaves every decision as it
    is.  A NaN a_ii makes its pivot NaN: it fails.  Pivots that all pass
    ``_pivot_tol(a)``, which is at least each PIVOT_RTOL * a_ii, pass; only
    a factor that does not is walked."""
    pivots = factor.diagonal().tolist()[:count]
    if _pivots_pass(pivots, _pivot_tol(a)):
        return None
    for i, (p, a_ii) in enumerate(zip(pivots, a.diagonal().tolist())):
        if not p * p > PIVOT_RTOL * a_ii:
            return i
    return None


def cholesky_logdet(a):
    """Lower Cholesky factor and log-determinant of a PD matrix.

    Raises NotPositiveDefiniteError (with the failing pivot index) when the
    matrix is not positive definite at the relative pivot tolerance.
    """
    a = np.asarray(a, dtype=float)
    factor, info = dpotrf(a, lower=True)
    # On failure LAPACK reports the first nonpositive pivot as info (1-based)
    # and leaves the pivots before it computed.
    bad = _first_bad_pivot(a, factor, info - 1 if info > 0 else None)
    if bad is not None or info > 0:
        raise NotPositiveDefiniteError(pivot_index=info - 1 if bad is None else bad)
    logdet = 2.0 * float(np.log(factor.diagonal()).sum())
    return factor, logdet


def is_positive_definite(a):
    try:
        cholesky_logdet(a)
        return True
    except NotPositiveDefiniteError:
        return False


@functools.lru_cache(maxsize=8)
def _strict_lower(n):
    """Read-only n x n boolean mask of the strict lower triangle, made once
    per size: the certificate inverts a d x d matrix on every sweep."""
    mask = np.tri(n, k=-1, dtype=bool)
    mask.flags.writeable = False
    return mask


def invert_pd(a):
    """Inverse of a positive definite matrix by ``dpotri`` on the factor of
    ``cholesky_logdet``; its lower triangle is mirrored: exactly symmetric,
    C-ordered, with no negative zero."""
    factor, _ = cholesky_logdet(a)
    inv, info = dpotri(factor, lower=True)
    if info:
        raise NotPositiveDefiniteError(pivot_index=info - 1)
    inv = inv.T  # dpotri returns Fortran order: this C-ordered view has the upper triangle
    np.copyto(inv, inv.T, where=_strict_lower(len(inv)))
    inv += 0.0  # -0.0 + 0.0 is +0.0: a cross-component zero must not print as -0
    return inv


def solve_pd(a, b, pivot_bound=None):
    """Solve a @ x = b for a positive definite float array a.

    One LAPACK ``dposv`` call (``dpotrf`` then ``dpotrs``), so x has the same
    bits as ``cholesky_logdet`` followed by ``dpotrs``; no log-determinant is
    formed.  The pivots pass the test of ``cholesky_logdet`` or it is called
    on ``a`` to raise NotPositiveDefiniteError with the failing pivot.

    ``pivot_bound``, when given, must be at least PIVOT_RTOL * max |a_ii|, as
    that of any matrix whose diagonal holds a's is: pivots that all pass it
    pass a's test, so the test is walked only when one does not.  The
    decision is the same either way.
    """
    factor, x, info = dposv(a, b, lower=True)
    passed = pivot_bound is not None and _pivots_pass(factor.diagonal().tolist(), pivot_bound)
    if info or not passed and _first_bad_pivot(a, factor) is not None:
        cholesky_logdet(a)  # raises: dpotrf gives it the same factor
    return x


def is_m_matrix(k, tol=0.0):
    """True iff k is positive definite with all off-diagonal entries <= tol."""
    k = np.asarray(k, dtype=float)
    off = k - np.diag(np.diag(k))
    if np.any(off > tol):
        return False
    return is_positive_definite(k)


# The OpenBLAS builds that the numpy and scipy wheels bundle, as (directory,
# library glob, symbol suffix).  Only the paths are formed here; nothing is
# searched or opened before the first ``_one_blas_thread``.
_BUNDLED_OPENBLAS = (
    (Path(np.__file__).parent.parent / "numpy.libs", "libscipy_openblas64_-*.so", "64_"),
    (Path(scipy.__file__).parent.parent / "scipy.libs", "libscipy_openblas-*.so", ""),
)


@functools.cache
def _blas_pools(libraries):
    """(get_num_threads, set_num_threads) of each bundled OpenBLAS that the
    process has loaded; empty where none is found (MKL, a conda build, the
    ``.dylibs`` of a macOS wheel)."""
    pools = []
    for directory, pattern, suffix in libraries:
        for path in sorted(directory.glob(pattern)):
            try:  # RTLD_NOLOAD: reach the pool numpy or scipy uses, never load a copy
                lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
                get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
                set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            pools.append((get, set_))
    return tuple(pools)


# Entries into ``_one_blas_thread`` still open in the process, and the
# thread counts the outermost one saved.  The pools are process-wide, so
# this is too: nested or concurrent fits switch once and restore once.
_switch_lock = threading.Lock()
_switch = {"depth": 0, "saved": ()}


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with every bundled OpenBLAS pool on one thread and put
    the old thread counts back when the last open block exits.

    GOLAZO's dense calls are small (a |C| x |C| face solve per row, a d x d
    inverse per sweep); at those sizes a second thread makes each call
    slower, and its worker spins after the call returns.  One thread also
    makes the results independent of the machine's core count.
    """
    pools = _blas_pools(_BUNDLED_OPENBLAS)
    with _switch_lock:
        if not _switch["depth"]:
            _switch["saved"] = tuple((set_, get()) for get, set_ in pools)
            for _, set_ in pools:
                set_(1)
        _switch["depth"] += 1
    try:
        yield
    finally:
        with _switch_lock:
            _switch["depth"] -= 1
            if not _switch["depth"]:
                for set_, n in _switch["saved"]:
                    set_(n)
