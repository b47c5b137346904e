"""Dense symmetric-matrix primitives: Cholesky/log-det, inversion, solves.

All functions take and return plain ``numpy`` arrays.  Matrices are assumed
symmetric; ``sym`` can be used to enforce exact symmetry after operations
that may break it in the last bits.
"""
import numpy as np
import scipy.linalg

from .errors import NotPositiveDefiniteError

# Relative pivot tolerance for declaring a Cholesky pivot positive.
PIVOT_RTOL = 1e-12


def sym(a):
    """Return the exactly symmetric part (a + a.T) / 2."""
    a = np.asarray(a, dtype=float)
    return (a + a.T) / 2.0


def upper_pairs(mask):
    """Pairs (i, j) with i < j where the square boolean ``mask`` is true,
    in row-major order, as tuples of Python ints."""
    return list(map(tuple, np.argwhere(np.triu(mask, 1)).tolist()))


def check_square_symmetric(a, atol=1e-9):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries (NaN or Inf)")
    if not np.allclose(a, a.T, atol=atol, rtol=0.0):
        raise ValueError("matrix is not symmetric")
    return sym(a)


def _pivot_tolerance(a):
    diag_max = float(np.abs(a.diagonal()).max()) if a.shape[0] else 0.0
    return PIVOT_RTOL * max(diag_max, 1.0e-300)


def cholesky_logdet(a):
    """Lower Cholesky factor and log-determinant of a PD matrix.

    Raises NotPositiveDefiniteError (with the failing pivot index) when the
    matrix is not positive definite at the relative pivot tolerance.
    """
    a = np.asarray(a, dtype=float)
    tol = _pivot_tolerance(a)
    factor, info = scipy.linalg.lapack.dpotrf(a, lower=True)
    # On failure LAPACK reports the first nonpositive pivot as info (1-based)
    # and leaves the pivots before it computed.
    piv = factor.diagonal()[:info - 1 if info > 0 else None]
    bad = (~(piv * piv > tol)).nonzero()[0]  # NaN pivots count as bad
    if bad.size:
        raise NotPositiveDefiniteError(pivot_index=int(bad[0]))
    if info > 0:
        raise NotPositiveDefiniteError(pivot_index=info - 1)
    logdet = 2.0 * float(np.log(piv).sum())
    return factor, logdet


def is_positive_definite(a):
    try:
        cholesky_logdet(a)
        return True
    except NotPositiveDefiniteError:
        return False


def invert_pd(a):
    """Inverse of a positive definite matrix via Cholesky; exactly symmetric."""
    factor, _ = cholesky_logdet(a)
    inv = scipy.linalg.cho_solve((factor, True), np.eye(a.shape[0]))
    return sym(inv)


def solve_pd(a, b):
    """Solve a @ x = b for positive definite a."""
    factor, _ = cholesky_logdet(a)
    return scipy.linalg.lapack.dpotrs(factor, b, lower=True)[0]


def is_m_matrix(k, tol=0.0):
    """True iff k is positive definite with all off-diagonal entries <= tol."""
    k = np.asarray(k, dtype=float)
    off = k - np.diag(np.diag(k))
    if np.any(off > tol):
        return False
    return is_positive_definite(k)
