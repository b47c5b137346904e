"""The (L, U) penalty: validation, evaluation and finite clipping.

Off-diagonal entries of L and U may be -inf / +inf.  The penalty of a
precision matrix K is

    sum over ordered pairs i != j of max(L_ij * K_ij, U_ij * K_ij)

with the convention 0 * inf = 0, so each unordered pair contributes twice.
"""
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import InvalidBoundsError


@dataclass(frozen=True, eq=False)
class PenaltyBounds:
    """Symmetric lower/upper penalty matrices with L <= 0 <= U off-diagonal."""

    lower: np.ndarray
    upper: np.ndarray
    # Every entry finite: set only by ``clip_to_finite``, whose arrays are
    # read-only, so it cannot go stale.
    _finite = False

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        if lower.shape != upper.shape or lower.ndim != 2 or lower.shape[0] != lower.shape[1]:
            raise InvalidBoundsError("L and U must be square matrices of equal shape")
        if np.isnan(lower).any() or np.isnan(upper).any():
            raise InvalidBoundsError("L and U must not contain NaN")
        if not (np.array_equal(lower, lower.T) and np.array_equal(upper, upper.T)):
            raise InvalidBoundsError("L and U must be exactly symmetric")
        if np.any(np.diag(lower) != 0.0) or np.any(np.diag(upper) != 0.0):
            raise InvalidBoundsError("diagonal of L and U must be zero")
        off = ~np.eye(lower.shape[0], dtype=bool)
        if np.any(lower[off] > 0.0) or np.any(upper[off] < 0.0):
            raise InvalidBoundsError("off-diagonal entries must satisfy L <= 0 <= U")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @classmethod
    def _unchecked(cls, lower, upper):
        """Bounds on float arrays that meet every check above by construction."""
        bounds = object.__new__(cls)  # frozen: the fields go into its __dict__
        vars(bounds).update(lower=lower, upper=upper)
        return bounds

    @property
    def dim(self):
        return self.lower.shape[0]

    def scaled(self, rho):
        """Bounds (rho * L, rho * U); valid for any finite rho > 0."""
        if not np.isfinite(rho):
            raise InvalidBoundsError(f"scale factor must be finite, got {rho}")
        if rho <= 0:
            raise InvalidBoundsError("scale factor must be positive")
        # rho * +-inf stays +-inf, and a positive rho keeps signs, zeros and symmetry.
        return PenaltyBounds._unchecked(rho * self.lower, rho * self.upper)


def golazo_norm(k, bounds):
    """Penalty value; may be +inf when an infinite bound meets a matching sign."""
    k = np.asarray(k, dtype=float)
    if k.shape != bounds.lower.shape:
        raise InvalidBoundsError("K and bounds have mismatched dimensions")
    with np.errstate(invalid="ignore"):
        terms = np.maximum(bounds.lower * k, bounds.upper * k)
    # Finite bounds have no 0 * inf to guard.  A zero K_ij may then give a
    # term of -0 for +0, which no sum tells apart: the diagonal's +0 keeps
    # an all-zero sum at +0.
    if not bounds._finite:
        terms = np.where(k == 0.0, 0.0, terms)  # 0 * inf = 0
    np.fill_diagonal(terms, 0.0)
    return float(np.sum(terms))


def clip_to_finite(bounds, s):
    """Tighten L, U to finite values without changing the dual solution set.

    Every dually feasible Sigma has |Sigma_ij| < sqrt(S_ii S_jj), so U_ij can
    be replaced by min(U_ij, sqrt(S_ii S_jj) - S_ij) and L_ij by
    max(L_ij, -S_ij - sqrt(S_ii S_jj)).  Exactly symmetric S and bounds give
    exactly symmetric clipped bounds, as products commute; any other S is
    symmetrised or rejected by ``linalg.check_square_symmetric``.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or not np.array_equal(s, s.T):  # false at a NaN, too
        s = linalg.check_square_symmetric(s)
    diag = linalg.positive_diagonal(s)
    root = np.sqrt(np.outer(diag, diag))
    # Kept on their side of 0, which rounding crosses where |S_ij| = root.
    upper = np.maximum(np.minimum(bounds.upper, root - s), 0.0)
    lower = np.minimum(np.maximum(bounds.lower, -s - root), 0.0)
    np.fill_diagonal(upper, 0.0)
    np.fill_diagonal(lower, 0.0)
    lower.flags.writeable = upper.flags.writeable = False
    # Finite unless S has an infinite entry or sqrt(S_ii S_jj) overflows.
    # Finite clipped bounds meet the checks by construction.
    if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
        return PenaltyBounds(lower, upper)
    clipped = PenaltyBounds._unchecked(lower, upper)
    object.__setattr__(clipped, "_finite", True)
    return clipped


def _off_diagonal_fill(d, lower_value, upper_value):
    lower = np.full((d, d), float(lower_value))
    upper = np.full((d, d), float(upper_value))
    np.fill_diagonal(lower, 0.0)
    np.fill_diagonal(upper, 0.0)
    return PenaltyBounds(lower, upper)


def _check_rate(name, value):
    """InvalidBoundsError naming ``value`` unless it is >= 0, which NaN is not."""
    if not value >= 0:
        raise InvalidBoundsError(f"{name} must be nonnegative, got {value}")


def glasso_bounds(rho, d):
    """|L| = |U| = rho: the standard graphical lasso."""
    _check_rate("rho", rho)
    return _off_diagonal_fill(d, -rho, rho)


def asymmetric_bounds(rho_neg, rho_pos, d):
    """L = -rho_neg, U = rho_pos: different rates for the two signs of K."""
    _check_rate("rho_neg", rho_neg)
    _check_rate("rho_pos", rho_pos)
    return _off_diagonal_fill(d, -rho_neg, rho_pos)


def positive_glasso_bounds(rho, d):
    """L = 0, U = rho: penalize only positive entries of K."""
    _check_rate("rho", rho)
    return _off_diagonal_fill(d, 0.0, rho)


def mtp2_bounds(d):
    """L = 0, U = +inf: hard constraint K_ij <= 0 (M-matrix MLE)."""
    return _off_diagonal_fill(d, 0.0, np.inf)


def ggm_bounds(graph):
    """Zero constraints K_ij = 0 off the graph, no penalty on edges."""
    off = ~graph.adjacency
    np.fill_diagonal(off, False)
    return PenaltyBounds(np.where(off, -np.inf, 0.0), np.where(off, np.inf, 0.0))


def dual_positivity_bounds(graph):
    """Bounds for the role-swapped dual problem: on edges the variable is
    constrained nonnegative (L = -inf, U = 0); elsewhere unpenalized."""
    return PenaltyBounds(np.where(graph.adjacency, -np.inf, 0.0), np.zeros((graph.d, graph.d)))

