"""The (L, U) penalty: validation, evaluation and finite clipping.

Off-diagonal entries of L and U may be -inf / +inf.  The penalty of a
precision matrix K is

    sum over ordered pairs i != j of max(L_ij * K_ij, U_ij * K_ij)

with the convention 0 * inf = 0, so each unordered pair contributes twice.
"""
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidBoundsError,
    NegativePenaltyError,
    NonpositiveDiagonalError,
)


@dataclass(frozen=True)
class PenaltyBounds:
    """Symmetric lower/upper penalty matrices with L <= 0 <= U off-diagonal."""

    lower: np.ndarray
    upper: np.ndarray

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

    @property
    def dim(self):
        return self.lower.shape[0]

    def is_finite(self):
        return bool(np.all(np.isfinite(self.lower)) and np.all(np.isfinite(self.upper)))

    def scaled(self, rho):
        """Bounds (rho * L, rho * U); valid for any finite rho > 0."""
        if not np.isfinite(rho):
            raise InvalidBoundsError(f"scale factor must be finite, got {rho}")
        if rho <= 0:
            raise NegativePenaltyError("scale factor must be positive")
        return PenaltyBounds(rho * self.lower, rho * self.upper)  # rho * +-inf stays +-inf


def golazo_norm(k, bounds):
    """Penalty value; may be +inf when an infinite bound meets a matching sign."""
    k = np.asarray(k, dtype=float)
    if k.shape != bounds.lower.shape:
        raise InvalidBoundsError("K and bounds have mismatched dimensions")
    with np.errstate(invalid="ignore"):
        terms = np.maximum(bounds.lower * k, bounds.upper * k)
    terms = np.where(k == 0.0, 0.0, terms)  # 0 * inf = 0
    np.fill_diagonal(terms, 0.0)
    return float(np.sum(terms))


def clip_to_finite(bounds, s):
    """Tighten L, U to finite values without changing the dual solution set.

    Every dually feasible Sigma has |Sigma_ij| < sqrt(S_ii S_jj), so U_ij can
    be replaced by min(U_ij, sqrt(S_ii S_jj) - S_ij) and L_ij by
    max(L_ij, -S_ij - sqrt(S_ii S_jj)).
    """
    s = np.asarray(s, dtype=float)
    diag = np.diag(s)
    for i, sii in enumerate(diag):
        if sii <= 0:
            raise NonpositiveDiagonalError(i)
    root = np.sqrt(np.outer(diag, diag))
    upper = np.minimum(bounds.upper, root - s)
    lower = np.maximum(bounds.lower, -s - root)
    np.fill_diagonal(upper, 0.0)
    np.fill_diagonal(lower, 0.0)
    # Guard against clipping crossing zero in degenerate cases |S_ij| = root.
    off = ~np.eye(s.shape[0], dtype=bool)
    upper[off] = np.maximum(upper[off], 0.0)
    lower[off] = np.minimum(lower[off], 0.0)
    return PenaltyBounds(_symmetrize_exact(lower), _symmetrize_exact(upper))


def _symmetrize_exact(a):
    return np.triu(a) + np.triu(a, 1).T


def _off_diagonal_fill(d, lower_value, upper_value):
    lower = np.full((d, d), float(lower_value))
    upper = np.full((d, d), float(upper_value))
    np.fill_diagonal(lower, 0.0)
    np.fill_diagonal(upper, 0.0)
    return PenaltyBounds(lower, upper)


def glasso_bounds(rho, d):
    """|L| = |U| = rho: the standard graphical lasso."""
    if rho < 0:
        raise NegativePenaltyError("rho must be nonnegative")
    return _off_diagonal_fill(d, -rho, rho)


def asymmetric_bounds(rho_neg, rho_pos, d):
    """L = -rho_neg, U = rho_pos: different rates for the two signs of K."""
    if rho_neg < 0 or rho_pos < 0:
        raise NegativePenaltyError("penalties must be nonnegative")
    return _off_diagonal_fill(d, -rho_neg, rho_pos)


def positive_glasso_bounds(rho, d):
    """L = 0, U = rho: penalize only positive entries of K."""
    if rho < 0:
        raise NegativePenaltyError("rho must be nonnegative")
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


def preset_bounds(kind, d=None, *, rho=None, rho_neg=None, rho_pos=None, graph=None):
    """Build one of the named penalty presets."""
    presets = {
        "glasso": lambda: glasso_bounds(rho, d),
        "asymmetric": lambda: asymmetric_bounds(rho_neg, rho_pos, d),
        "positive": lambda: positive_glasso_bounds(rho, d),
        "mtp2": lambda: mtp2_bounds(d),
        "ggm": lambda: ggm_bounds(graph),
        "dual_positivity": lambda: dual_positivity_bounds(graph),
    }
    if kind not in presets:
        raise ValueError(f"unknown preset {kind!r}; expected one of {sorted(presets)}")
    return presets[kind]()
