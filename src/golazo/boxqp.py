"""Box-constrained quadratic program  min y' A^{-1} y  s.t.  l <= y <= u.

A is positive definite and is given itself, never its inverse: in the dual
sweep it is the principal submatrix Sigma_{-j,-j} of the current iterate.
Box ends may be infinite (absent constraints).  Solved with a primal
active-set method: at each step the problem is solved exactly on the current
face, then either a blocking bound is added or the bound with the most
negative multiplier is released.

On the face where the coordinates C sit at their bounds and the others F are
free, the optimum is y_F = A_FC z with z = A_CC^{-1} y_C, and the gradient
2 A^{-1} y is 0 on F and 2 z on C.  Each face solve is therefore |C| x |C|.
"""
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import MaxIterationsExceededError, NotPositiveDefiniteError

AT_LOWER = -1
FREE = 0
AT_UPPER = 1


@dataclass(frozen=True)
class BoxQP:
    a: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        lower = np.asarray(self.lower, dtype=float).ravel()
        upper = np.asarray(self.upper, dtype=float).ravel()
        if a.shape != (lower.size, upper.size):
            raise ValueError("dimension mismatch between A and the box")
        if np.any(lower > upper):
            raise ValueError("empty box: some l_i > u_i")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)


def _feasible_seed(problem, y0):
    lower, upper = problem.lower, problem.upper
    if y0 is None:
        y0 = np.zeros(lower.size)
    y = np.clip(np.asarray(y0, dtype=float).ravel(), lower, upper)
    # Infinite ends clip to +-inf-free values; replace any residue.
    y = np.where(np.isfinite(y), y, np.where(np.isfinite(lower), lower, 0.0))
    return np.clip(y, lower, upper)


def _solve_face(a, state, lower, upper, ridge_scale):
    """Minimizer of y'A^{-1}y with the active coordinates pinned at their
    bounds, and the gradient 2 A^{-1} y there."""
    n = state.size
    fixed = np.nonzero(state != FREE)[0]
    y = np.zeros(n)
    grad = np.zeros(n)
    if fixed.size:
        y_c = np.where(state[fixed] == AT_LOWER, lower[fixed], upper[fixed])
        acc = a[np.ix_(fixed, fixed)]
        try:
            z = linalg.solve_pd(acc, y_c)
        except NotPositiveDefiniteError:
            # Ridge fail-over for (near-)singular principal blocks.
            z = linalg.solve_pd(acc + ridge_scale * np.eye(fixed.size), y_c)
        y = a[:, fixed] @ z
        y[fixed] = y_c
        grad[fixed] = 2.0 * z
    return y, grad


def solve_boxqp(problem, tol=1e-10, y0=None, max_iter=None):
    """Solve the box QP to the stated KKT tolerance.

    Returns the optimal vector.  The KKT conditions at the solution are, with
    g = 2 A^{-1} y:  g_i >= -tol at an active lower bound, g_i <= tol at an
    active upper bound, |g_i| <= tol on free coordinates.
    """
    a, lower, upper = problem.a, problem.lower, problem.upper
    n = lower.size
    if n == 0:
        return np.zeros(0)
    ridge_scale = 1e-10 * float(np.trace(a)) / n
    if max_iter is None:
        max_iter = 50 * (n + 5)

    y = _feasible_seed(problem, y0)
    state = np.full(n, FREE, dtype=int)
    state[y <= lower] = AT_LOWER
    state[y >= upper] = AT_UPPER
    pinned = lower == upper
    state[pinned] = AT_LOWER
    finite_lower = np.isfinite(lower)
    finite_upper = np.isfinite(upper)

    for _ in range(max_iter):
        target, grad = _solve_face(a, state, lower, upper, ridge_scale)
        step = target - y
        # Largest feasible fraction of the step before a bound blocks it; the
        # lowest index wins ties.
        free = state == FREE
        up = free & (step > 0) & finite_upper
        down = free & (step < 0) & finite_lower
        ratio = np.full(n, np.inf)
        ratio[up] = (upper[up] - y[up]) / step[up]
        ratio[down] = (lower[down] - y[down]) / step[down]
        blocker = int(np.argmin(ratio))
        if ratio[blocker] < 1.0 - 1e-15:
            y = np.clip(y + max(ratio[blocker], 0.0) * step, lower, upper)
            state[blocker] = AT_UPPER if up[blocker] else AT_LOWER
            continue
        y = np.clip(target, lower, upper)

        # On the face optimum: release the active bound with the worst
        # multiplier; equality-pinned coordinates are never released.
        viol = np.where(state == AT_LOWER, -grad, grad)
        viol[free | pinned] = -np.inf
        release = int(np.argmax(viol))
        if not viol[release] > tol:
            return y
        state[release] = FREE

    raise MaxIterationsExceededError(y)
