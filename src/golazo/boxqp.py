"""Box-constrained quadratic program  min y' A^{-1} y  s.t.  l <= y <= u.

A is positive definite and is given itself, never its inverse: in the dual
sweep it is the block of the current iterate on row j's connected component,
j included, and coordinate j has the box (-inf, inf).  Minimizing over a
free coordinate leaves the QP on A_{-j,-j} (its Schur complement), so the
other coordinates get the optimum of the row's QP on Sigma_{-j,-j}, with the
same pivoting decisions.  Box ends may be infinite (absent constraints).

On the face where the coordinates C sit at their bounds and the others F are
free, the optimum is y_F = A_FC z with z = A_CC^{-1} y_C, and the gradient
2 A^{-1} y is 0 on F and 2 z on C.  Each face solve is therefore |C| x |C|
and reads only the |C| columns of A.

The solve is block principal pivoting (Judice & Pires 1994; Kim & Park
2011): each round solves one face, then fixes every free coordinate whose
face value leaves the box at the bound it crossed and releases every bound
coordinate whose multiplier has the wrong sign.  When the count of such
infeasible coordinates has not fallen for ``_BACKUP_ROUNDS`` rounds, only
the largest infeasible index is exchanged (Murty's rule) until it falls
again; with that backup rule the method terminates finitely.  A face with
no infeasible coordinate is the optimum.  From a cold start this takes a few
face solves where a one-bound-per-step active-set method takes about as many
as there are active bounds.
"""
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import MaxIterationsExceededError, NotPositiveDefiniteError

AT_LOWER = -1
FREE = 0
AT_UPPER = 1

# Rounds without a fall in the infeasible count that are still full
# exchanges before Murty's single exchange.
_BACKUP_ROUNDS = 3


@dataclass(frozen=True, eq=False)
class BoxQP:
    """The QP on A = a, which is read in place."""

    a: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    # lower != upper: the coordinates pivoting may release.  Set once here,
    # since the solver builds each row's problem once per fit.
    movable: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        lower = np.asarray(self.lower, dtype=float).ravel()
        upper = np.asarray(self.upper, dtype=float).ravel()
        n = lower.size
        if a.shape != (n, n) or upper.size != n:
            raise ValueError("dimension mismatch between A and the box")
        if np.count_nonzero(lower <= upper) < n:  # false at a NaN end, too
            if np.isnan(lower).any() or np.isnan(upper).any():
                raise ValueError("NaN box end")
            raise ValueError("empty box: some l_i > u_i")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "movable", lower != upper)


def _feasible_seed(problem, y0):
    lower, upper = problem.lower, problem.upper
    if y0 is None:
        y0 = np.zeros(lower.size)
    y = np.asarray(y0, dtype=float).ravel()
    if y.size != lower.size:
        raise ValueError(f"y0 has {y.size} entries but the box has {lower.size}")
    y = np.maximum(np.minimum(y, upper), lower)
    if np.count_nonzero(np.isfinite(y)) < y.size:
        # An infinite y0 entry survives the clip where its box end is
        # infinite too; replace it by the lower end, or 0 if that is infinite.
        y = np.where(np.isfinite(y), y, np.where(np.isfinite(lower), lower, 0.0))
        y = np.maximum(np.minimum(y, upper), lower)
    return y


def _solve_face(problem, y, fixed):
    """Minimizer of y'A^{-1}y with the coordinates ``fixed`` pinned at their
    values in ``y``, which sit on the bounds their state names, and z with
    gradient 2 A^{-1} y = 2 z on them (0 elsewhere)."""
    if not fixed.size:
        return np.zeros(y.size), np.zeros(0)
    a = problem.a
    y_c = y[fixed]
    a_fc = a.take(fixed, axis=1)  # a C-contiguous n x |C| block
    acc = a_fc.take(fixed, axis=0)
    try:
        z = linalg.solve_pd(acc, y_c)
    except NotPositiveDefiniteError:
        # Ridge fail-over for (near-)singular principal blocks, at 1e-10
        # times the mean diagonal entry of A.
        diag = a.diagonal()
        ridge = 1e-10 * float(diag.sum()) / diag.size
        z = linalg.solve_pd(acc + ridge * np.eye(fixed.size), y_c)
    y = a_fc @ z
    y[fixed] = y_c
    return y, z


def solve_boxqp(problem, tol=1e-10, y0=None, max_iter=None):
    """Solve the box QP to the stated KKT tolerance.

    Returns the optimal vector.  The KKT conditions at the solution are, with
    g = 2 A^{-1} y:  g_i >= -tol at an active lower bound, g_i <= tol at an
    active upper bound, |g_i| <= tol on free coordinates.  Each pivoting
    round is one face solve; ``max_iter`` caps their number.
    """
    lower, upper, movable = problem.lower, problem.upper, problem.movable
    n = lower.size
    if max_iter is None:
        max_iter = 50 * (n + 5)

    y = _feasible_seed(problem, y0)
    # Pinned coordinates (lower == upper) sit at both ends and start, and
    # stay, AT_LOWER.
    state = (y >= upper).view(np.int8)
    state[y <= lower] = AT_LOWER
    best, stalled = n + 1, 0
    for _ in range(max_iter):
        fixed = state.nonzero()[0]
        y, z = _solve_face(problem, y, fixed)
        # y sits on its end at every fixed coordinate, so only free ones can
        # be below or above the box; a fixed one is released when its
        # multiplier 2 z has the wrong sign.
        below = y < lower
        above = y > upper
        release = (z * state[fixed] > tol / 2) & movable[fixed]
        count = np.count_nonzero(below) + np.count_nonzero(above) + np.count_nonzero(release)
        if not count:
            return y
        # Each coordinate the exchange below fixes then sits on its end.
        y.clip(lower, upper, out=y)
        if count < best:
            best, stalled = count, 0
        else:
            stalled += 1
        if stalled > _BACKUP_ROUNDS:
            # Murty's rule: exchange only the largest infeasible index.
            i = max(np.flatnonzero(below | above).max(initial=-1),
                    fixed[release].max(initial=-1))
            state[i] = FREE if state[i] else (AT_LOWER if below[i] else AT_UPPER)
        else:
            state[below] = AT_LOWER
            state[above] = AT_UPPER
            state[fixed[release]] = FREE

    raise MaxIterationsExceededError(y.clip(lower, upper))
