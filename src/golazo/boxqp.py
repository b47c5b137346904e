"""Box-constrained quadratic program  min y' A^{-1} y  s.t.  l <= y <= u.

A is symmetric positive definite and is given itself, never its inverse: in
the dual sweep it is the block of the current iterate on row j's component,
j included, and coordinate j has the box (-inf, inf).  Minimizing over a
free coordinate leaves the QP on A_{-j,-j} (its Schur complement), so the
other coordinates get the optimum of the row's QP on Sigma_{-j,-j}, with the
same pivoting decisions.  Box ends may be infinite (absent constraints).

On the face where the coordinates C sit at their bounds and the others F are
free, the optimum is y_F = A_FC z with z = A_CC^{-1} y_C, and the gradient
2 A^{-1} y is 0 on F and 2 z on C.  Each face solve is therefore |C| x |C|
and reads only the |C| rows of A (its columns, as A is symmetric).

The solve is block principal pivoting (Judice & Pires 1994; Kim & Park
2011): each round solves one face, then fixes every free coordinate whose
face value leaves the box at the bound it crossed and releases every bound
coordinate whose multiplier has the wrong sign.  When the count of such
infeasible coordinates has not fallen for ``_BACKUP_ROUNDS`` rounds, only
the largest infeasible index is exchanged (Murty's rule) until it falls
again; with that backup rule the method terminates finitely.  A face with
no infeasible coordinate is the optimum.  From a face far from the optimum
this takes a few face solves where a one-bound-per-step active-set method
takes about as many as there are active bounds.  The method is defined by a face, not a point,
so a solve starts from a face, which the dual sweep carries between sweeps.

A face solve pins each fixed coordinate at a value read from a vector, not
gathered from the bounds: at first from a point on the starting face (the
row of the iterate, in the dual sweep), from then on from the last face
solution clipped into the box.  A coordinate that stays fixed already sits
on its end, and one that was just fixed crossed exactly the end it is now
pinned to, so the clip holds every pinned value bit for bit.

This is the dual sweep's row step: ``solver.fit`` builds the problems with
``row_problems`` and calls ``solve_boxqp`` once per row.
"""
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import MaxIterationsExceededError, NotPositiveDefiniteError

AT_LOWER = -1
FREE = 0
AT_UPPER = 1

# Rounds without a fall in the infeasible count that are still full
# exchanges before Murty's single exchange.
_BACKUP_ROUNDS = 3

# KKT tolerance of a solve.
QP_TOL = 1e-10


@dataclass(eq=False)  # not frozen: a frozen __init__ takes twice as long
class BoxQP:
    """The QP on A = a, which is symmetric and is read in place, with the
    box [lower, upper]; built by ``row_problems``, one per row and fit, and
    never changed."""

    a: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    # lower != upper: the coordinates pivoting may release.
    movable: np.ndarray
    # At or above the pivot tolerance of every face, for ``linalg.solve_pd``,
    # as long as A's diagonal does not change.
    pivot_bound: float
    # Most pivoting rounds (face solves) of one solve.
    max_rounds: int


def row_problems(a, lower, upper):
    """One BoxQP per row i of the k x n float matrices ``lower`` and
    ``upper``, each on the n x n matrix A = ``a`` with row i as its box: the
    dual sweep's problems on one block (k = n), or one QP (k = 1).  The box
    is checked once for all rows: ValueError at a NaN end, an empty box
    (some l_i > u_i) or mismatched shapes.  Where the ends are equal, upper
    is set to lower, as they can differ only in the sign of a zero, which
    the clip into the box must not pick.  A's diagonal must not change
    while the problems are in use, as the dual sweep keeps it: its pivot
    tolerance, read here, bounds that of every face (see
    ``linalg.solve_pd``).  Each solve is capped at 50 (n + 5) rounds."""
    n = a.shape[0]
    if a.shape != (n, n) or lower.ndim != 2 or lower.shape[1] != n or upper.shape != lower.shape:
        raise ValueError("dimension mismatch between A and the box")
    if np.count_nonzero(lower <= upper) < lower.size:  # false at a NaN end, too
        if np.isnan(lower).any() or np.isnan(upper).any():
            raise ValueError("NaN box end")
        raise ValueError("empty box: some l_i > u_i")
    movable = lower != upper
    if np.count_nonzero(movable) < movable.size:
        upper = np.where(movable, upper, lower)
    bound = linalg._pivot_tol(a)
    rounds = 50 * (n + 5)
    return [BoxQP(a, lower[i], upper[i], movable[i], bound, rounds)
            for i in range(lower.shape[0])]


def face_at(y, lower, upper):
    """The face of the point y of the box, int8 and shaped as y: AT_UPPER
    where y >= upper, AT_LOWER where y <= lower or lower == upper, else FREE."""
    state = (y >= upper).view(np.int8)
    state[(y <= lower) | (lower == upper)] = AT_LOWER
    return state


def _solve_face(problem, values, fixed):
    """Minimizer of y'A^{-1}y with the coordinates ``fixed`` pinned at their
    entries of ``values``, and z with gradient 2 A^{-1} y = 2 z on them (0
    elsewhere).  Gathers A's rows, which a C-ordered A holds contiguously."""
    if not fixed.size:
        return np.zeros(values.size), np.zeros(0)
    a = problem.a
    y_c = values[fixed]
    a_cf = a.take(fixed, axis=0)
    acc = a_cf.take(fixed, axis=1)
    try:
        z = linalg.solve_pd(acc, y_c, problem.pivot_bound)
    except NotPositiveDefiniteError:
        # Ridge fail-over for (near-)singular principal blocks, at 1e-10
        # times the mean diagonal entry of A.
        diag = a.diagonal()
        ridge = 1e-10 * float(diag.sum()) / diag.size
        z = linalg.solve_pd(acc + ridge * np.eye(fixed.size), y_c)
    y = z.dot(a_cf)
    y[fixed] = y_c
    return y, z


def solve_boxqp(problem, state, point):
    """Solve the box QP to the KKT tolerance QP_TOL from the face ``state``:
    an int8 vector of the box's size, AT_LOWER, FREE or AT_UPPER per
    coordinate, naming finite ends only and AT_LOWER where lower == upper;
    it is updated in place to the optimal face.  A must be symmetric.

    ``point`` is an array on that face: each entry where ``state`` is
    AT_LOWER or AT_UPPER equals that end bit for bit (lower where lower ==
    upper); its free entries are not read.  It is read, never written, and
    not checked: a point off the face pins the face solves at its values
    instead.

    Returns the optimal vector.  The KKT conditions at the solution are, with
    g = 2 A^{-1} y:  g_i >= -QP_TOL at an active lower bound, g_i <= QP_TOL
    at an active upper bound, |g_i| <= QP_TOL on free coordinates.  Each
    pivoting round is one face solve; after ``problem.max_rounds`` of them
    MaxIterationsExceededError carries the last face solution clipped into
    the box.
    """
    lower, upper, movable = problem.lower, problem.upper, problem.movable
    values = point
    best, stalled = lower.size + 1, 0
    for _ in range(problem.max_rounds):
        fixed = state.nonzero()[0]
        y, z = _solve_face(problem, values, fixed)
        # Every fixed coordinate sits on its end, so y differs from its clip
        # into the box only where a free one left it; a fixed coordinate is
        # released when its multiplier 2 z has the wrong sign.
        values = np.maximum(np.minimum(y, upper), lower)
        release = z * state[fixed] > QP_TOL / 2
        count = np.count_nonzero(values != y) + np.count_nonzero(release)
        if count:
            # Counted again: a pinned coordinate is never released, and a
            # NaN entry differs from its clip but is neither below nor above.
            release &= movable[fixed]
            below = y < lower
            above = y > upper
            count = np.count_nonzero(below | above) + np.count_nonzero(release)
        if not count:
            return y
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
