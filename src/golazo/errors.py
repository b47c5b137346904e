"""Exception hierarchy shared across the package."""


class GolazoError(Exception):
    """Base class for all package errors."""


class NotPositiveDefiniteError(GolazoError):
    """A matrix required to be positive definite is not.

    ``pivot_index`` is the (0-based) index of the first failing Cholesky
    pivot, or None when the failure was detected another way.
    """

    def __init__(self, message="matrix is not positive definite", pivot_index=None):
        super().__init__(message)
        self.pivot_index = pivot_index


class InvalidBoundsError(GolazoError):
    pass


class NegativePenaltyError(InvalidBoundsError):
    pass


class NonpositiveDiagonalError(GolazoError):
    def __init__(self, index):
        super().__init__(f"diagonal entry {index} is not strictly positive")
        self.index = index


class NotUnitDiagonalError(GolazoError):
    pass


class NoFeasibleStartError(GolazoError):
    """No dually feasible, positive definite start: a supplied ``sigma0``
    is not one, or S is not positive definite and neither of its blends,
    toward diag(S) or toward its single-linkage matrix, gives one."""


class DegenerateCorrelationError(NoFeasibleStartError):
    """The blend toward diag(S) failed, and the 2 x 2 block of S at ``pair``
    (the first in row-major order) fails the Cholesky pivot test, so no
    blend toward the single-linkage matrix is positive definite."""

    def __init__(self, i, j):
        super().__init__(f"degenerate correlation at pair ({i}, {j})")
        self.pair = (i, j)


class MaxSweepsExceededError(GolazoError):
    """Solver hit the sweep budget; ``result`` holds the best iterate."""

    def __init__(self, result):
        super().__init__(
            f"no convergence after {result.sweeps} sweeps "
            f"(duality gap {result.dual_gap:.3e})"
        )
        self.result = result


class MaxIterationsExceededError(GolazoError):
    """Inner QP spent its budget of block-pivoting rounds, one face solve
    each, without meeting KKT; usually signals severe ill-conditioning.
    ``iterate`` is the last feasible point."""

    def __init__(self, iterate):
        super().__init__("box-QP active-set iteration limit reached")
        self.iterate = iterate


class MdeStep1FailedError(GolazoError):
    """The graph-constrained MLE (step one of the two-step estimator) failed."""

    def __init__(self, cause):
        super().__init__(f"step 1 (graph-constrained MLE) failed: {cause}")
        self.cause = cause


class AllFitsFailedError(GolazoError):
    """Every grid point of a penalty path failed to solve."""

    def __init__(self, failures):
        super().__init__("all penalty-path fits failed")
        self.failures = failures


class GenerationFailedError(GolazoError):
    """Random-instance generator exhausted its retry budget."""


class ConstantColumnWarning(UserWarning):
    pass
