"""Penalized Gaussian precision-matrix estimation with sign-asymmetric
(L, U) penalties: graphical lasso variants, M-matrix / sign-constrained MLE,
graph-constrained MLE, the two-step estimator for locally associated
graphical models, and EBIC penalty selection.
"""
from .linalg import cholesky_logdet, invert_pd, is_m_matrix
from .penalty import (
    PenaltyBounds,
    asymmetric_bounds,
    clip_to_finite,
    dual_positivity_bounds,
    ggm_bounds,
    glasso_bounds,
    golazo_norm,
    mtp2_bounds,
    positive_glasso_bounds,
    preset_bounds,
)
from .boxqp import BoxQP, solve_boxqp
from .solver import (
    EDGE_THRESHOLD,
    FitResult,
    SolverConfig,
    duality_gap,
    fit,
    kkt_residuals,
    single_linkage_matrix,
)
from .estimators import (
    GraphSpec,
    MdeResult,
    dual_mle_edge_positivity,
    gaussian_neg_loglik,
    ggm_mle,
    is_locally_associated,
    is_markov,
    kl_gaussian,
    mde,
)
from .selection import EbicConfig, PathResult, ebic, edge_count, fit_path
from .data import (
    DagSpec,
    DataMatrix,
    dag_covariance,
    kendall_tau_matrix,
    nearest_correlation,
    sample_covariance,
    sample_locally_associated,
    sample_positive_dag,
    skeptic_correlation,
    to_correlation,
)
from . import errors

__version__ = "0.1.0"
