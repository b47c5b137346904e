import copy
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golazo as gz
from golazo import boxqp, estimators, linalg, solver
from golazo.boxqp import FREE
from golazo.errors import (
    DegenerateCorrelationError,
    InvalidBoundsError,
    MaxSweepsExceededError,
    NoFeasibleStartError,
    NonpositiveDiagonalError,
    NotPositiveDefiniteError,
)
from golazo.selection import default_grid

from oracles import (
    active_set_boxqp,
    blas_thread_counts,
    block_chain_correlation,
    chain_er_correlation,
    complete_graph,
    face_of,
    forced_pair_bounds,
    glasso_kkt_residual,
    loop_blend_weight,
    loop_components,
    loop_degenerate_pair,
    loop_forced_zero_pairs,
    loop_isolated_rows,
    loop_kkt_residuals,
    loop_support_pairs,
    near_collinear_correlation,
    prox_gradient_glasso,
    random_correlation,
    random_pd,
    reference_start,
    single_linkage_matrix_cov,
    starting_point_interior,
    starting_point_single_linkage,
)


SRC = Path(__file__).resolve().parent.parent / "src"


def two_by_two(r):
    return np.array([[1.0, r], [r, 1.0]])


class TestHandDerivedCases:
    def test_identity_input_any_bounds(self):
        for bounds in (gz.glasso_bounds(0.2, 4), gz.mtp2_bounds(4),
                       gz.positive_glasso_bounds(0.1, 4)):
            res = gz.fit(np.eye(4), bounds)
            assert np.allclose(res.khat, np.eye(4), atol=1e-12)
            assert res.dual_gap <= 1e-10
            assert res.isolated_rows == (0, 1, 2, 3)

    def test_positive_glasso_unconstrained_branch(self):
        # r = 0.5: K12 = -r/(1-r^2) < 0 is unpenalized, so the fit is S^{-1}.
        s = two_by_two(0.5)
        res = gz.fit(s, gz.positive_glasso_bounds(0.1, 2))
        assert np.allclose(res.khat, np.linalg.inv(s), atol=1e-8)
        assert np.allclose(res.sigma_hat, s, atol=1e-8)

    def test_positive_glasso_boundary_branch(self):
        # r = -0.3, rho = 0.1: Sigma12 = r + rho = -0.2 at the upper bound.
        res = gz.fit(two_by_two(-0.3), gz.positive_glasso_bounds(0.1, 2))
        assert res.sigma_hat[0, 1] == pytest.approx(-0.2, abs=1e-9)
        assert res.khat[0, 1] == pytest.approx(0.2 / 0.96, abs=1e-8)

    def test_positive_glasso_zero_branch(self):
        # r = -0.3, rho = 0.5: penalty kills the edge entirely.
        res = gz.fit(two_by_two(-0.3), gz.positive_glasso_bounds(0.5, 2))
        assert np.allclose(res.khat, np.eye(2), atol=1e-9)
        assert res.edge_count == 0

    def test_d1(self):
        res = gz.fit(np.array([[4.0]]), gz.glasso_bounds(0.1, 1))
        assert res.khat[0, 0] == 0.25
        assert res.dual_gap == 0.0


class TestDualityGap:
    def test_gap_zero_at_inverse(self):
        rng = np.random.default_rng(0)
        s = random_pd(rng, 4, 0.1)
        b = gz.clip_to_finite(gz.glasso_bounds(0.0, 4), s)
        assert gz.duality_gap(s, np.linalg.inv(s), b) == pytest.approx(0.0, abs=1e-10)

    def test_gap_identity(self):
        b = gz.glasso_bounds(0.1, 3)
        assert gz.duality_gap(np.eye(3), np.eye(3), b) == 0.0

    def test_trace_monotone_and_final_gap(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            d = int(rng.integers(2, 7))
            s = random_correlation(rng, d)
            res = gz.fit(s, gz.glasso_bounds(0.15, d))
            assert -1e-10 <= res.dual_gap <= 1e-8
            for a, b in zip(res.gap_trace, res.gap_trace[1:]):
                assert b <= a + 1e-12

    def test_dual_feasibility_of_result(self):
        rng = np.random.default_rng(4)
        s = random_correlation(rng, 5)
        bounds = gz.asymmetric_bounds(0.2, 0.05, 5)
        res = gz.fit(s, bounds)
        diff = res.sigma_hat - s
        clipped = gz.clip_to_finite(bounds, s)
        assert np.all(diff >= clipped.lower - 1e-9)
        assert np.all(diff <= clipped.upper + 1e-9)
        assert np.all(np.linalg.eigvalsh(res.sigma_hat) > 0)


class TestKktResiduals:
    def test_certificate_random(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            d = int(rng.integers(2, 7))
            s = random_correlation(rng, d)
            bounds = [gz.glasso_bounds(0.1, d), gz.positive_glasso_bounds(0.2, d),
                      gz.mtp2_bounds(d)][int(rng.integers(3))]
            res = gz.fit(s, bounds)
            assert np.max(gz.kkt_residuals(s, res, bounds)) < 1e-6


class TestSingleLinkage:
    def test_derived_chain_example(self):
        r = np.array([[1.0, 0.8, 0.0],
                      [0.8, 1.0, 0.5],
                      [0.0, 0.5, 1.0]])
        z = solver._single_linkage(r)
        assert z[0, 2] == 0.5  # bottleneck of the path 0-1-2
        assert z[0, 1] == 0.8 and z[1, 2] == 0.5

    def test_negative_entries_dropped(self):
        r = np.array([[1.0, -0.9], [-0.9, 1.0]])
        z = solver._single_linkage(r)
        assert z[0, 1] == 0.0

    def test_dominates_input(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            r = random_correlation(rng, 6)
            z = solver._single_linkage(r)
            assert np.all(z >= np.where(r > 0, r, 0.0) - 1e-15)

    def test_cov_scale_consistent(self):
        # Under mtp2 bounds (L = 0, U = inf) a rank-deficient S with a
        # positive entry blocks the diagonal blend, and the single-linkage
        # blend takes t = 1: the start is Z itself, the closure of the
        # correlation matrix rescaled by sqrt(S_ii S_jj), clamped to S.
        rng = np.random.default_rng(7)
        x = rng.standard_normal((3, 5)) * rng.uniform(0.5, 2.0, 5)
        s = x.T @ x / 3
        got = solver._default_start(s, gz.mtp2_bounds(5))
        assert np.allclose(got, single_linkage_matrix_cov(s), rtol=0.0, atol=1e-12)
        assert np.array_equal(np.diag(got), np.diag(s))


class TestStartingPoints:
    def rank_deficient(self, rng, d, n=2):
        # Uncentered second-moment matrix: rank <= n with |corr| < 1 generically.
        x = rng.standard_normal((n, d))
        return x.T @ x / n + 0.0

    @staticmethod
    def assert_valid_start(sigma0, s, bounds):
        # Within an absolute 1e-12 of [L, U]: far tighter than the slack of
        # solver._check_feasible, since a binding entry lands on its bound
        # to within rounding.
        assert linalg.is_positive_definite(sigma0)
        clipped = gz.clip_to_finite(bounds, s)
        diff = sigma0 - s
        assert np.all(diff >= clipped.lower - 1e-12)
        assert np.all(diff <= clipped.upper + 1e-12)
        assert np.array_equal(np.diag(sigma0), np.diag(s))

    @pytest.mark.parametrize("variances", [(1.0, 1.0), (1e4, 1.0), (1.0, 1e-6)],
                             ids=["equal", "first-larger", "second-smaller"])
    def test_degenerate_pair_is_the_cholesky_rule_on_its_block(self, variances):
        # The closed-form test of ``_default_start`` and the Cholesky pivot
        # test agree on a pair's 2 x 2 block, also when its variances differ:
        # the correlation 1 - k * 1e-12 fails the pivot test at k = 0.1 and
        # passes it at k = 2 and 10.
        a, c = variances
        for k, degenerate in ((0.1, True), (2.0, False), (10.0, False)):
            s = np.array([[a, 0.0], [0.0, c]])
            s[0, 1] = s[1, 0] = np.sqrt(a * c) * (1.0 - k * 1e-12)
            assert loop_degenerate_pair(s) == ((0, 1) if degenerate else None)
            assert linalg.is_positive_definite(s) is not degenerate

    def test_pd_input_returns_itself(self):
        rng = np.random.default_rng(8)
        s = random_pd(rng, 4, 0.2)
        assert np.array_equal(solver._default_start(s, gz.glasso_bounds(0.1, 4)), s)

    def test_feasible_start_is_used_exactly(self):
        # The optimum is inside its own box (t = 1): the fit starts there and
        # certifies it before any sweep, with the same bits.
        s = random_correlation(np.random.default_rng(40), 8)
        b = gz.glasso_bounds(0.2, 8)
        res = gz.fit(s, b)
        assert solver._default_start(s, b, res.sigma_hat).tobytes() == res.sigma_hat.tobytes()
        warm = gz.fit(s, b, start=res.sigma_hat)
        assert warm.sweeps == 0
        assert warm.sigma_hat.tobytes() == res.sigma_hat.tobytes()

    def test_start_diagonal_does_not_bound_the_blend(self):
        # The blend keeps S's diagonal, so a start's diagonal an ulp off
        # must not cut t to 0 (a cold start) through the diagonal's box [0, 0].
        s = chain_er_correlation(np.random.default_rng(0), 30, 60)
        b = gz.glasso_bounds(0.1, 30)
        res = gz.fit(s, b)
        start = res.sigma_hat.copy()
        start[3, 3] = np.nextafter(start[3, 3], np.inf)
        assert loop_blend_weight(s, start, b) > 0.99
        blend = solver._blend(s, start, b)
        assert blend.tobytes() == solver._blend(s, res.sigma_hat, b).tobytes()
        assert not np.array_equal(blend, s)
        warm, exact = gz.fit(s, b, start=start), gz.fit(s, b, start=res.sigma_hat)
        assert warm.sweeps == exact.sweeps == 0 < res.sweeps
        assert warm.sigma_hat.tobytes() == exact.sigma_hat.tobytes()

    def test_infeasible_start_is_blended_into_the_box(self):
        # A sparser fit's optimum steps past the denser box on its active
        # pairs: S moves toward it by the largest feasible t, here rho / 0.4.
        s = random_correlation(np.random.default_rng(41), 8)
        b = gz.glasso_bounds(0.1, 8)
        target = gz.fit(s, gz.glasso_bounds(0.4, 8)).sigma_hat
        t = loop_blend_weight(s, target, b)
        assert t == pytest.approx(0.25, rel=1e-12)
        expected = (1.0 - t) * s + t * target
        np.fill_diagonal(expected, np.diag(s))
        sigma0 = solver._default_start(s, b, target)
        assert np.array_equal(sigma0, expected)
        self.assert_valid_start(sigma0, s, b)
        warm, cold = gz.fit(s, b, start=target), gz.fit(s, b)
        assert warm.edges() == cold.edges()
        assert np.max(np.abs(warm.khat - cold.khat)) <= 1e-7

    def test_start_whose_blend_is_not_pd_falls_back(self):
        s = np.eye(3)
        b = gz.glasso_bounds(1.0, 3)
        bad = np.array([[1.0, 0.9, 0.9], [0.9, 1.0, -0.9], [0.9, -0.9, 1.0]])
        assert loop_blend_weight(s, bad, b) == 1.0
        assert solver._blend(s, bad, b) is None
        assert np.array_equal(solver._default_start(s, b, bad), solver._default_start(s, b))
        assert gz.fit(s, b, start=bad).khat.tobytes() == gz.fit(s, b).khat.tobytes()
        # Rank-deficient S: the fallback is the diagonal blend.
        x = np.random.default_rng(42).standard_normal((2, 5))
        s = x.T @ x / 2 + 0.0
        b = gz.glasso_bounds(0.3, 5)
        bad = s + 0.3 * (1.0 - np.eye(5))
        assert solver._blend(s, bad, b) is None
        assert np.array_equal(solver._default_start(s, b, bad), solver._default_start(s, b))

    def test_start_must_match_s(self):
        b = gz.glasso_bounds(0.1, 3)
        with pytest.raises(ValueError, match=r"^start is \(2, 2\) but S is 3 x 3$"):
            gz.fit(np.eye(3), b, start=np.eye(2))
        # The blend reads the whole start, its PD test only the lower triangle.
        for bad, message in [(np.triu(np.full((3, 3), 0.5)) + 0.5 * np.eye(3), "not symmetric"),
                             (np.where(np.eye(3) == 1, 1.0, np.nan), "non-finite")]:
            with pytest.raises(ValueError, match=message):
                gz.fit(np.eye(3), b, start=bad)

    def test_interior_start_feasible(self):
        # Glasso bounds: the diagonal blend, equal to the reference one off
        # the diagonal bit for bit.
        rng = np.random.default_rng(9)
        off = ~np.eye(5, dtype=bool)
        for _ in range(20):
            s = self.rank_deficient(rng, 5)
            b = gz.glasso_bounds(0.3, 5)
            sigma0 = solver._default_start(s, b)
            self.assert_valid_start(sigma0, s, b)
            assert np.array_equal(sigma0[off], starting_point_interior(s, b)[off])

    def test_single_linkage_start_feasible(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            s = self.rank_deficient(rng, 5)
            b = gz.positive_glasso_bounds(0.2, 5)
            starting_point_single_linkage(s, b)  # the reference finds one too
            self.assert_valid_start(solver._default_start(s, b), s, b)

    def test_rank_deficient_fit_keeps_the_diagonal(self):
        # The dual constraint Sigma_ii = S_ii holds exactly: no row QP moves
        # the diagonal, so it must hold at the start.
        rng = np.random.default_rng(19)
        for _ in range(5):
            s = self.rank_deficient(rng, 8, n=3)
            for bounds in (gz.mtp2_bounds(8), gz.positive_glasso_bounds(0.1, 8)):
                res = gz.fit(s, bounds)
                assert np.array_equal(np.diag(res.sigma_hat), np.diag(s))

    @settings(max_examples=80, deadline=None)
    @given(d=st.integers(2, 60), n=st.integers(1, 59), seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["glasso", "positive", "mtp2", "asymmetric", "zeros"]),
           rho=st.sampled_from([0.02, 0.1, 0.3, 1.0]))
    def test_start_properties(self, d, n, seed, kind, rho):
        # Rank-deficient S (n < d), the five bound families of
        # TestScansMatchLoops: a start found is valid, and one is found
        # wherever the reference constructions find one.
        rng = np.random.default_rng(seed)
        n = min(n, d - 1)
        x = rng.standard_normal((n, d)) * rng.uniform(0.5, 2.0, d)
        s = linalg.check_square_symmetric(x.T @ x / n)
        upper = np.where(rng.random((d, d)) < 0.15, 0.0, rho)
        upper = np.minimum(upper, upper.T)
        np.fill_diagonal(upper, 0.0)
        bounds = {"glasso": gz.glasso_bounds(rho, d),
                  "positive": gz.positive_glasso_bounds(rho, d),
                  "mtp2": gz.mtp2_bounds(d),
                  "asymmetric": gz.asymmetric_bounds(rho, rho / 3, d),
                  "zeros": gz.PenaltyBounds(-upper, upper)}[kind]
        try:
            sigma0 = solver._default_start(s, bounds)
        except NoFeasibleStartError:
            with pytest.raises(NoFeasibleStartError):
                reference_start(s, bounds)
        else:
            self.assert_valid_start(sigma0, s, bounds)

    def test_rank_deficient_fit_succeeds(self):
        rng = np.random.default_rng(11)
        s = self.rank_deficient(rng, 6)
        res = gz.fit(s, gz.positive_glasso_bounds(0.2, 6))
        assert res.dual_gap <= 1e-8

    def test_no_feasible_start_raised(self):
        # Singular S with pure zero-equality bounds admits no generic start.
        s = np.array([[1.0, 1.0], [1.0, 1.0]])
        g = complete_graph(2)
        with pytest.raises(NoFeasibleStartError):
            gz.fit(s, gz.ggm_bounds(g))

    def test_near_collinear_mtp2_names_the_pair(self):
        # A correlation 6e-15 below 1 fails the Cholesky pivot test like an
        # exact 1, so the error names the pair instead of a failed blend.
        with pytest.raises(DegenerateCorrelationError) as info:
            gz.fit(near_collinear_correlation(6e-15), gz.mtp2_bounds(4))
        assert info.value.pair == (0, 1)
        res = gz.fit(near_collinear_correlation(1e-11), gz.mtp2_bounds(4))
        assert 0.0 <= res.dual_gap <= 1e-8
        assert linalg.is_m_matrix(res.khat)

    def test_negative_gap_is_not_certified(self):
        # A gap below -dual_gap_tol is impossible in exact arithmetic; this
        # input reaches -7.6e-6 after one sweep and must not stop there.
        config = gz.SolverConfig(max_sweeps=200)
        s = near_collinear_correlation(1e-11, seed=0)
        try:
            res = gz.fit(s, gz.mtp2_bounds(4), config=config)
        except MaxSweepsExceededError:
            return
        assert res.dual_gap >= -config.dual_gap_tol

    def test_degenerate_correlation_is_no_feasible_start(self):
        # Perfectly correlated pair with L = 0 bounds: existence fails.
        s = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(NoFeasibleStartError):
            gz.fit(s, gz.positive_glasso_bounds(0.1, 2))


class TestInputErrors:
    def test_s_must_be_square_and_symmetric(self):
        with pytest.raises(ValueError, match=r"^expected a square matrix, got shape \(2, 3\)$"):
            gz.fit(np.ones((2, 3)), gz.glasso_bounds(0.1, 2))
        s = np.eye(3)
        s[0, 1] = 0.5
        with pytest.raises(ValueError, match="^matrix is not symmetric$"):
            gz.fit(s, gz.glasso_bounds(0.1, 3))

    def test_s_must_be_nonempty(self):
        with pytest.raises(ValueError, match=r"^expected a nonempty matrix, got shape \(0, 0\)$"):
            gz.fit(np.zeros((0, 0)), gz.glasso_bounds(0.1, 0))

    def test_s_must_have_a_positive_diagonal(self):
        with pytest.raises(NonpositiveDiagonalError,
                           match="^diagonal entry 1 is not strictly positive$") as exc:
            gz.fit(np.diag([1.0, 0.0, 2.0]), gz.glasso_bounds(0.1, 3))
        assert exc.value.index == 1

    def test_max_sweeps_must_be_positive(self):
        with pytest.raises(ValueError, match="^max_sweeps must be at least 1, got 0$"):
            gz.SolverConfig(max_sweeps=0)

    @pytest.mark.parametrize("value, shown", [(np.inf, "inf"), (2.5, "2.5"), (True, "True")])
    def test_max_sweeps_must_be_an_integer(self, value, shown):
        # With inf, a fit that stalls would sweep forever instead of raising.
        with pytest.raises(ValueError, match=f"^max_sweeps must be an integer, got {shown}$"):
            gz.SolverConfig(max_sweeps=value)

    def test_max_sweeps_may_be_a_numpy_integer(self):
        assert gz.SolverConfig(max_sweeps=np.int64(3)).max_sweeps == 3


class TestScreeningAndLimits:
    def test_isolated_rows_reported(self):
        s = np.eye(3)
        s[0, 1] = s[1, 0] = 0.05
        res = gz.fit(s, gz.glasso_bounds(0.1, 3))
        # Every off-diagonal entry is within [-rho, rho]: all rows isolated.
        assert res.isolated_rows == (0, 1, 2)
        assert np.allclose(res.khat, np.diag(1.0 / np.diag(s)), atol=1e-12)

    def test_screen_matches_unscreened(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            d = int(rng.integers(3, 7))
            s = random_correlation(rng, d)
            rho = float(rng.uniform(0.05, 0.6))
            a = gz.fit(s, gz.glasso_bounds(rho, d), screen=True)
            b = gz.fit(s, gz.glasso_bounds(rho, d), screen=False)
            assert np.array_equal(a.sign_pattern, b.sign_pattern)
            assert np.max(np.abs(a.khat - b.khat)) < 1e-6

    def test_screen_matches_unscreened_at_benchmark_size(self):
        # The block-path workload's size and grid: d = 100 in 5 chains of
        # 20, n = 200, glasso at the 8 points of log:0.1:0.6:8.  The
        # screened fits sweep many blocks at once and write each back.
        s = block_chain_correlation(np.random.default_rng(100), 5, 20, 200)
        blocks, isolated = [], []
        for rho in default_grid(0.1, 0.6, 8):
            bounds = gz.glasso_bounds(rho, 100)
            a = gz.fit(s, bounds, screen=True)
            b = gz.fit(s, bounds, screen=False)
            assert np.array_equal(a.sign_pattern, b.sign_pattern)
            # Exact for glasso: a row is alone in its component if and only
            # if it has no edge at the optimum.
            assert a.isolated_rows == tuple(np.flatnonzero(~b.sign_pattern.any(axis=1)))
            assert np.max(np.abs(a.khat - b.khat)) <= 1e-6
            label = solver._components(s, gz.clip_to_finite(bounds, s))
            blocks.append(int(np.count_nonzero(np.bincount(label) > 1)))
            isolated.append(len(a.isolated_rows))
        assert max(blocks) >= 10 and max(isolated) >= 50

    def test_forced_zero_pairs_are_zero(self):
        rng = np.random.default_rng(13)
        s = random_correlation(rng, 8)
        bounds = forced_pair_bounds(rng, s, 0.1)
        res = gz.fit(s, bounds)
        pairs = loop_forced_zero_pairs(s, bounds)
        assert len(pairs) > 0
        for i, j in pairs:
            assert abs(res.khat[i, j]) <= 1e-6

    def test_max_sweeps_carries_best_iterate(self):
        rng = np.random.default_rng(16)
        s = random_correlation(rng, 10)
        config = gz.SolverConfig(dual_gap_tol=1e-12, max_sweeps=1)
        with pytest.raises(MaxSweepsExceededError) as exc:
            gz.fit(s, gz.glasso_bounds(0.02, 10), config=config)
        partial = exc.value.result
        assert partial.sweeps == 1
        assert np.all(np.linalg.eigvalsh(partial.sigma_hat) > 0)

    def test_non_finite_input_rejected(self):
        s = two_by_two(0.3)
        s[0, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            gz.fit(s, gz.glasso_bounds(0.1, 2))

    @pytest.mark.parametrize("d_bounds", [1, 3])
    def test_bounds_must_match_s(self, d_bounds):
        s = random_correlation(np.random.default_rng(2), 5)
        with pytest.raises(InvalidBoundsError,
                           match=f"bounds are {d_bounds} x {d_bounds} but S is 5 x 5"):
            gz.fit(s, gz.glasso_bounds(0.1, d_bounds))

    @pytest.mark.parametrize("tol", [np.nan, 0.0, -1e-8, np.inf])
    def test_gap_tolerance_must_be_positive_and_finite(self, tol):
        with pytest.raises(ValueError, match="dual_gap_tol must be positive and finite"):
            gz.SolverConfig(dual_gap_tol=tol)


class TestScansMatchLoops:
    """The vectorised O(d^2) scans give exactly the row-by-row results."""

    @staticmethod
    def cases():
        rng = np.random.default_rng(14)
        for trial in range(300):
            d = int(rng.integers(2, 9))
            x = rng.standard_normal((int(rng.integers(1, 12)), d))
            s = x.T @ x / x.shape[0]
            if trial % 3 == 0:  # ties and exact zeros
                s = np.round(s, 1)
            s = (s + s.T) / 2.0 + 0.1 * np.eye(d)
            if trial % 5 == 0:  # one perfectly correlated pair
                i, j = rng.choice(d, 2, replace=False)
                s[i, j] = s[j, i] = np.sqrt(s[i, i] * s[j, j])
            rho = float(rng.choice([0.05, 0.3, 1.0, 3.0]))
            upper = np.where(rng.random((d, d)) < 0.15, 0.0, rho)
            upper = np.minimum(upper, upper.T)
            np.fill_diagonal(upper, 0.0)
            yield s, [gz.glasso_bounds(rho, d), gz.positive_glasso_bounds(rho, d),
                      gz.mtp2_bounds(d), gz.asymmetric_bounds(rho, rho / 3, d),
                      gz.PenaltyBounds(-upper, upper)][trial % 5]

    def test_kkt_residuals(self):
        # Entries of K on both sides of and at the edge threshold.
        rng = np.random.default_rng(18)
        for s, bounds in self.cases():
            d = s.shape[0]
            clipped = gz.clip_to_finite(bounds, s)
            sigma = s + rng.uniform(-0.5, 0.5, (d, d))
            k = rng.choice([-1.0, -1e-6, -1e-7, 0.0, 1e-7, 1e-6, 1.0], (d, d))
            assert np.array_equal(
                solver._pair_residuals(s, k, sigma, clipped),
                loop_kkt_residuals(s, k, sigma, clipped.lower, clipped.upper, gz.EDGE_THRESHOLD))

    def test_kkt_residuals_at_d150(self):
        rng = np.random.default_rng(19)
        d = 150
        s = random_correlation(rng, d)
        clipped = gz.clip_to_finite(gz.asymmetric_bounds(0.1, 0.3, d), s)
        sigma = s + rng.uniform(-0.5, 0.5, (d, d))
        k = rng.choice([-1.0, -1e-6, -1e-7, 0.0, 1e-7, 1e-6, 1.0], (d, d))
        want = loop_kkt_residuals(s, k, sigma, clipped.lower, clipped.upper, gz.EDGE_THRESHOLD)
        assert np.array_equal(solver._pair_residuals(s, k, sigma, clipped).view(np.uint64),
                              want.view(np.uint64))

    def test_components(self):
        for s, bounds in self.cases():
            clipped = gz.clip_to_finite(bounds, s)
            assert solver._components(s, clipped).tolist() == loop_components(s, clipped)

    def test_isolated_rows_and_forced_pairs(self):
        fitted = 0
        for s, bounds in self.cases():
            try:
                res = gz.fit(s, bounds)
            except NoFeasibleStartError:
                continue
            fitted += 1
            rows = list(res.isolated_rows)
            assert rows == loop_isolated_rows(s, gz.clip_to_finite(bounds, s))
            assert all(type(v) is int for v in rows)
            for i, j in loop_forced_zero_pairs(s, bounds):
                assert abs(res.khat[i, j]) <= 1e-6
        assert fitted >= 250

    def test_interior_blend(self):
        # Wherever the diagonal step allows t > 0 and gives a positive
        # definite blend, that blend is the start; where the reference used
        # its diagonal blend, the two agree off the diagonal bit for bit.
        blended = 0
        for s, bounds in self.cases():
            if linalg.is_positive_definite(s):
                continue
            target = np.diag(np.diag(s))
            t = loop_blend_weight(s, target, bounds)
            expected = (1.0 - t) * s + t * target
            np.fill_diagonal(expected, np.diag(s))
            if t <= 0.0 or not linalg.is_positive_definite(expected):
                continue
            blended += 1
            assert np.array_equal(solver._default_start(s, bounds), expected)
            try:
                ref = starting_point_interior(s, bounds)
            except NoFeasibleStartError:
                continue
            off = ~np.eye(s.shape[0], dtype=bool)
            assert np.array_equal(ref[off], expected[off])
        assert blended >= 20

    def test_single_linkage_blocker(self):
        # Where the diagonal blend fails, the first degenerate pair is
        # reported; otherwise a start is found wherever the reference
        # constructions find one.
        for s, bounds in self.cases():
            if linalg.is_positive_definite(s):
                continue
            try:
                sigma0 = solver._default_start(s, bounds)
            except NoFeasibleStartError as exc:
                # Only DegenerateCorrelationError carries a pair.
                assert getattr(exc, "pair", None) == loop_degenerate_pair(s)
                with pytest.raises(NoFeasibleStartError):
                    reference_start(s, bounds)
            else:
                TestStartingPoints.assert_valid_start(sigma0, s, bounds)

    def test_blend_starts_reach_the_reference_optimum(self, monkeypatch):
        # Fits from the reference start and from the new one end at the
        # same edge set and the same K.
        compared = 0
        for s, bounds in self.cases():
            if linalg.is_positive_definite(s):
                continue
            try:
                sigma0 = reference_start(s, bounds)
            except NoFeasibleStartError:
                continue
            compared += 1
            with monkeypatch.context() as patched:
                patched.setattr(solver, "_default_start",
                                 lambda s, bounds, start=None: sigma0)
                ref = gz.fit(s, bounds)
            res = gz.fit(s, bounds)
            assert res.edges() == ref.edges()
            assert np.max(np.abs(res.khat - ref.khat)) <= 1e-9
        assert compared >= 20


class TestAtScale:
    """Certificates and oracles at d = 60, the benchmark's order of size."""

    D = 60

    def test_one_inverse_per_sweep(self, monkeypatch):
        # The row QPs work on Sigma itself; only the per-sweep certificate
        # (and the one at the start) inverts, always the full d x d iterate.
        sizes = []
        original = linalg.invert_pd

        def counting(a):
            sizes.append(a.shape[0])
            return original(a)

        monkeypatch.setattr(linalg, "invert_pd", counting)
        s = random_correlation(np.random.default_rng(60), self.D)
        res = gz.fit(s, gz.glasso_bounds(0.1, self.D))
        assert res.sweeps > 1
        assert sizes == [self.D] * (res.sweeps + 1)

    def test_row_qps_read_the_iterate_in_place(self, monkeypatch):
        # Every row's box QP gets its component's block of the iterate, one
        # array shared by all rows of the component and updated in place,
        # with the row's own coordinate free.
        seen = []
        original = solver.solve_boxqp

        def recording(problem, state, point):
            seen.append((problem.a, problem.lower, problem.upper))
            return original(problem, state, point)

        monkeypatch.setattr(solver, "solve_boxqp", recording)
        s = block_chain_correlation(np.random.default_rng(60), 3, 20, 120)
        bounds = gz.glasso_bounds(0.3, self.D)
        res = gz.fit(s, bounds)
        clipped = gz.clip_to_finite(bounds, s)
        label = solver._components(s, clipped)
        comps = [np.flatnonzero(label == c) for c in range(label.max() + 1)]
        comps = [m for m in comps if m.size > 1]
        assert len(comps) >= 3 and len(res.isolated_rows) < self.D - 6
        rows = [(m, j) for m in comps for j in range(m.size)]
        assert res.sweeps > 1 and len(seen) == res.sweeps * len(rows)
        blocks = {}
        for (a, lower, upper), (members, j) in zip(seen, rows * res.sweeps):
            assert blocks.setdefault(members[0], a) is a
            assert a.shape == (members.size, members.size)
            assert (lower[j], upper[j]) == (-np.inf, np.inf)
            assert np.array_equal(np.delete(lower, j), np.delete(
                s[members[j], members] + clipped.lower[members[j], members], j))
        assert len(blocks) == len(comps)
        for members in comps:
            assert np.array_equal(blocks[members[0]], res.sigma_hat[np.ix_(members, members)])

    def test_glasso_matches_prox_gradient_oracle(self):
        rho = 0.1
        s = random_correlation(np.random.default_rng(60), self.D)
        res = gz.fit(s, gz.glasso_bounds(rho, self.D))
        ref = prox_gradient_glasso(s, rho)
        assert glasso_kkt_residual(s, res.khat, rho, zero_tol=gz.EDGE_THRESHOLD) <= 1e-6
        off = ~np.eye(self.D, dtype=bool)
        assert res.edge_count > 0
        assert np.array_equal(res.sign_pattern != 0, (np.abs(ref) > gz.EDGE_THRESHOLD) & off)

    def test_block_pivoting_at_benchmark_size(self, monkeypatch):
        # A d = 150 glasso fit from Sigma = S: block pivoting must reach the
        # optimum of the primal active-set oracle in fewer face solves.
        s = chain_er_correlation(np.random.default_rng(150), 150, 300)
        bounds = gz.glasso_bounds(0.1, 150)
        original = boxqp._solve_face
        calls = []

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(boxqp, "_solve_face", counting)
        pivoted = gz.fit(s, bounds)
        pivoted_calls = len(calls)
        oracle_calls = []

        def active_set(problem, state, point):
            # Seeded on the face it gets, with the row's own entries (the one
            # coordinate with an infinite box is the row) on the free
            # coordinates; the final face goes back into ``state``.  The
            # pinned values are the ends, which ``point`` holds.
            lower, upper = problem.lower, problem.upper
            j = np.flatnonzero(np.isinf(lower) & np.isinf(upper)).item()
            y0 = np.where(state == FREE, problem.a[j], np.where(state > 0, upper, lower))
            y, faces = active_set_boxqp(problem.a, lower, upper, tol=boxqp.QP_TOL, y0=y0,
                                        max_iter=problem.max_rounds)
            oracle_calls.append(faces)
            state[:] = face_of(problem, y)
            return y

        monkeypatch.setattr(solver, "solve_boxqp", active_set)
        reference = gz.fit(s, bounds)
        assert pivoted.sweeps == reference.sweeps
        assert pivoted.edges() == reference.edges()
        assert np.max(np.abs(pivoted.khat - reference.khat)) <= 1e-9
        assert pivoted_calls <= 0.7 * sum(oracle_calls)

    @pytest.mark.parametrize("kind", ["asymmetric", "mtp2"])
    def test_certificates(self, kind):
        s = random_correlation(np.random.default_rng(63), self.D)
        bounds = (gz.asymmetric_bounds(0.15, 0.05, self.D) if kind == "asymmetric"
                  else gz.mtp2_bounds(self.D))
        res = gz.fit(s, bounds)
        assert res.edge_count > 0
        assert gz.duality_gap(s, res.khat, gz.clip_to_finite(bounds, s)) <= 1e-8
        assert np.max(gz.kkt_residuals(s, res, bounds)) <= 1e-6


class TestCarriedFaces:
    """``fit`` carries each row's face from sweep to sweep in one int8
    matrix per block; before every row QP it must be the face that the row
    of the current iterate names, which is the face a seed point gave.
    Every row, the start's in the first sweep too, is passed as ``point``
    and sits on that face bit for bit."""

    @pytest.mark.parametrize("case", ["chain-er-glasso", "block-path", "mtp2", "warm-path"])
    def test_carried_face_is_the_face_of_the_iterate_row(self, monkeypatch, case):
        original = solver.solve_boxqp
        fixed = []

        def checking(problem, state, point):
            # Row j is the one coordinate with an infinite box.
            j = np.flatnonzero(np.isinf(problem.lower) & np.isinf(problem.upper)).item()
            assert np.array_equal(state, face_of(problem, problem.a[j]))
            fixed.append(np.count_nonzero(state))
            assert np.shares_memory(point, problem.a) and np.array_equal(point, problem.a[j])
            on = state != FREE
            ends = np.where(state > 0, problem.upper, problem.lower)
            assert np.array_equal(point[on].view(np.int64), ends[on].view(np.int64))
            return original(problem, state, point)

        monkeypatch.setattr(solver, "solve_boxqp", checking)
        if case == "chain-er-glasso":
            s = chain_er_correlation(np.random.default_rng(150), 150, 300)
            fits = [(s, gz.glasso_bounds(0.1, 150))]
        elif case == "block-path":
            # The 5 x 20 block chain at the block-path workload's grid.
            s = block_chain_correlation(np.random.default_rng(0), 5, 20, 200)
            fits = [(s, gz.glasso_bounds(rho, 100)) for rho in np.geomspace(0.1, 0.6, 8)]
        elif case == "mtp2":
            s = chain_er_correlation(np.random.default_rng(40), 40, 80)
            fits = [(s, gz.mtp2_bounds(40))]
        else:
            # The same grid walked down, each fit started from the last.
            s = block_chain_correlation(np.random.default_rng(0), 5, 20, 200)
            fits = [(s, gz.glasso_bounds(rho, 100)) for rho in np.geomspace(0.6, 0.1, 8)]
        rows, sweeps, start = 0, [], None
        for s, bounds in fits:
            res = gz.fit(s, bounds, start=start)
            start = res.sigma_hat if case == "warm-path" else None
            sweeps.append(res.sweeps)
            rows += res.sweeps * (s.shape[0] - len(res.isolated_rows))
        assert max(sweeps) > 1 and len(fixed) == rows
        assert sum(fixed) > rows

    def test_warm_start_lies_in_its_box(self, monkeypatch):
        # The blend toward the last fit's Sigma can land an ulp outside
        # [S + L, S + U]; the iterate the first certificate reads must not.
        s = block_chain_correlation(np.random.default_rng(0), 5, 20, 200)
        original = linalg.invert_pd
        iterates = []

        def recording(a):
            iterates.append(a.copy())
            return original(a)

        monkeypatch.setattr(linalg, "invert_pd", recording)
        off = ~np.eye(100, dtype=bool)
        start, outside = None, 0
        for rho in np.geomspace(0.6, 0.1, 8):
            bounds = gz.glasso_bounds(rho, 100)
            iterates.clear()
            res = gz.fit(s, bounds, start=start)
            clipped = gz.clip_to_finite(bounds, s)
            first = iterates[0]
            outside += np.count_nonzero(((first < s + clipped.lower)
                                         | (first > s + clipped.upper)) & off)
            start = res.sigma_hat
        assert outside == 0


    @pytest.mark.parametrize("case", ["chain-er-glasso", "mtp2", "warm-path"])
    def test_point_keeps_the_bits_and_the_sweeps(self, monkeypatch, case):
        # Each row's pinned values read from its row of the block give the
        # K and Sigma bits and the sweep count of a run whose row hook
        # passes the ends the face names instead.  On the warm-started path
        # the first sweep reads the start, whose entries on an end of their
        # face were set to it.
        if case == "chain-er-glasso":
            s = chain_er_correlation(np.random.default_rng(150), 150, 300)
            fits = [gz.glasso_bounds(0.1, 150)]
        elif case == "mtp2":
            s = chain_er_correlation(np.random.default_rng(40), 40, 80)
            fits = [gz.mtp2_bounds(40)]
        else:
            s = block_chain_correlation(np.random.default_rng(0), 5, 20, 200)
            fits = [gz.glasso_bounds(rho, 100) for rho in np.geomspace(0.6, 0.1, 8)]

        def walk():
            results, start = [], None
            for bounds in fits:
                results.append(gz.fit(s, bounds, start=start))
                start = results[-1].sigma_hat
            return results

        pointed = walk()
        original = solver.solve_boxqp

        def from_ends(problem, state, point):
            return original(problem, state, np.where(state > 0, problem.upper, problem.lower))

        monkeypatch.setattr(solver, "solve_boxqp", from_ends)
        for got, ref in zip(pointed, walk(), strict=True):
            assert got.sweeps == ref.sweeps
            assert got.khat.tobytes() == ref.khat.tobytes()
            assert got.sigma_hat.tobytes() == ref.sigma_hat.tobytes()
        assert min(got.sweeps for got in pointed[-3:]) > 1


class TestPivotBound:
    """Each face solve of a row QP tests its pivots first against one bound
    per block, PIVOT_RTOL * max |A_ii| over the block as ``fit`` builds it
    (``boxqp.row_problems``).  It bounds every face's own tolerance only
    while the block's diagonal stays S's, which ``fit`` must keep."""

    D = 40

    def fits(self, s, screen):
        d = s.shape[0]
        graph = gz.GraphSpec(d, [(i, i + 1) for i in range(d - 1)] + [(0, d - 1), (3, 17)])
        for bounds in (gz.glasso_bounds(0.1, d), gz.asymmetric_bounds(0.2, 0.05, d),
                       gz.positive_glasso_bounds(0.1, d), gz.mtp2_bounds(d),
                       gz.ggm_bounds(graph), gz.dual_positivity_bounds(graph)):
            try:
                yield gz.fit(s, bounds, screen=screen)
            except NoFeasibleStartError:
                yield None

    @pytest.mark.parametrize("screen", [True, False], ids=["screen", "no-screen"])
    def test_fit_keeps_the_diagonal_of_s(self, screen):
        # Every preset on a full-rank S, and every one with a start on an S
        # of rank 10 (a blend: the graph-constrained two have none), bit for bit.
        rng = np.random.default_rng(7)
        full = chain_er_correlation(rng, self.D, 80)
        x = rng.standard_normal((10, self.D))
        deficient = x.T @ x / 10 + 0.0
        done = 0
        for s in (full, deficient):
            for res in self.fits(s, screen):
                if res is not None:
                    assert res.sigma_hat.diagonal().tobytes() == s.diagonal().tobytes()
                    done += 1
        assert done == 10

    def test_warm_path_keeps_the_diagonal_of_s(self):
        s = block_chain_correlation(np.random.default_rng(0), 5, 20, 200)
        start = None
        for rho in np.geomspace(0.6, 0.1, 8):
            res = gz.fit(s, gz.glasso_bounds(rho, 100), start=start)
            assert res.sigma_hat.diagonal().tobytes() == s.diagonal().tobytes()
            start = res.sigma_hat

    @pytest.mark.parametrize("case", ["chain-er-glasso", "warm-path", "mtp2", "mde"])
    def test_bound_changes_no_bit(self, monkeypatch, case):
        # K, Sigma, the gap trace and the sweeps of every fit have the bytes
        # of a run whose face solves always form the face's own tolerance.
        if case == "chain-er-glasso":
            s = chain_er_correlation(np.random.default_rng(0), 150, 300)
            run = lambda: [gz.fit(s, gz.glasso_bounds(0.1, 150))]  # noqa: E731
        elif case == "warm-path":
            s = block_chain_correlation(np.random.default_rng(0), 5, 20, 200)

            def run():
                results, start = [], None
                for rho in np.geomspace(0.6, 0.1, 8):
                    results.append(gz.fit(s, gz.glasso_bounds(rho, 100), start=start))
                    start = results[-1].sigma_hat
                return results
        else:
            s = chain_er_correlation(np.random.default_rng(40), self.D, 80)
            graph = gz.GraphSpec.from_support(gz.fit(s, gz.glasso_bounds(0.1, self.D)).khat)
            if case == "mtp2":
                run = lambda: [gz.fit(s, gz.mtp2_bounds(self.D))]  # noqa: E731
            else:
                # mde's two fits: the graph-constrained MLE and the dual step.
                fits = []

                def recording(*args, **kwargs):
                    fits.append(solver.fit(*args, **kwargs))
                    return fits[-1]

                def run():
                    fits.clear()
                    gz.mde(s, graph)
                    return list(fits)

                monkeypatch.setattr(estimators, "fit", recording)

        def digest(results):
            return [(r.khat.tobytes(), r.sigma_hat.tobytes(), np.array(r.gap_trace).tobytes(),
                     r.sweeps) for r in results]

        original = linalg.solve_pd
        bounded = []

        def counting(a, b, pivot_bound=None):
            bounded.append(pivot_bound is not None)
            return original(a, b, pivot_bound)

        monkeypatch.setattr(linalg, "solve_pd", counting)
        expected = digest(run())
        assert len(bounded) > 100 and all(bounded[:100])
        monkeypatch.setattr(linalg, "solve_pd", lambda a, b, pivot_bound=None: original(a, b))
        assert digest(run()) == expected
        assert len(expected) == {"warm-path": 8, "mde": 2}.get(case, 1)

    def test_ridge_retry_forms_its_own_tolerance(self, monkeypatch):
        # One bounded face solve inside a fit fails: the retry solves A_CC
        # plus the ridge with no bound, as the block's bound does not cover
        # the ridged diagonal, and the fit still certifies with the same edges.
        s = chain_er_correlation(np.random.default_rng(0), self.D, 80)
        bounds = gz.glasso_bounds(0.1, self.D)
        expected = gz.fit(s, bounds)
        original_face, original_solve = boxqp._solve_face, linalg.solve_pd
        diagonals, raised, retried = [], [], []

        def face(problem, values, fixed):
            diagonals.append(problem.a.diagonal().copy())
            return original_face(problem, values, fixed)

        def solve(a, b, pivot_bound=None):
            if raised and not retried:
                retried.append((a.copy(), pivot_bound))
            elif not raised and pivot_bound is not None and a.shape[0] > 1:
                raised.append((a.copy(), diagonals[-1]))
                raise NotPositiveDefiniteError(0)
            return original_solve(a, b, pivot_bound)

        monkeypatch.setattr(boxqp, "_solve_face", face)
        monkeypatch.setattr(linalg, "solve_pd", solve)
        res = gz.fit(s, bounds)
        [(acc, diag)], [(ridged, pivot_bound)] = raised, retried
        ridge = 1e-10 * float(diag.sum()) / diag.size
        assert pivot_bound is None
        assert np.array_equal(ridged, acc + ridge * np.eye(acc.shape[0]))
        assert res.dual_gap <= gz.SolverConfig().dual_gap_tol
        assert np.max(gz.kkt_residuals(s, res, bounds)) <= solver.KKT_TOL
        assert res.edges() == expected.edges()

    @pytest.mark.parametrize("power", [20, -20])
    def test_mtp2_fit_follows_a_power_of_two_scale(self, power):
        # Scaling variables by D, powers of two, scales S to D S D and the
        # MTP2 optimum to D^-1 K D^-1 bit for bit, in as many sweeps: every
        # pivot is tested against its own diagonal entry, not the largest.
        s = chain_er_correlation(np.random.default_rng(0), 20, 40)
        scale = np.ones(20)
        scale[[0, 7]] = 2.0 ** power
        plain = gz.fit(s, gz.mtp2_bounds(20))
        scaled = gz.fit(scale[:, None] * s * scale, gz.mtp2_bounds(20))
        assert scaled.sweeps == plain.sweeps > 1
        assert np.array_equal(scaled.khat * scale[:, None] * scale, plain.khat)


class TestCertificateProperties:
    """Recomputed certificates of random fits at d up to the benchmark's
    order of size, for the four penalty presets."""

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(2, 60), seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["glasso", "asymmetric", "positive", "mtp2"]),
           rho=st.sampled_from([0.02, 0.1, 0.3]), extra=st.sampled_from([0.0, 0.05, 0.5]))
    def test_gap_and_kkt(self, d, seed, kind, rho, extra):
        s = random_correlation(np.random.default_rng(seed), d, extra=extra)
        bounds = {"glasso": gz.glasso_bounds(rho, d),
                  "asymmetric": gz.asymmetric_bounds(rho, rho / 3, d),
                  "positive": gz.positive_glasso_bounds(rho, d),
                  "mtp2": gz.mtp2_bounds(d)}[kind]
        res = gz.fit(s, bounds)
        assert gz.duality_gap(s, res.khat, gz.clip_to_finite(bounds, s)) <= 1e-8
        assert np.max(gz.kkt_residuals(s, res, bounds)) <= 1e-6

    @settings(max_examples=5, deadline=None)
    @given(d=st.integers(2, 60), seed=st.integers(0, 2**32 - 1),
           rho=st.sampled_from([0.05, 0.1, 0.2]))
    def test_glasso_agrees_with_prox_gradient_oracle(self, d, seed, rho):
        s = chain_er_correlation(np.random.default_rng(seed), d, 2 * d)
        res = gz.fit(s, gz.glasso_bounds(rho, d))
        ref = prox_gradient_glasso(s, rho)
        assert np.max(np.abs(res.khat - ref)) <= 1e-7
        assert glasso_kkt_residual(s, res.khat, rho, zero_tol=gz.EDGE_THRESHOLD) <= 1e-6

    def test_no_spurious_edge_at_the_gap_tolerance(self):
        # Once the gap was 1.7e-9, K[1, 3] of this input was still -1.02e-6,
        # just past EDGE_THRESHOLD, while it is 0 at the optimum: the fit
        # must go on until the KKT certificate holds as well.
        d = 7
        s = random_correlation(np.random.default_rng(445), d, extra=0.05)
        bounds = gz.positive_glasso_bounds(0.3, d)
        res = gz.fit(s, bounds)
        assert res.dual_gap <= 1e-8
        assert np.max(gz.kkt_residuals(s, res, bounds)) <= 1e-6
        ref = gz.fit(s, bounds, config=gz.SolverConfig(dual_gap_tol=1e-14))
        assert np.array_equal(res.sign_pattern, ref.sign_pattern)


class TestComponentSplit:
    """d = 60 with four interleaved blocks: cross-block entries of S are
    small and negative, so every preset below splits the problem (MTP2
    links only pairs with S_ij > 0)."""

    D = 60

    @classmethod
    def block_input(cls):
        rng = np.random.default_rng(64)
        block = np.repeat(np.arange(4), cls.D // 4)
        rng.shuffle(block)
        s = np.full((cls.D, cls.D), -0.002)
        for b in range(4):
            idx = np.flatnonzero(block == b)
            s[np.ix_(idx, idx)] = random_correlation(rng, idx.size, extra=0.5)
        return s

    @pytest.mark.parametrize("kind", ["glasso", "asymmetric", "mtp2"])
    def test_exact_split(self, kind):
        s = self.block_input()
        bounds = {"glasso": gz.glasso_bounds(0.1, self.D),
                  "asymmetric": gz.asymmetric_bounds(0.15, 0.05, self.D),
                  "mtp2": gz.mtp2_bounds(self.D)}[kind]
        res = gz.fit(s, bounds)
        label = solver._components(s, gz.clip_to_finite(bounds, s))
        assert label.max() >= 3
        cross = label[:, None] != label
        assert np.all(res.khat[cross] == 0.0)
        assert np.all(res.sigma_hat[cross] == 0.0)
        assert res.edge_count > 0
        assert gz.duality_gap(s, res.khat, gz.clip_to_finite(bounds, s)) <= 1e-8
        assert np.max(gz.kkt_residuals(s, res, bounds)) <= 1e-6
        ref = gz.fit(s, bounds, screen=False)
        assert np.array_equal(res.sign_pattern, ref.sign_pattern)


class TestFitResultApi:
    def test_edges_match_loop(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            d = int(rng.integers(2, 15))
            s = random_correlation(rng, d)
            res = gz.fit(s, gz.glasso_bounds(float(rng.choice([0.02, 0.1, 0.3])), d))
            assert res.edges() == loop_support_pairs(res.sign_pattern, 0)

    def test_edges_and_count(self):
        rng = np.random.default_rng(15)
        s = random_correlation(rng, 5)
        res = gz.fit(s, gz.glasso_bounds(0.1, 5))
        edges = res.edges()
        assert res.edge_count == len(edges)
        for i, j in edges:
            assert abs(res.khat[i, j]) > gz.EDGE_THRESHOLD

    def test_result_holds_only_k_and_sigma(self):
        # Signs, edges and the clipped bounds are derived on demand, so the
        # arrays a result keeps, nested ones included, are K and Sigma.
        def nbytes(value):
            if isinstance(value, np.ndarray):
                return value.nbytes
            if isinstance(value, (list, tuple)):
                return sum(map(nbytes, value))
            return sum(map(nbytes, vars(value).values())) if hasattr(value, "__dict__") else 0

        d = 40
        s = random_correlation(np.random.default_rng(19), d)
        res = gz.fit(s, gz.glasso_bounds(0.1, d))
        assert nbytes(res) == 2 * d * d * 8
        k = res.khat
        sign = [[int(np.sign(k[i, j])) if i != j and abs(k[i, j]) > gz.EDGE_THRESHOLD else 0
                 for j in range(d)] for i in range(d)]
        assert res.sign_pattern.dtype == int and res.sign_pattern.tolist() == sign
        assert 0 < res.edge_count < d * (d - 1) // 2


def _result_type_instances():
    s = random_correlation(np.random.default_rng(3), 3)
    return {
        "PenaltyBounds": lambda: gz.glasso_bounds(0.1, 3),
        "FitResult": lambda: gz.fit(s, gz.glasso_bounds(0.1, 3)),
        "MdeResult": lambda: gz.mde(s, gz.GraphSpec.chain(3)),
        "PathResult": lambda: gz.fit_path(s, gz.glasso_bounds(1.0, 3),
                                          gz.EbicConfig(n=50, grid=(0.1, 0.5))),
        "BoxQP": lambda: boxqp.row_problems(np.eye(2), -np.ones((1, 2)), np.ones((1, 2)))[0],
    }


@pytest.mark.parametrize("name", list(_result_type_instances()))
def test_array_holding_types_compare_by_identity(name):
    # Comparing their ndarray fields would be ambiguous, so == is identity
    # and every instance is hashable.
    x = _result_type_instances()[name]()
    other = copy.copy(x)
    assert x == x
    assert x != other
    assert x not in [other]
    assert isinstance(hash(x), int)


class TestOneBlasThread:
    @pytest.fixture
    def counts(self):
        """Every bundled pool set to 2 threads for the test, so that a count
        that is not put back shows also on a one-core machine."""
        pools = linalg._blas_pools(linalg._BUNDLED_OPENBLAS)
        if not pools:
            pytest.skip("numpy and scipy bundle no OpenBLAS here")
        old = blas_thread_counts()
        try:
            for _, set_ in pools:
                set_(2)
            yield blas_thread_counts()
        finally:
            for (_, set_), n in zip(pools, old):
                set_(n)

    @pytest.fixture
    def seen(self, monkeypatch):
        """The thread counts at every duality-gap evaluation of a fit."""
        seen = []
        original = solver.duality_gap

        def recording(*args):
            seen.append(blas_thread_counts())
            return original(*args)

        monkeypatch.setattr(solver, "duality_gap", recording)
        return seen

    def test_fit_runs_on_one_thread_and_counts_come_back(self, counts, seen):
        s = chain_er_correlation(np.random.default_rng(4), 10, 20)
        gz.fit(s, gz.glasso_bounds(0.05, 10))
        with pytest.raises(MaxSweepsExceededError):
            gz.fit(s, gz.glasso_bounds(0.02, 10), config=gz.SolverConfig(max_sweeps=1))
        assert len(seen) >= 3
        assert all(c == [1] * len(counts) for c in seen)
        assert blas_thread_counts() == counts

    def test_nested_fits_keep_the_outer_switch(self, counts, seen):
        # Under cli.main a fit is the inner block; leaving it must not put
        # the old counts back while the command still runs.
        s = random_correlation(np.random.default_rng(6), 6)
        with linalg._one_blas_thread():
            gz.fit(s, gz.glasso_bounds(0.1, 6))
            assert blas_thread_counts() == [1] * len(counts)
        assert all(c == [1] * len(counts) for c in seen)
        assert blas_thread_counts() == counts

    def test_concurrent_fits_restore_the_counts(self, counts, seen):
        # Fits on four threads overlap in every order: no fit may run with
        # a count another fit's exit put back, and the last exit restores.
        rng = np.random.default_rng(8)
        problems = [random_correlation(rng, 8) for _ in range(5)]
        errors = []

        def work():
            try:
                for s in problems:
                    gz.fit(s, gz.glasso_bounds(0.05, 8))
            except Exception as exc:  # reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(seen) >= 4 * len(problems)
        assert all(c == [1] * len(counts) for c in seen)
        assert blas_thread_counts() == counts

    def test_fit_does_not_depend_on_the_blas_thread_count(self, tmp_path):
        # A library fit, d = 150: OpenBLAS would thread dpotrf/dpotrs from
        # n = 128 on, which changes the last bits of K.  The input is made
        # once, here, since making it also runs BLAS.
        path = tmp_path / "S.npy"
        np.save(path, chain_er_correlation(np.random.default_rng(150), 150, 300))
        probe = ("import sys, hashlib, numpy as np, golazo as gz; "
                 "s = np.load(sys.argv[1]); "
                 "print(hashlib.sha256(gz.fit(s, gz.glasso_bounds(0.1, 150)).khat.tobytes())"
                 ".hexdigest())")
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(SRC))
            done = subprocess.run([sys.executable, "-c", probe, str(path)], env=env,
                                  capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            digests.append(done.stdout.strip())
        assert digests[0] == digests[1]
