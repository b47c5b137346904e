import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golazo as gz
from golazo import boxqp, linalg, solver
from golazo.errors import (
    DegenerateCorrelationError,
    MaxSweepsExceededError,
    NoFeasibleStartError,
    NotUnitDiagonalError,
)

from oracles import (
    active_set_boxqp,
    chain_er_correlation,
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
        res = gz.fit(s, gz.asymmetric_bounds(0.2, 0.05, 5))
        diff = res.sigma_hat - s
        assert np.all(diff >= res.clipped_bounds.lower - 1e-9)
        assert np.all(diff <= res.clipped_bounds.upper + 1e-9)
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
            assert np.max(gz.kkt_residuals(s, res)) < 1e-6


class TestSingleLinkage:
    def test_derived_chain_example(self):
        r = np.array([[1.0, 0.8, 0.0],
                      [0.8, 1.0, 0.5],
                      [0.0, 0.5, 1.0]])
        z = gz.single_linkage_matrix(r)
        assert z[0, 2] == 0.5  # bottleneck of the path 0-1-2
        assert z[0, 1] == 0.8 and z[1, 2] == 0.5

    def test_negative_entries_dropped(self):
        r = np.array([[1.0, -0.9], [-0.9, 1.0]])
        z = gz.single_linkage_matrix(r)
        assert z[0, 1] == 0.0

    def test_dominates_input(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            r = random_correlation(rng, 6)
            z = gz.single_linkage_matrix(r)
            assert np.all(z >= np.where(r > 0, r, 0.0) - 1e-15)

    def test_requires_unit_diagonal(self):
        with pytest.raises(NotUnitDiagonalError):
            gz.single_linkage_matrix(np.diag([2.0, 1.0]))

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

    def test_pd_input_returns_itself(self):
        rng = np.random.default_rng(8)
        s = random_pd(rng, 4, 0.2)
        assert np.array_equal(solver._default_start(s, gz.glasso_bounds(0.1, 4)), s)

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
        g = gz.GraphSpec.complete(2)
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

    def test_sigma0_must_be_feasible(self):
        s = two_by_two(0.3)
        with pytest.raises(NoFeasibleStartError):
            gz.fit(s, gz.glasso_bounds(0.01, 2), sigma0=np.eye(2))

    def test_sigma0_must_be_positive_definite(self):
        # Every |Sigma_ij - S_ij| = 0.9 is inside the box, but the sign
        # pattern makes sigma0 indefinite.
        s = np.eye(3)
        sigma0 = np.array([[1.0, 0.9, 0.9],
                           [0.9, 1.0, -0.9],
                           [0.9, -0.9, 1.0]])
        assert np.min(np.linalg.eigvalsh(sigma0)) < 0
        with pytest.raises(NoFeasibleStartError, match="positive definite"):
            gz.fit(s, gz.glasso_bounds(1.0, 3), sigma0=sigma0)

    def test_non_finite_input_rejected(self):
        s = two_by_two(0.3)
        s[0, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            gz.fit(s, gz.glasso_bounds(0.1, 2))


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

    def test_blend_starts_reach_the_reference_optimum(self):
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
            ref = gz.fit(s, bounds, sigma0=sigma0)
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
        # Every row's box QP gets the d x d iterate itself plus an index,
        # never a copied (d - 1) x (d - 1) block.
        seen = []
        original = solver.solve_boxqp

        def recording(problem, **kwargs):
            seen.append((problem.a, problem.index))
            return original(problem, **kwargs)

        monkeypatch.setattr(solver, "solve_boxqp", recording)
        s = random_correlation(np.random.default_rng(60), self.D)
        res = gz.fit(s, gz.glasso_bounds(0.1, self.D))
        assert len(seen) == res.sweeps * self.D
        for a, index in seen:
            assert a.shape == (self.D, self.D)
            assert np.shares_memory(a, res.sigma_hat)
            assert index.size == self.D - 1

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

        def active_set(problem, tol, y0):
            idx = problem.index
            y, faces = active_set_boxqp(problem.a[np.ix_(idx, idx)], problem.lower,
                                        problem.upper, tol=tol, y0=y0)
            oracle_calls.append(faces)
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
        assert gz.duality_gap(s, res.khat, res.clipped_bounds) <= 1e-8
        assert np.max(gz.kkt_residuals(s, res)) <= 1e-6


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
        assert gz.duality_gap(s, res.khat, res.clipped_bounds) <= 1e-8
        assert np.max(gz.kkt_residuals(s, res)) <= 1e-6

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
        assert np.max(gz.kkt_residuals(s, res)) <= 1e-6
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
        label = solver._components(s, res.clipped_bounds)
        assert label.max() >= 3
        cross = label[:, None] != label
        assert np.all(res.khat[cross] == 0.0)
        assert np.all(res.sigma_hat[cross] == 0.0)
        assert res.edge_count > 0
        assert gz.duality_gap(s, res.khat, res.clipped_bounds) <= 1e-8
        assert np.max(gz.kkt_residuals(s, res)) <= 1e-6
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
