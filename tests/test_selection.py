import gc
import tracemalloc
import types

import numpy as np
import pytest

import golazo as gz
from golazo import selection
from golazo.errors import AllFitsFailedError, NoFeasibleStartError
from golazo.selection import default_grid, fit_path

from oracles import block_chain_correlation, chain_er_correlation, complete_graph, random_correlation


def stub_fit(k):
    """What ``ebic`` reads of a fit: K and its edge count at EDGE_THRESHOLD."""
    k = np.asarray(k, dtype=float)
    edges = int(np.count_nonzero(np.abs(np.triu(k, 1)) > gz.EDGE_THRESHOLD))
    return types.SimpleNamespace(khat=k, edge_count=edges)


class TestEbic:
    def test_hand_value(self):
        # Build (S, K) with d = 5, exactly 3 edges, negative log-likelihood
        # exactly 2.0, so the score is 200 + 3 (log 100 + 2 log 5).
        k = np.eye(5)
        for i, j in [(0, 1), (1, 2), (3, 4)]:
            k[i, j] = k[j, i] = 0.2
        _, logdet = np.linalg.slogdet(k)
        c = (2.0 + 0.5 * logdet) / 2.5
        s = c * np.linalg.inv(k)
        s = (s + s.T) / 2
        assert gz.gaussian_neg_loglik(s, k) == pytest.approx(2.0, abs=1e-12)
        stub = stub_fit(k)
        assert stub.edge_count == 3
        got = gz.ebic(s, stub, n=100, gamma=0.5)
        expected = 200.0 + 3.0 * (np.log(100.0) + 2.0 * np.log(5.0))
        assert got == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(223.4721, abs=1e-4)

    def test_gamma_zero_is_bic(self):
        rng = np.random.default_rng(0)
        s = random_correlation(rng, 4)
        k = np.linalg.inv(s)
        stub = stub_fit(k)
        got = gz.ebic(s, stub, n=50, gamma=0.0)
        bic = 50 * gz.gaussian_neg_loglik(s, k) + stub.edge_count * np.log(50)
        assert got == bic

    def test_diagonal_k_has_no_penalty(self):
        s = np.diag([1.0, 2.0, 3.0])
        k = np.diag(1.0 / np.diag(s))
        assert gz.ebic(s, stub_fit(k), n=10, gamma=0.5) == pytest.approx(
            10 * gz.gaussian_neg_loglik(s, k))


class TestEbicConfig:
    def test_defaults(self):
        cfg = gz.EbicConfig(n=100)
        assert len(cfg.grid) == 20
        assert cfg.grid[0] == pytest.approx(0.01)
        assert cfg.grid[-1] == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            gz.EbicConfig(n=0)
        with pytest.raises(ValueError):
            gz.EbicConfig(n=10, gamma=1.5)
        with pytest.raises(ValueError):
            gz.EbicConfig(n=10, grid=[0.5, 0.1])
        with pytest.raises(ValueError):
            gz.EbicConfig(n=10, grid=[])
        with pytest.raises(ValueError):
            gz.EbicConfig(n=10, grid=[-0.1, 0.5])
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                gz.EbicConfig(n=10, grid=[0.1, bad, 1.0])

    @pytest.mark.parametrize("n, shown", [(50.7, "50.7"), (np.inf, "inf"), (True, "True")])
    def test_sample_size_must_be_an_integer(self, n, shown):
        with pytest.raises(ValueError, match=f"^sample size must be an integer, got {shown}$"):
            gz.EbicConfig(n=n)

    def test_sample_size_may_be_a_numpy_integer(self):
        assert gz.EbicConfig(n=np.int32(50)).n == 50

    def test_default_grid_log_spaced(self):
        g = default_grid()
        ratios = [b / a for a, b in zip(g, g[1:])]
        assert np.allclose(ratios, ratios[0])


class TestFitPath:
    def test_selection_and_scores(self):
        rng = np.random.default_rng(1)
        s = random_correlation(rng, 5)
        cfg = gz.EbicConfig(n=200, grid=[0.05, 0.2, 0.8])
        res = gz.fit_path(s, gz.glasso_bounds(1.0, 5), cfg)
        assert len(res.ebic_scores) == len(res.edge_counts) == len(res.dual_gaps) == 3
        best = res.selected_fit
        assert res.ebic_scores[res.selected_index] == gz.ebic(s, best, 200, cfg.gamma)
        assert res.edge_counts[res.selected_index] == best.edge_count
        assert res.dual_gaps[res.selected_index] == best.dual_gap
        valid_scores = [x for x in res.ebic_scores if x is not None]
        assert res.ebic_scores[res.selected_index] == min(valid_scores)
        # Edge counts are non-increasing along an increasing penalty grid.
        counts = res.edge_counts
        assert all(b <= a for a, b in zip(counts, counts[1:]))

    def test_tie_goes_to_the_smallest_index(self, monkeypatch):
        # The walk meets index 2 first; every score is equal, so index 0 wins.
        fits = []

        def spy(*args, **kwargs):
            fits.append(gz.fit(*args, **kwargs))
            return fits[-1]

        monkeypatch.setattr(selection, "fit", spy)
        monkeypatch.setattr(selection, "ebic", lambda *args: 1.0)
        s = random_correlation(np.random.default_rng(1), 5)
        res = fit_path(s, gz.glasso_bounds(1.0, 5), gz.EbicConfig(n=200, grid=[0.05, 0.2, 0.8]))
        assert res.ebic_scores == [1.0, 1.0, 1.0]
        assert res.selected_index == 0
        assert res.selected_fit is fits[-1]

    def test_per_point_failure_recorded(self):
        # Singular S: the pure-equality scaled bounds never admit a start,
        # whatever the scale, so every grid point fails.
        s = np.array([[1.0, 1.0], [1.0, 1.0]])
        bounds = gz.ggm_bounds(complete_graph(2))
        cfg = gz.EbicConfig(n=10, grid=[0.5, 1.0])
        with pytest.raises(AllFitsFailedError):
            fit_path(s, bounds, cfg)


class TestWarmStartedPath:
    """``fit_path`` walks the grid from its largest scale down, each fit
    started from the last success: the same optimum as one cold fit per point."""

    CASES = {
        # The block-path benchmark's size and grid (``log:0.1:0.6:8``).
        "block-path": lambda: (block_chain_correlation(np.random.default_rng(1000), 5, 20, 200),
                               200, default_grid(0.1, 0.6, 8)),
        # n < d: S is singular; the sparsest point starts from the diagonal
        # blend, every later one from S blended toward the last Sigma-hat.
        "n-below-d": lambda: (chain_er_correlation(np.random.default_rng(60), 60, 30),
                              30, default_grid(0.05, 1.0, 10)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_cold_fits(self, case, monkeypatch):
        s, n, grid = self.CASES[case]()
        cfg = gz.EbicConfig(n=n, grid=grid)
        bounds = gz.glasso_bounds(1.0, s.shape[0])
        warm = []  # in walk order, largest scale first

        def spy(*args, **kwargs):
            warm.append(gz.fit(*args, **kwargs))
            return warm[-1]

        monkeypatch.setattr(selection, "fit", spy)
        path = fit_path(s, bounds, cfg)
        warm.reverse()
        cold = [gz.fit(s, bounds.scaled(rho)) for rho in cfg.grid]
        assert [f.edges() for f in warm] == [f.edges() for f in cold]
        assert max(np.max(np.abs(w.khat - c.khat)) for w, c in zip(warm, cold)) <= 1e-7
        # Each point's scalars are those of its own fit.
        assert path.ebic_scores == [gz.ebic(s, w, n, cfg.gamma) for w in warm]
        assert path.edge_counts == [c.edge_count for c in cold]
        assert path.dual_gaps == [w.dual_gap for w in warm]
        assert path.selected_fit is warm[path.selected_index]
        scores = [gz.ebic(s, c, n, cfg.gamma) for c in cold]
        assert path.selected_index == min(range(len(cold)), key=lambda i: (scores[i], i))
        assert path.failures == {}

    def test_failed_point_keeps_the_chain(self, monkeypatch):
        # Grid points 1 and 2 raise; the walk meets them as 3, 2, 1, 0.
        s = random_correlation(np.random.default_rng(7), 6)
        grid = (0.05, 0.1, 0.2, 0.4)
        calls, fits = [], {}

        def spy(s, bounds, config=None, start=None):
            rho = float(bounds.upper[0, 1])
            calls.append((rho, start))
            if rho in (grid[1], grid[2]):
                raise NoFeasibleStartError(f"no start at {rho}")
            fits[rho] = gz.fit(s, bounds, config=config, start=start)
            return fits[rho]

        monkeypatch.setattr(selection, "fit", spy)
        path = fit_path(s, gz.glasso_bounds(1.0, 6), gz.EbicConfig(n=100, grid=grid))
        assert [rho for rho, _ in calls] == list(grid[::-1])
        assert list(path.failures) == [1, 2]
        assert path.failures[1] == f"NoFeasibleStartError: no start at {grid[1]}"
        for per_point in (path.ebic_scores, path.edge_counts, path.dual_gaps):
            assert per_point[1] is None and per_point[2] is None
            assert None not in (per_point[0], per_point[3])
        assert calls[0][1] is None
        assert all(start is fits[grid[3]].sigma_hat for _, start in calls[1:])


class TestPathMemory:
    """Each grid point is scored as its fit ends, so the path holds the best
    fit so far, not one K and Sigma per point: one fit is left after it
    returns, and its peak does not grow with the grid."""

    @staticmethod
    def traced(s, grid):
        """Bytes held after ``fit_path`` returns, and its peak."""
        bounds = gz.glasso_bounds(1.0, s.shape[0])
        fit_path(s, bounds, gz.EbicConfig(n=200, grid=grid[-1:]))  # first-call state
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            path = fit_path(s, bounds, gz.EbicConfig(n=200, grid=grid))
            gc.collect()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert path.failures == {} and len(path.ebic_scores) == len(grid)
        return held - base, peak - base

    @pytest.fixture(scope="class")
    def sizes(self):
        """Bytes of d^2 doubles, and (held, peak) on a 4- and a 16-point grid, d = 100."""
        s = block_chain_correlation(np.random.default_rng(1000), 5, 20, 200)
        return (8 * s.shape[0] ** 2, self.traced(s, default_grid(0.1, 0.6, 4)),
                self.traced(s, default_grid(0.1, 0.6, 16)))

    def test_one_fit_is_held(self, sizes):
        d2, (held4, _), (held16, _) = sizes
        assert held4 <= 2.5 * d2 and held16 <= 2.5 * d2

    def test_peak_does_not_grow_with_the_grid(self, sizes):
        _, (_, peak4), (_, peak16) = sizes
        assert peak16 <= 1.2 * peak4
