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
        assert len(res.fits) == 3
        assert res.selected_fit is res.fits[res.selected_index]
        valid_scores = [x for x in res.ebic_scores if x is not None]
        assert res.ebic_scores[res.selected_index] == min(valid_scores)
        # Edge counts are non-increasing along an increasing penalty grid.
        counts = [f.edge_count for f in res.fits]
        assert all(b <= a for a, b in zip(counts, counts[1:]))

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
    def test_matches_cold_fits(self, case):
        s, n, grid = self.CASES[case]()
        cfg = gz.EbicConfig(n=n, grid=grid)
        bounds = gz.glasso_bounds(1.0, s.shape[0])
        path = fit_path(s, bounds, cfg)
        cold = [gz.fit(s, bounds.scaled(rho)) for rho in cfg.grid]
        assert [f.edges() for f in path.fits] == [f.edges() for f in cold]
        assert max(np.max(np.abs(w.khat - c.khat)) for w, c in zip(path.fits, cold)) <= 1e-7
        scores = [gz.ebic(s, c, n, cfg.gamma) for c in cold]
        assert path.selected_index == min(range(len(cold)), key=lambda i: (scores[i], i))
        assert path.failures == {}

    def test_failed_point_keeps_the_chain(self, monkeypatch):
        # Grid points 1 and 2 raise; the walk meets them as 3, 2, 1, 0.
        s = random_correlation(np.random.default_rng(7), 6)
        grid = (0.05, 0.1, 0.2, 0.4)
        calls = []

        def spy(s, bounds, config=None, start=None):
            rho = float(bounds.upper[0, 1])
            calls.append((rho, start))
            if rho in (grid[1], grid[2]):
                raise NoFeasibleStartError(f"no start at {rho}")
            return gz.fit(s, bounds, config=config, start=start)

        monkeypatch.setattr(selection, "fit", spy)
        path = fit_path(s, gz.glasso_bounds(1.0, 6), gz.EbicConfig(n=100, grid=grid))
        assert [rho for rho, _ in calls] == list(grid[::-1])
        assert list(path.failures) == [1, 2]
        assert path.failures[1] == f"NoFeasibleStartError: no start at {grid[1]}"
        assert path.fits[1] is None and path.fits[2] is None
        assert path.ebic_scores[1] is None and path.ebic_scores[2] is None
        assert calls[0][1] is None
        assert all(start is path.fits[3].sigma_hat for _, start in calls[1:])
