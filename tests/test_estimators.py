import numpy as np
import pytest

import golazo as gz
from golazo import linalg
from golazo.estimators import mde_via_zero_pattern
from golazo.errors import MdeStep1FailedError

from oracles import (
    ips_ggm,
    loop_complement_pairs,
    loop_support_pairs,
    random_correlation,
    random_graph,
)


class TestGraphSpec:
    def test_normalizes_edges(self):
        g = gz.GraphSpec(4, [(2, 0), (1, 3)])
        assert g.has_edge(0, 2) and g.has_edge(3, 1)
        assert g.sorted_edges() == [(0, 2), (1, 3)]

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            gz.GraphSpec(3, [(0, 0)])
        with pytest.raises(ValueError):
            gz.GraphSpec(3, [(0, 3)])
        with pytest.raises(ValueError):
            gz.GraphSpec(0)

    def test_builders(self):
        assert len(gz.GraphSpec.complete(4).edges) == 6
        assert len(gz.GraphSpec.empty(4).edges) == 0
        assert gz.GraphSpec.chain(4).sorted_edges() == [(0, 1), (1, 2), (2, 3)]
        assert (0, 3) in gz.GraphSpec.cycle(4).edges
        assert len(gz.GraphSpec.cycle(2).edges) == 1

    def test_complement(self):
        g = gz.GraphSpec(3, [(0, 1)])
        assert g.complement().sorted_edges() == [(0, 2), (1, 2)]

    def test_from_support(self):
        k = np.eye(3)
        k[0, 2] = k[2, 0] = 0.5
        k[0, 1] = k[1, 0] = 1e-9
        g = gz.GraphSpec.from_support(k)
        assert g.sorted_edges() == [(0, 2)]

    def test_scans_match_loops(self):
        # Ties at the threshold, exact zeros, asymmetric input and d = 1.
        rng = np.random.default_rng(16)
        for trial in range(300):
            d = int(rng.integers(1, 13))
            k = np.round(rng.standard_normal((d, d)), 1)
            if trial % 2:
                k = (k + k.T) / 2.0
            threshold = float(rng.choice([1e-6, 0.1, 0.5]))
            pairs = loop_support_pairs(k, threshold)
            assert linalg.upper_pairs(np.abs(k) > threshold) == pairs
            g = gz.GraphSpec.from_support(k, threshold)
            assert g.edges == frozenset(pairs)
            assert g.complement().edges == frozenset(loop_complement_pairs(d, g.edges))


class TestLikelihoodHelpers:
    def test_neg_loglik_identity(self):
        assert gz.gaussian_neg_loglik(np.eye(3), np.eye(3)) == pytest.approx(1.5)

    def test_neg_loglik_minimized_at_inverse(self):
        rng = np.random.default_rng(0)
        s = random_correlation(rng, 4)
        best = gz.gaussian_neg_loglik(s, np.linalg.inv(s))
        for _ in range(20):
            k = random_correlation(rng, 4) + np.eye(4)
            assert gz.gaussian_neg_loglik(s, k) >= best - 1e-12

    def test_kl_zero_iff_equal(self):
        rng = np.random.default_rng(1)
        sigma = random_correlation(rng, 4)
        assert gz.kl_gaussian(sigma, np.linalg.inv(sigma)) == pytest.approx(0.0, abs=1e-10)
        assert gz.kl_gaussian(sigma, np.eye(4)) > 0.0


class TestMembership:
    def test_locally_associated(self):
        g = gz.GraphSpec(3, [(0, 1)])
        sigma = np.array([[1.0, 0.2, -0.5],
                          [0.2, 1.0, 0.1],
                          [-0.5, 0.1, 1.0]])
        assert gz.is_locally_associated(sigma, g)
        # Negative covariance on the edge breaks membership.
        sigma[0, 1] = sigma[1, 0] = -0.2
        assert not gz.is_locally_associated(sigma, g)

    def test_markov(self):
        g = gz.GraphSpec(3, [(0, 1)])
        k = np.eye(3)
        k[0, 1] = k[1, 0] = -0.3
        assert gz.is_markov(k, g)
        k[0, 2] = k[2, 0] = 0.01
        assert not gz.is_markov(k, g)
        assert gz.is_markov(k, g, tol=0.1)


class TestGgmMle:
    def test_matches_moment_conditions(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            d = int(rng.integers(3, 7))
            s = random_correlation(rng, d)
            g = gz.GraphSpec(d, random_graph(rng, d))
            res = gz.ggm_mle(s, g)
            # Sigma matches S on the diagonal and the edges; K vanishes off-graph.
            assert np.max(np.abs(np.diag(res.sigma_hat) - np.diag(s))) < 1e-8
            for i, j in g.edges:
                assert res.sigma_hat[i, j] == pytest.approx(s[i, j], abs=1e-7)
            for i, j in g.complement().edges:
                assert abs(res.khat[i, j]) < 1e-7

    def test_matches_ips_oracle_four_cycle(self):
        rng = np.random.default_rng(3)
        s = random_correlation(rng, 4)
        g = gz.GraphSpec.cycle(4)
        res = gz.ggm_mle(s, g)
        ref = ips_ggm(s, g.sorted_edges(), 4)
        assert np.max(np.abs(res.khat - ref)) < 1e-6

    def test_complete_graph_is_inverse(self):
        rng = np.random.default_rng(4)
        s = random_correlation(rng, 5)
        res = gz.ggm_mle(s, gz.GraphSpec.complete(5))
        assert np.max(np.abs(res.khat - np.linalg.inv(s))) < 1e-7

    def test_empty_graph_is_diagonal(self):
        rng = np.random.default_rng(5)
        s = random_correlation(rng, 4)
        res = gz.ggm_mle(s, gz.GraphSpec.empty(4))
        assert np.allclose(res.khat, np.diag(1.0 / np.diag(s)), atol=1e-10)


class TestDualMleEdgePositivity:
    def test_two_by_two_positive_edge_kept(self):
        # K with a negative off-diagonal entry means positive partial
        # correlation; the positivity projection leaves it unchanged.
        k = np.array([[1.0, -0.4], [-0.4, 1.0]])
        sigma = gz.dual_mle_edge_positivity(k, gz.GraphSpec.complete(2))
        assert np.allclose(sigma, np.linalg.inv(k), atol=1e-8)

    def test_two_by_two_negative_edge_projected(self):
        # Sigma12 would be negative, so the optimum pins it at zero with
        # the diagonal of K preserved.
        k = np.array([[1.0, 0.5], [0.5, 1.0]])
        sigma = gz.dual_mle_edge_positivity(k, gz.GraphSpec.complete(2))
        assert np.allclose(sigma, np.eye(2), atol=1e-8)

    def test_kkt_of_projection(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            d = int(rng.integers(3, 6))
            s = random_correlation(rng, d)
            g = gz.GraphSpec(d, random_graph(rng, d))
            k = gz.ggm_mle(s, g).khat
            sigma = gz.dual_mle_edge_positivity(k, g)
            kcheck = np.linalg.inv(sigma)
            for i, j in g.edges:
                assert sigma[i, j] >= -1e-9
                assert kcheck[i, j] <= k[i, j] + 1e-7
                # Complementary slackness.
                assert abs(sigma[i, j] * (k[i, j] - kcheck[i, j])) < 1e-6
            for i in range(d):
                assert kcheck[i, i] == pytest.approx(k[i, i], abs=1e-7)


class TestMde:
    def test_conditions_and_membership(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            d = int(rng.integers(3, 7))
            s = random_correlation(rng, d)
            g = gz.GraphSpec(d, random_graph(rng, d))
            res = gz.mde(s, g)
            assert res.max_residual() < 1e-7
            assert set(res.conditions_report) == {"i", "ii", "iii", "iv", "v", "vi", "vii"}
            assert gz.is_locally_associated(res.sigma_check, g, tol=1e-8)
            assert gz.is_markov(res.kcheck, g, tol=1e-7)

    def test_step1_failure_wrapped(self):
        s = np.array([[1.0, 1.0], [1.0, 1.0]])  # singular, saturated graph
        with pytest.raises(MdeStep1FailedError):
            gz.mde(s, gz.GraphSpec.complete(2))

    def test_zero_pattern_reconstruction(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            d = int(rng.integers(3, 6))
            s = random_correlation(rng, d)
            g = gz.GraphSpec(d, random_graph(rng, d))
            res = gz.mde(s, g)
            rebuilt = mde_via_zero_pattern(s, g, res.sigma_check)
            assert np.max(np.abs(rebuilt - res.sigma_check)) < 1e-6
