import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golazo as gz
from golazo import data as dio
from golazo import estimators, linalg
from golazo.errors import MdeStep1FailedError

from oracles import (
    chain_er_correlation,
    complete_graph,
    ips_ggm,
    loop_complement_pairs,
    loop_dual_positivity_bounds,
    loop_ggm_bounds,
    loop_graphml_edges,
    loop_is_locally_associated,
    loop_is_markov,
    loop_mde_conditions,
    loop_support_pairs,
    mde_via_zero_pattern,
    random_correlation,
    random_graph,
)

SRC = Path(__file__).resolve().parent.parent / "src"


class TestGraphSpec:
    def test_normalizes_edges(self):
        g = gz.GraphSpec(4, [(2, 0), (1, 3)])
        assert g.adjacency[0, 2] and g.adjacency[3, 1]
        assert g.sorted_edges() == [(0, 2), (1, 3)]

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            gz.GraphSpec(3, [(0, 0)])
        with pytest.raises(ValueError):
            gz.GraphSpec(3, [(0, 3)])
        with pytest.raises(ValueError):
            gz.GraphSpec(0)
        # The first bad edge in input order is named; negative indices do
        # not wrap around.
        with pytest.raises(ValueError, match=r"edge \(-1, 2\) out of range for d = 3"):
            gz.GraphSpec(3, [(0, 1), (-1, 2), (1, 1)])
        with pytest.raises(ValueError, match="self-loop at vertex 5"):
            gz.GraphSpec(3, [(5, 5), (0, 3)])
        # Indices are not rounded or truncated to integers.
        for edges in ([(0.5, 1.7)], [(0, 1), (1, 2.0)], [("0", "1")]):
            with pytest.raises(ValueError, match="^vertex indices must be integers"):
                gz.GraphSpec(3, edges)

    def test_equality_and_hash(self):
        a = gz.GraphSpec(4, [(0, 1), (2, 3)])
        b = gz.GraphSpec(4, [(3, 2), (1, 0), (0, 1)])
        assert a == b and hash(a) == hash(b)
        assert a != gz.GraphSpec(5, [(0, 1), (2, 3)])
        assert a != gz.GraphSpec(4, [(0, 1)])
        with pytest.raises(ValueError):
            a.adjacency[0, 1] = False

    def test_builders(self):
        assert len(complete_graph(4).edges) == 6
        assert len(gz.GraphSpec(4).edges) == 0
        assert gz.GraphSpec.chain(4).sorted_edges() == [(0, 1), (1, 2), (2, 3)]

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
            k = _around_threshold(rng, d)
            if trial % 2:
                k = np.triu(k) + np.triu(k, 1).T
            pairs = loop_support_pairs(k, gz.EDGE_THRESHOLD)
            assert linalg.upper_pairs(np.abs(k) > gz.EDGE_THRESHOLD) == pairs
            g = gz.GraphSpec.from_support(k)
            assert g.edges == frozenset(pairs)
            assert g.complement().edges == frozenset(loop_complement_pairs(d, g.edges))


def _rounded(rng, d, diagonal=None):
    """Entries rounded to 0.1 (ties at the tolerances, exact zeros), not
    symmetric, with an optional constant diagonal."""
    a = np.round(rng.standard_normal((d, d)), 1)
    if diagonal is not None:
        np.fill_diagonal(a, diagonal)
    return a


def _around_threshold(rng, d):
    """Entries of either sign, not symmetric: exact zeros, ties at
    EDGE_THRESHOLD and its neighbouring floats, and ties at 0.1 and 0.5."""
    t = gz.EDGE_THRESHOLD
    values = [0.0, t / 2, np.nextafter(t, 0.0), t, np.nextafter(t, 1.0), 2 * t, 0.1, 0.5, 1.0]
    return rng.choice(values, (d, d)) * rng.choice([-1.0, 1.0], (d, d))


def _bits(report):
    return {key: float(value).hex() for key, value in report.items()}


class TestGraphMasksMatchLoops:
    """Every graph computation against its pair-by-pair loop, exactly, at d
    up to the benchmark's order of size."""

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 60), seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["random", "empty", "complete"]),
           tol=st.sampled_from([0.0, 0.1, 0.5]))
    def test_masks_match_loops(self, d, seed, kind, tol):
        rng = np.random.default_rng(seed)
        support = _around_threshold(rng, d)
        if kind == "random":
            g = gz.GraphSpec.from_support(support)
            assert g.sorted_edges() == loop_support_pairs(support, gz.EDGE_THRESHOLD)
        else:
            g = gz.GraphSpec(d) if kind == "empty" else complete_graph(d)
        assert g.complement().sorted_edges() == loop_complement_pairs(d, g.edges)

        # Nonnegative but for one entry at or just past -tol; PD or not.
        sigma = np.abs(_rounded(rng, d, diagonal=float(rng.choice([1.0, 4.0 * d]))))
        i, j = rng.integers(0, d, 2)
        if i != j:
            sigma[i, j] = -tol - float(rng.choice([0.0, 0.1]))
        assert gz.is_locally_associated(sigma, g, tol) == loop_is_locally_associated(
            sigma, g, tol)
        for k in (support, sigma):
            assert gz.is_markov(k, g, tol) == loop_is_markov(k, g, tol)

        for got, want in [(gz.ggm_bounds(g), loop_ggm_bounds(g)),
                          (gz.dual_positivity_bounds(g), loop_dual_positivity_bounds(g))]:
            assert got.lower.tobytes() == want.lower.tobytes()
            assert got.upper.tobytes() == want.upper.tobytes()

        s, khat, sigma_hat, sigma_check, kcheck = (_rounded(rng, d) for _ in range(5))
        if rng.random() < 0.5:  # condition (i) met, with exact zeros: +0.0, not -0.0
            sigma_check = np.abs(sigma_check)
        args = (s, g, khat, sigma_hat, sigma_check, kcheck)
        assert _bits(estimators._mde_conditions(*args)) == _bits(loop_mde_conditions(*args))

        khat = _around_threshold(rng, d)
        np.fill_diagonal(khat, float(rng.choice([1.0, 2.5])))
        khat = np.triu(khat) + np.triu(khat, 1).T
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "g.graphml"
            dio.write_graphml(path, khat)
            written = {tuple(sorted((int(u), int(v)))): attrs["partialCorrelation"]
                       for u, v, attrs in nx.read_graphml(path).edges(data=True)}
        assert written == loop_graphml_edges(khat, threshold=gz.EDGE_THRESHOLD)


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

    @pytest.mark.parametrize("check, matrix, graph, name", [
        ("is_markov", np.eye(4), gz.GraphSpec.chain(3), "K"),
        ("is_locally_associated", np.eye(3), gz.GraphSpec(4), "Sigma"),
    ])
    def test_wrongly_sized_graph_is_named(self, check, matrix, graph, name):
        # Both sizes are named, not a boolean index that does not match.
        d = matrix.shape[0]
        with pytest.raises(ValueError, match=rf"^the graph has {graph.d} vertices but {name} "
                                             rf"has shape \({d}, {d}\)$"):
            getattr(gz, check)(matrix, graph)


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
        g = gz.GraphSpec(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        res = gz.ggm_mle(s, g)
        ref = ips_ggm(s, g.sorted_edges(), 4)
        assert np.max(np.abs(res.khat - ref)) < 1e-6

    @settings(max_examples=6, deadline=None)
    @given(d=st.integers(3, 60), seed=st.integers(0, 2**32 - 1))
    def test_matches_ips_oracle_at_scale(self, d, seed):
        rng = np.random.default_rng(seed)
        s = chain_er_correlation(rng, d, 2 * d)
        g = gz.GraphSpec(d, random_graph(rng, d, p=0.1))
        res = gz.ggm_mle(s, g)
        ref = ips_ggm(s, g.sorted_edges(), d)
        assert np.max(np.abs(res.khat - ref)) <= 1e-7

    def test_complete_graph_is_inverse(self):
        rng = np.random.default_rng(4)
        s = random_correlation(rng, 5)
        res = gz.ggm_mle(s, complete_graph(5))
        assert np.max(np.abs(res.khat - np.linalg.inv(s))) < 1e-7

    def test_empty_graph_is_diagonal(self):
        rng = np.random.default_rng(5)
        s = random_correlation(rng, 4)
        res = gz.ggm_mle(s, gz.GraphSpec(4))
        assert np.allclose(res.khat, np.diag(1.0 / np.diag(s)), atol=1e-10)


class TestDualMleEdgePositivity:
    @staticmethod
    def inverse_error(sigma, kcheck):
        return float(np.max(np.abs(kcheck @ sigma - np.eye(len(sigma)))))

    def test_two_by_two_positive_edge_kept(self):
        # K with a negative off-diagonal entry means positive partial
        # correlation; the positivity projection leaves it unchanged.
        k = np.array([[1.0, -0.4], [-0.4, 1.0]])
        sigma, kcheck = gz.dual_mle_edge_positivity(k, complete_graph(2))
        assert np.allclose(sigma, np.linalg.inv(k), atol=1e-8)
        assert self.inverse_error(sigma, kcheck) <= 1e-12

    def test_two_by_two_negative_edge_projected(self):
        # Sigma12 would be negative, so the optimum pins it at zero with
        # the diagonal of K preserved.
        k = np.array([[1.0, 0.5], [0.5, 1.0]])
        sigma, kcheck = gz.dual_mle_edge_positivity(k, complete_graph(2))
        assert np.allclose(sigma, np.eye(2), atol=1e-8)
        assert self.inverse_error(sigma, kcheck) <= 1e-12

    def test_kkt_of_projection(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            d = int(rng.integers(3, 6))
            s = random_correlation(rng, d)
            g = gz.GraphSpec(d, random_graph(rng, d))
            k = gz.ggm_mle(s, g).khat
            sigma, kcheck = gz.dual_mle_edge_positivity(k, g)
            assert self.inverse_error(sigma, kcheck) <= 1e-12
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
            assert max(res.conditions_report.values()) < 1e-7
            assert set(res.conditions_report) == {"i", "ii", "iii", "iv", "v", "vi", "vii"}
            assert gz.is_locally_associated(res.sigma_check, g, tol=1e-8)
            assert gz.is_markov(res.kcheck, g, tol=1e-7)

    def test_kcheck_is_dually_feasible_exactly(self):
        # K-check is the step-2 dual iterate: K-hat's bits on the diagonal and
        # off the graph, at most K-hat on every edge.
        rng = np.random.default_rng(17)
        for _ in range(50):
            d = int(rng.integers(3, 13))
            s = random_correlation(rng, d)
            g = gz.GraphSpec(d, random_graph(rng, d, p=float(rng.uniform(0.2, 0.8))))
            res = gz.mde(s, g)
            assert res.conditions_report["v"] == 0.0
            assert res.conditions_report["vi"] == 0.0
            fixed = ~g.adjacency  # the diagonal and the non-edges
            assert res.kcheck[fixed].tobytes() == res.khat[fixed].tobytes()
            assert np.all(res.kcheck[g.adjacency] <= res.khat[g.adjacency])

    def test_does_not_depend_on_the_blas_thread_count(self, tmp_path):
        # d = 150, where OpenBLAS would thread the factorisations; every
        # step, K-check included, runs inside a fit on one BLAS thread.
        path = tmp_path / "S.npy"
        np.save(path, chain_er_correlation(np.random.default_rng(150), 150, 300))
        probe = ("import sys, hashlib, numpy as np, golazo as gz; "
                 "res = gz.mde(np.load(sys.argv[1]), gz.GraphSpec.chain(150)); "
                 "print(hashlib.sha256(res.kcheck.tobytes() + res.sigma_check.tobytes())"
                 ".hexdigest())")
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(SRC))
            done = subprocess.run([sys.executable, "-c", probe, str(path)], env=env,
                                  capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            digests.append(done.stdout.strip())
        assert digests[0] == digests[1]

    def test_step1_failure_wrapped(self):
        s = np.array([[1.0, 1.0], [1.0, 1.0]])  # singular, saturated graph
        with pytest.raises(MdeStep1FailedError):
            gz.mde(s, complete_graph(2))

    @pytest.mark.parametrize("s, shape", [(np.eye(4), "(4, 4)"), (np.eye(3)[:2], "(2, 3)")])
    def test_graph_of_the_wrong_size_is_an_input_error(self, s, shape):
        # Named as the input error it is, before step 1 runs.
        with pytest.raises(ValueError, match=rf"^the graph has 3 vertices but S has shape "
                                             rf"{re.escape(shape)}$"):
            gz.mde(s, gz.GraphSpec.chain(3))

    @pytest.mark.parametrize("s, shape", [(np.eye(4), "(4, 4)"), (np.eye(3)[:2], "(2, 3)")])
    @pytest.mark.parametrize("entry, name", [("mde", "S"), ("ggm_mle", "S"),
                                             ("dual_mle_edge_positivity", "khat")])
    def test_each_entry_names_a_wrongly_sized_graph(self, monkeypatch, s, shape, entry, name):
        # Both sizes are named before any fit runs, never bounds the caller
        # did not pass; mde passes ggm_mle's ValueError on unwrapped.
        monkeypatch.setattr(estimators, "fit", None)
        with pytest.raises(ValueError, match=rf"^the graph has 3 vertices but {name} has shape "
                                             rf"{re.escape(shape)}$"):
            getattr(gz, entry)(s, gz.GraphSpec.chain(3))

    def test_zero_pattern_reconstruction(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            d = int(rng.integers(3, 6))
            s = random_correlation(rng, d)
            g = gz.GraphSpec(d, random_graph(rng, d))
            res = gz.mde(s, g)
            rebuilt = mde_via_zero_pattern(s, g, res.sigma_check)
            assert np.max(np.abs(rebuilt - res.sigma_check)) < 1e-6
