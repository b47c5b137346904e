"""Acceptance suite: one test per numbered criterion, each printing a single
pass/fail line (run with -v or -s to see them).  Tolerances are stated inline;
independent oracles live in oracles.py.
"""
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import golazo as gz
from golazo import cli, solver
from golazo import data as dio

from oracles import (
    bruteforce_single_linkage,
    forced_pair_bounds,
    ips_ggm,
    loop_forced_zero_pairs,
    mde_via_zero_pattern,
    prox_gradient_glasso,
    random_correlation,
    random_graph,
)

SRC = Path(__file__).resolve().parent.parent / "src"

TIGHT = gz.SolverConfig(dual_gap_tol=1e-11, max_sweeps=2000)


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num:02d}: {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num:02d} failed: {name} {detail}"


def _preset(kind, rng, d):
    if kind == "glasso":
        return gz.glasso_bounds(float(rng.uniform(0.02, 0.5)), d)
    if kind == "asymmetric":
        return gz.asymmetric_bounds(float(rng.uniform(0.02, 0.5)),
                                    float(rng.uniform(0.02, 0.5)), d)
    if kind == "positive":
        return gz.positive_glasso_bounds(float(rng.uniform(0.02, 0.5)), d)
    return gz.mtp2_bounds(d)


def test_criterion_01_kkt_certificates():
    """200 random inputs across four presets: per-entry certificate residual
    below 1e-6, total runtime under 60 s."""
    rng = np.random.default_rng(101)
    kinds = ("glasso", "asymmetric", "positive", "mtp2")
    start = time.perf_counter()
    worst = 0.0
    for trial in range(200):
        d = int(rng.integers(2, 9))
        s = random_correlation(rng, d)
        bounds = _preset(kinds[trial % 4], rng, d)
        res = gz.fit(s, bounds)
        worst = max(worst, float(np.max(gz.kkt_residuals(s, res, bounds))))
    elapsed = time.perf_counter() - start
    _report(1, "KKT certificate suite", worst <= 1e-6 and elapsed < 60.0,
            f"max residual {worst:.2e}, {elapsed:.1f} s")


def test_criterion_02_duality_gap_convergence():
    """Final gap in [-1e-10, 1e-8]; the per-sweep gap trace is monotone
    non-increasing with slack 1e-12."""
    rng = np.random.default_rng(102)
    kinds = ("glasso", "asymmetric", "positive", "mtp2")
    ok = True
    worst_gap = 0.0
    for trial in range(60):
        d = int(rng.integers(2, 9))
        s = random_correlation(rng, d)
        res = gz.fit(s, _preset(kinds[trial % 4], rng, d))
        worst_gap = max(worst_gap, abs(res.dual_gap))
        ok &= -1e-10 <= res.dual_gap <= 1e-8
        ok &= all(b <= a + 1e-12 for a, b in zip(res.gap_trace, res.gap_trace[1:]))
    _report(2, "duality-gap convergence", ok, f"worst |gap| {worst_gap:.2e}")


def test_criterion_03_glasso_oracle():
    """Symmetric penalty matches an independent primal proximal-gradient
    solver within 1e-5 on 50 seeded instances, d <= 6."""
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(2, 7))
        s = random_correlation(rng, d)
        rho = float(rng.uniform(0.02, 0.4))
        res = gz.fit(s, gz.glasso_bounds(rho, d), config=TIGHT)
        ref = prox_gradient_glasso(s, rho)
        worst = max(worst, float(np.max(np.abs(res.khat - ref))))
    _report(3, "graphical-lasso oracle equivalence", worst <= 1e-5,
            f"max deviation {worst:.2e}")


def test_criterion_04_ggm_oracle():
    """Graph-constrained MLE matches iterative proportional scaling within
    1e-6 on 50 (S, G) pairs, including the non-decomposable 4-cycle."""
    rng = np.random.default_rng(104)
    worst = 0.0
    for trial in range(50):
        d = int(rng.integers(3, 7))
        if trial % 5 == 0:
            d = 4
            g = gz.GraphSpec(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        else:
            g = gz.GraphSpec(d, random_graph(rng, d))
        s = random_correlation(rng, d)
        res = gz.ggm_mle(s, g, config=TIGHT)
        ref = ips_ggm(s, g.sorted_edges(), d)
        worst = max(worst, float(np.max(np.abs(res.khat - ref))))
    _report(4, "graph-constrained MLE oracle equivalence", worst <= 1e-6,
            f"max deviation {worst:.2e}")


def test_criterion_05_mtp2():
    """Sign-constrained fit yields an M-matrix with Sigma >= S - 1e-10 and
    equality where K < 0, on 100 random instances."""
    rng = np.random.default_rng(105)
    ok = True
    for _ in range(100):
        d = int(rng.integers(2, 9))
        s = random_correlation(rng, d)
        res = gz.fit(s, gz.mtp2_bounds(d), config=TIGHT)
        off = ~np.eye(d, dtype=bool)
        ok &= bool(np.all(res.khat[off] <= 1e-8))
        ok &= bool(np.all(res.sigma_hat >= s - 1e-10))
        neg = res.khat < -gz.EDGE_THRESHOLD
        ok &= bool(np.all(np.abs((res.sigma_hat - s)[neg & off]) <= 1e-6))
    _report(5, "M-matrix fit properties", ok)


def test_criterion_06_rank_deficient_existence():
    """n = 2 < d = 6 second-moment inputs: the positively penalized fit
    succeeds through the single-linkage start on 100/100 seeded draws."""
    successes = 0
    for seed in range(100):
        rng = np.random.Generator(np.random.Philox(seed))
        x = rng.standard_normal((2, 6))
        s = x.T @ x / 2
        res = gz.fit(s, gz.positive_glasso_bounds(0.1, 6))
        if res.dual_gap <= 1e-8:
            successes += 1
    _report(6, "existence under rank deficiency", successes == 100,
            f"{successes}/100")


def test_criterion_07_single_linkage():
    """Exact agreement with all-simple-paths max-min enumeration (d <= 7);
    Z >= R entrywise; inverse of a PD Z has off-diagonal <= 1e-8."""
    rng = np.random.default_rng(107)
    ok = True
    for _ in range(20):
        d = int(rng.integers(3, 8))
        r = random_correlation(rng, d)
        z = solver._single_linkage(r)
        ok &= bool(np.array_equal(z, bruteforce_single_linkage(r)))
        ok &= bool(np.all(z >= np.where(r > 0, r, 0.0)))
        if np.min(np.linalg.eigvalsh(z)) > 0:
            zinv = np.linalg.inv(z)
            off = ~np.eye(d, dtype=bool)
            ok &= bool(np.all(zinv[off] <= 1e-8))
    _report(7, "single-linkage matrix correctness", ok)


def test_criterion_08_two_step_conditions():
    """Two-step estimator on 100 random (S, G), d <= 8: all seven optimality
    conditions within 1e-7, and the outputs lie in the model."""
    rng = np.random.default_rng(108)
    ok = True
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(3, 9))
        s = random_correlation(rng, d)
        g = gz.GraphSpec(d, random_graph(rng, d))
        res = gz.mde(s, g, config=TIGHT)
        residual = max(res.conditions_report.values())
        worst = max(worst, residual)
        ok &= residual <= 1e-7
        ok &= gz.is_locally_associated(res.sigma_check, g, tol=1e-8)
        ok &= gz.is_markov(res.kcheck, g, tol=1e-7)
    _report(8, "two-step optimality conditions", ok, f"max residual {worst:.2e}")


def test_criterion_09_zero_pattern_equivalence():
    """Recomputing the second step through its zero pattern reproduces the
    step-2 covariance within 1e-6 on 50 instances."""
    rng = np.random.default_rng(109)
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(3, 7))
        s = random_correlation(rng, d)
        g = gz.GraphSpec(d, random_graph(rng, d))
        res = gz.mde(s, g, config=TIGHT)
        rebuilt = mde_via_zero_pattern(s, g, res.sigma_check, config=TIGHT)
        worst = max(worst, float(np.max(np.abs(rebuilt - res.sigma_check))))
    _report(9, "zero-pattern reconstruction of step 2", worst <= 1e-6,
            f"max deviation {worst:.2e}")


def test_criterion_10_refit_self_consistency():
    """Refitting a plain graph-constrained MLE on the fitted support with
    sign-shifted statistics reproduces K within 1e-6 on 50 instances."""
    rng = np.random.default_rng(110)
    kinds = ("glasso", "asymmetric", "positive")
    worst = 0.0
    for trial in range(50):
        d = int(rng.integers(3, 7))
        s = random_correlation(rng, d)
        bounds = _preset(kinds[trial % 3], rng, d)
        res = gz.fit(s, bounds, config=TIGHT)
        ghat = gz.GraphSpec.from_support(res.khat)
        smod = s.copy()
        clipped = gz.clip_to_finite(bounds, s)
        lo, hi = clipped.lower, clipped.upper
        for i, j in ghat.edges:
            shift = lo[i, j] if res.khat[i, j] < 0 else hi[i, j]
            smod[i, j] += shift
            smod[j, i] += shift
        refit = gz.ggm_mle(smod, ghat, config=TIGHT)
        worst = max(worst, float(np.max(np.abs(refit.khat - res.khat))))
    _report(10, "sign-shifted refit self-consistency", worst <= 1e-6,
            f"max deviation {worst:.2e}")


def test_criterion_11_screening_agreement():
    """Screened and unscreened solves agree exactly on the edge pattern at
    the 1e-6 threshold, and forced-zero pairs are zero, on 100 glasso
    instances and on each of them with a random subset of pairs forced."""
    rng = np.random.default_rng(111)
    forcing = np.random.default_rng(112)
    ok = True
    forced = 0
    for _ in range(100):
        d = int(rng.integers(3, 8))
        s = random_correlation(rng, d)
        rho = float(rng.uniform(0.05, 0.8))
        for bounds in (gz.glasso_bounds(rho, d), forced_pair_bounds(forcing, s, rho)):
            a = gz.fit(s, bounds, screen=True)
            b = gz.fit(s, bounds, screen=False)
            ok &= bool(np.array_equal(a.sign_pattern != 0, b.sign_pattern != 0))
            for i, j in loop_forced_zero_pairs(s, bounds):
                ok &= abs(a.khat[i, j]) <= 1e-6 and abs(b.khat[i, j]) <= 1e-6
                forced += 1
            for j in a.isolated_rows:
                ok &= bool(np.all(a.sign_pattern[j] == 0))
    ok &= forced > 0
    _report(11, "screening agreement", ok, f"{forced} forced pairs")


def test_criterion_12_consistency_monte_carlo():
    """d = 5 chain model: the median sup-norm error of the two-step estimate
    over 200 replicates shrinks roughly like n^(-1/2) across
    n = 100, 1000, 10000 (successive ratios in [0.2, 0.5]); under 5 min."""
    start = time.perf_counter()
    graph = gz.GraphSpec.chain(5)
    sigma_star = gz.sample_locally_associated(graph, seed=12)
    chol = np.linalg.cholesky(sigma_star)
    medians = []
    for n in (100, 1000, 10000):
        errors = []
        for rep in range(200):
            rng = np.random.Generator(np.random.Philox([n, rep]))
            x = rng.standard_normal((n, 5)) @ chol.T
            s = gz.sample_covariance(x)
            res = gz.mde(s, graph)
            errors.append(float(np.max(np.abs(res.sigma_check - sigma_star))))
        medians.append(float(np.median(errors)))
    ratios = [b / a for a, b in zip(medians, medians[1:])]
    elapsed = time.perf_counter() - start
    ok = all(0.2 <= r <= 0.5 for r in ratios) and elapsed < 300.0
    _report(12, "consistency Monte Carlo", ok,
            f"medians {['%.4f' % m for m in medians]}, "
            f"ratios {['%.3f' % r for r in ratios]}, {elapsed:.0f} s")


def test_criterion_13_ebic_arithmetic():
    """The information criterion reproduces a hand-computed value to 1e-9,
    and gamma = 0 equals the classical BIC exactly."""
    k = np.eye(5)
    for i, j in [(0, 1), (1, 2), (3, 4)]:
        k[i, j] = k[j, i] = 0.2
    _, logdet = np.linalg.slogdet(k)
    c = (2.0 + 0.5 * logdet) / 2.5
    s = c * np.linalg.inv(k)
    s = (s + s.T) / 2

    class Stub:
        khat = k
        edge_count = int(np.count_nonzero(np.abs(np.triu(k, 1)) > gz.EDGE_THRESHOLD))

    got = gz.ebic(s, Stub, n=100, gamma=0.5)
    expected = 100 * 2.0 + 3 * (np.log(100) + 2.0 * np.log(5))
    ok = Stub.edge_count == 3 and abs(got - expected) <= 1e-9
    bic = gz.ebic(s, Stub, n=100, gamma=0.0)
    ok &= bic == 100 * gz.gaussian_neg_loglik(s, k) + 3 * np.log(100)
    _report(13, "information-criterion arithmetic", ok,
            f"value {got:.7f} vs {expected:.7f}")


def test_criterion_14_cli_determinism(tmp_path):
    """Identical inputs give byte-identical outputs; path selection
    does not depend on the BLAS thread count."""
    rng = np.random.default_rng(114)
    x = rng.standard_normal((60, 4)) @ np.linalg.cholesky(
        random_correlation(rng, 4)).T
    data_file = tmp_path / "X.csv"
    np.savetxt(data_file, x, delimiter=",", fmt="%.17g")

    def run_fit(out):
        code = cli.main(["fit", "--input", str(data_file), "--input-kind", "data",
                         "--out", str(out), "--preset", "glasso", "--rho", "0.1"])
        assert code == 0

    run_fit(tmp_path / "a")
    run_fit(tmp_path / "b")
    ok = all((tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
             for f in ("Khat.csv", "Sigma.csv", "edges.txt", "summary.json"))

    def run_path(out, threads):
        # A fresh process per thread count: OpenBLAS reads it at load time.
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(SRC))
        done = subprocess.run(
            [sys.executable, "-m", "golazo.cli", "path", "--input", str(data_file),
             "--input-kind", "data", "--out", str(out), "--preset", "glasso", "--rho", "1.0",
             "--grid", "log:0.02:0.8:8"],
            env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        payload = (out / "path.json").read_bytes()
        return json.loads(payload)["selectedIndex"], payload, (out / "Khat.csv").read_bytes()

    ok &= run_path(tmp_path / "p1", "1") == run_path(tmp_path / "p2", "2")
    _report(14, "command-line determinism", ok)
