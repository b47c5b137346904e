import hashlib
import os
import re
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from collections import Counter
from concurrent import futures
from pathlib import Path
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import golazo as gz
from golazo import data as dio
from golazo import linalg
from golazo.errors import (
    ConstantColumnWarning,
    NonpositiveDiagonalError,
)

from oracles import (
    blas_thread_counts,
    loop_graphml_edges,
    loop_kendall_tau,
    random_graph,
    reference_csv_symmetric,
    reference_read_csv,
)

SRC = Path(__file__).resolve().parent.parent / "src"


class TestDataMatrix:
    """The n x d float array that ``read_csv_data`` returns."""

    def test_shape_and_names(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n3,4\n5,6\n")
        x = dio.read_csv_data(path, header=True)
        assert type(x) is np.ndarray and x.dtype == float and x.shape == (3, 2)
        with pytest.raises(ValueError, match="could not convert string to float: 'a'"):
            dio.read_csv_data(path)

    def test_rejects_non_finite(self, tmp_path):
        path = tmp_path / "d.csv"
        for text in ("1,nan\n2,3\n", "inf,0\n1,2\n", "1,2\n-INF,3\n"):
            path.write_text(text)
            with pytest.raises(ValueError, match="data contains missing or non-finite values"):
                dio.read_csv_data(path)

    def test_rejects_name_mismatch(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("only_one\n1,2\n")
        with pytest.raises(ValueError, match="header has 1 names for 2 columns"):
            dio.read_csv_data(path, header=True)


# Number spellings that float() and np.loadtxt both read, and tokens that
# send the reader down its csv-module path or to an error.
_CSV_NUMBERS = st.one_of(
    st.sampled_from(["1e3", " 2.5 ", "INF", "-inf", "+Inf", "0", "-0", "7", ".5",
                     "\t-2\t", "1e400"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr))
_CSV_ODD = st.sampled_from(["nan", "NaN", '"4"', '" 2.5 "', '"1,5"', "#", "# 3", "",
                            " ", "x", "1_0", "1 2"])
_CSV_TOKENS = st.one_of(_CSV_NUMBERS, _CSV_NUMBERS, _CSV_NUMBERS, _CSV_ODD)


@st.composite
def _csv_texts(draw):
    """CSV text: an optional header row, then rows that are mostly k wide
    (or a symmetric k x k matrix), with ragged rows, trailing commas and
    blank or whitespace-only lines mixed in."""
    k = draw(st.integers(1, 3))
    if draw(st.booleans()):
        cells = [[None] * k for _ in range(k)]
        for i in range(k):
            for j in range(i, k):
                cells[i][j] = cells[j][i] = draw(_CSV_TOKENS)
        lines = [",".join(row) for row in cells]
    else:
        lines = []
        for _ in range(draw(st.integers(0, 4))):
            kind = draw(st.sampled_from(["row", "row", "row", "ragged", "trailing", "blank"]))
            if kind == "blank":
                lines.append(draw(st.sampled_from(["", " ", "\t"])))
                continue
            width = draw(st.integers(1, 4)) if kind == "ragged" else k
            fields = draw(st.lists(_CSV_TOKENS, min_size=width, max_size=width))
            lines.append(",".join(fields) + ("," if kind == "trailing" else ""))
    if draw(st.booleans()):
        lines.insert(0, draw(st.sampled_from(["a", "a,b", "a,b,c", '"a,b",c', "#,x", ""])))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


def _outcome(read):
    try:
        a = read()
    except Exception as exc:  # the kind of failure is compared too
        return type(exc), str(exc)
    return a.dtype.str, a.shape, a.tobytes()


class TestReaderMatchesReference:
    """``read_csv_data`` and ``read_csv_matrix`` against the csv-module
    reader they replaced: the same bits, or the same error message."""

    @settings(max_examples=400, deadline=None)
    @given(text=_csv_texts(), header=st.booleans())
    @example(text=" 1e3, 2.5 \nINF,-inf\n", header=False)
    @example(text="1,2\r\n3,nan\r\n", header=False)
    @example(text='"1",2\n2,"3"\n', header=False)
    @example(text="1,2\n  \n2,1\n", header=False)
    @example(text="1,2\n\n2,1\n", header=False)
    @example(text="#,1\n1,2\n", header=False)
    @example(text="a,b\n1,2\n2,1\n", header=True)
    @example(text="a\n1,2\n2,1\n", header=True)
    @example(text='"a,\nb",c\n1,2\n2,1\n', header=True)
    @example(text="1,2\n3\n", header=False)
    @example(text="1,2,\n2,1,\n", header=False)
    @example(text="", header=False)
    @example(text="", header=True)
    @example(text="a,b\n", header=True)
    def test_same_bits_or_message(self, text, header):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "in.csv"
            path.write_bytes(text.encode())
            reads = [lambda: dio.read_csv_data(path, header=header)]
            reads += [lambda allow=allow: dio.read_csv_matrix(path, header=header,
                                                              allow_inf=allow)
                      for allow in (True, False)]
            for read in reads:
                with mock.patch.object(dio, "_read_csv", reference_read_csv):
                    want = _outcome(read)
                assert _outcome(read) == want


class TestSampleCovariance:
    def test_matches_definition(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((40, 3))
        s = gz.sample_covariance(x)
        centered = x - x.mean(axis=0)
        assert np.allclose(s, centered.T @ centered / 40, atol=1e-14)

    def test_constant_column_warns(self):
        x = np.column_stack([np.ones(10), np.arange(10.0)])
        with pytest.warns(ConstantColumnWarning):
            gz.sample_covariance(x)

    def test_to_correlation(self):
        s = np.array([[4.0, 1.0], [1.0, 9.0]])
        r = gz.to_correlation(s)
        assert np.allclose(np.diag(r), 1.0)
        assert r[0, 1] == pytest.approx(1.0 / 6.0)
        with pytest.raises(NonpositiveDiagonalError):
            gz.to_correlation(np.diag([1.0, 0.0]))


class TestKendallAndSkeptic:
    def test_tau_perfect_orders(self):
        x = np.column_stack([np.arange(5.0), np.arange(5.0) ** 3])
        tau = gz.kendall_tau_matrix(x)
        assert tau[0, 1] == pytest.approx(1.0)
        y = np.column_stack([np.arange(5.0), -np.arange(5.0)])
        assert gz.kendall_tau_matrix(y)[0, 1] == pytest.approx(-1.0)

    def test_tau_needs_two_rows(self):
        with pytest.raises(ValueError, match="^Kendall correlation needs at least two observations$"):
            gz.kendall_tau_matrix(np.array([[1.0, 2.0, 3.0]]))

    def test_tau_hand_value(self):
        # One discordant pair out of three: tau = (2 - 1) / 3.
        x = np.column_stack([[1.0, 2.0, 3.0], [1.0, 3.0, 2.0]])
        assert gz.kendall_tau_matrix(x)[0, 1] == pytest.approx(1.0 / 3.0)

    def test_skeptic_monotone_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(60)
        data = np.column_stack([x, np.exp(x), rng.standard_normal(60)])
        r = gz.skeptic_correlation(data)
        assert r[0, 1] == pytest.approx(1.0)
        assert np.allclose(np.diag(r), 1.0)
        assert np.all(np.abs(r) <= 1.0 + 1e-12)

    def test_skeptic_recovers_gaussian_correlation(self):
        rng = np.random.default_rng(2)
        rho = 0.6
        cov = np.array([[1.0, rho], [rho, 1.0]])
        x = rng.multivariate_normal([0, 0], cov, size=4000)
        r = gz.skeptic_correlation(x)
        assert r[0, 1] == pytest.approx(rho, abs=0.05)

    def test_nearest_correlation_fixes_indefinite(self):
        r = np.array([[1.0, 0.9, -0.9],
                      [0.9, 1.0, 0.9],
                      [-0.9, 0.9, 1.0]])
        assert np.min(np.linalg.eigvalsh(r)) < 0
        fixed = gz.nearest_correlation(r)
        assert np.min(np.linalg.eigvalsh(fixed)) > 0
        assert np.allclose(np.diag(fixed), 1.0)


def _kendall_cases():
    rng = np.random.default_rng(20)
    ties = rng.integers(0, 4, size=(40, 5)).astype(float)
    constant = rng.standard_normal((30, 4))
    constant[:, 1] = 2.5
    two = np.array([[1.0, 2.0, 3.0, 0.0], [1.0, 5.0, 0.0, 0.0]])
    # 8 columns put 32768 pair rows in a block, so the 45150 pairs of
    # n = 301 fill one block and part of a second, splitting a lag.
    ragged = rng.standard_normal((301, 8))
    ragged[:, 3] = np.round(ragged[:, 3])
    one_column = rng.integers(0, 3, size=(25, 1)).astype(float)
    signed_zeros = np.array([[0.0, -0.0], [-0.0, 1.0], [0.0, -1.0]])
    return {"ties": ties, "constant_column": constant, "n2": two,
            "ragged_blocks": ragged, "d1": one_column, "signed_zeros": signed_zeros}


# Kendall's tau-a is the one variant; this one-value parametrization keeps
# the "a" in the test ids, so they stay stable.
TAU_A = pytest.mark.parametrize("tau", [gz.kendall_tau_matrix], ids=["a"])


class TestKendallMatchesLoop:
    """The blocked sign-Gram product against pair enumeration, bit for bit."""

    @TAU_A
    @pytest.mark.parametrize("case", sorted(_kendall_cases()))
    def test_seeded_cases(self, case, tau):
        x = _kendall_cases()[case]
        assert np.array_equal(tau(x), loop_kendall_tau(x))

    @TAU_A
    def test_many_small_blocks(self, tau, monkeypatch):
        # 60 rows per block: the long lags of n = 37 take a block each, the
        # short ones share one.
        monkeypatch.setattr(dio, "_SIGN_BLOCK_ENTRIES", 3 * 60)
        x = np.random.default_rng(21).integers(0, 5, size=(37, 3)).astype(float)
        assert np.array_equal(tau(x), loop_kendall_tau(x))

    @settings(max_examples=60, deadline=None)
    @given(x=st.integers(2, 60).flatmap(lambda n: st.integers(1, 8).flatmap(
               lambda d: hnp.arrays(np.float64, (n, d),
                                    elements=st.integers(-3, 3).map(float)))),
           block=st.sampled_from([dio._SIGN_BLOCK_ENTRIES, 24]))
    def test_property_integer_data(self, x, block):
        with mock.patch.object(dio, "_SIGN_BLOCK_ENTRIES", block):
            tau = gz.kendall_tau_matrix(x)
        assert np.array_equal(tau, loop_kendall_tau(x))

    def test_memory_stays_bounded(self):
        # Pair enumeration held d dense n x n sign matrices here: 128 MB.
        x = np.random.default_rng(22).standard_normal((2000, 4))
        tracemalloc.start()
        try:
            gz.kendall_tau_matrix(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestKendallInput:
    def test_nan_is_an_error_naming_its_row_and_column(self):
        x = np.random.default_rng(23).standard_normal((8, 3))
        x[5, 0] = x[3, 2] = np.nan
        for f in (gz.kendall_tau_matrix, gz.skeptic_correlation):
            with pytest.raises(ValueError, match=r"row 3, column 2 \(0-based\) is NaN"):
                f(x)

    @TAU_A
    def test_infinities_are_ordered_and_equal_ones_tie(self, tau):
        x = np.random.default_rng(24).standard_normal((30, 5))
        x[[2, 7, 11], 0] = np.inf
        x[[5, 9], 1] = -np.inf
        x[[3, 4], 2] = np.inf, -np.inf
        x[:, 3] = np.inf  # a constant column of infinities
        x[[0, 1], 4] = np.inf
        x[[6, 8, 10], 4] = -np.inf
        finite = np.where(x == np.inf, 1e6, np.where(x == -np.inf, -1e6, x))
        assert np.array_equal(tau(x), loop_kendall_tau(finite))
        assert np.array_equal(gz.skeptic_correlation(x), gz.skeptic_correlation(finite))

    def test_rows_past_the_float32_bound_rejected(self):
        x = np.broadcast_to(0.0, (2**24 + 1, 1))  # a view: nothing is allocated
        with pytest.raises(ValueError, match=r"at most 2\*\*24 = 16777216 observations, "
                                             r"got 16777217"):
            gz.kendall_tau_matrix(x)

    @pytest.mark.parametrize("shape", [(8,), (6, 3, 2)], ids=["1-d", "3-d"])
    def test_array_that_is_not_2d_is_named(self, monkeypatch, shape):
        monkeypatch.setattr(dio, "_sign_gram", None)  # no work before the check
        for f in (gz.kendall_tau_matrix, gz.skeptic_correlation):
            with pytest.raises(ValueError, match=re.escape(f"n x d data array, got shape {shape}")):
                f(np.zeros(shape))

    def test_does_not_depend_on_the_blas_thread_count(self, tmp_path):
        # The library call runs BLAS on one thread and splits its blocks over
        # the usable CPUs; neither OPENBLAS_NUM_THREADS nor a child pinned to
        # one CPU (no worker thread then) may change a bit.
        x = np.random.default_rng(25).standard_normal((3000, 60))
        x[:, 7] = np.round(x[:, 7])
        path = tmp_path / "x.npy"
        np.save(path, x)
        probe = ("import os, sys, hashlib, numpy as np, golazo as gz; "
                 "sys.argv[2:] and os.sched_setaffinity(0, {int(sys.argv[2])}); "
                 "x = np.load(sys.argv[1]); "
                 "print(hashlib.sha256(gz.kendall_tau_matrix(x).tobytes()).hexdigest())")
        runs = [("1", []), ("2", [])]
        if hasattr(os, "sched_setaffinity"):
            runs.append(("2", [str(min(os.sched_getaffinity(0)))]))
        digests = []
        for threads, pin in runs:
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(SRC))
            done = subprocess.run([sys.executable, "-c", probe, str(path), *pin], env=env,
                                  capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            digests.append(done.stdout.strip())
        assert digests == [hashlib.sha256(gz.kendall_tau_matrix(x).tobytes()).hexdigest()] * len(runs)


class TestKendallWorkers:
    """The sign-Gram's lag blocks shared out over worker threads."""

    @staticmethod
    def split(monkeypatch, cpus):
        # About one lag per block: n = 80 gives 51 blocks, enough for
        # 8 workers, on as many columns as a split needs.
        monkeypatch.setattr(dio, "_SIGN_BLOCK_ENTRIES", 1)
        monkeypatch.setattr(dio, "_usable_cpus", lambda: cpus)
        rng = np.random.default_rng(26)
        return rng.integers(0, 6, size=(80, dio._MIN_SPLIT_COLUMNS)).astype(float)

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    def test_any_core_count_gives_the_loop_bits(self, monkeypatch, cpus):
        x = self.split(monkeypatch, cpus)
        pools = []
        original = futures.ThreadPoolExecutor

        def counting(workers):
            pools.append(workers)
            return original(workers)

        monkeypatch.setattr(futures, "ThreadPoolExecutor", counting)
        results, interval = [], sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            caller = threading.Thread(
                target=lambda: results.extend(gz.kendall_tau_matrix(x) for _ in range(5)))
            caller.start()
            caller.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not caller.is_alive() and len(results) == 5
        assert pools == ([cpus - 1] * 5 if cpus > 1 else [])
        ref = loop_kendall_tau(x)
        for tau in results:
            assert np.array_equal(tau, ref)

    def test_no_thread_outlives_the_call(self, monkeypatch):
        x = self.split(monkeypatch, 4)
        before = threading.enumerate()
        gz.kendall_tau_matrix(x)
        assert threading.enumerate() == before

    @pytest.mark.parametrize("failing", ["helper", "caller"])
    def test_an_error_reaches_the_caller_and_stops_the_workers(self, monkeypatch, failing):
        x = self.split(monkeypatch, 2)
        caller, original, calls = threading.get_ident(), dio._lag_signs, Counter()

        def hooked(*args):
            role = "caller" if threading.get_ident() == caller else "helper"
            calls[role] += 1
            if role != failing:
                time.sleep(0.005)  # so that the failing worker gets two blocks
            elif calls[role] == 2:
                raise RuntimeError(f"the {role}'s second block")
            return original(*args)

        monkeypatch.setattr(dio, "_lag_signs", hooked)
        before = threading.enumerate()
        with pytest.raises(RuntimeError, match=f"the {failing}'s second block"):
            gz.kendall_tau_matrix(x)
        assert threading.enumerate() == before
        # The other worker stops after the block it holds, well short of the
        # 49 blocks that were left.
        assert calls[failing] == 2 and sum(calls.values()) < 12

    def test_runs_on_one_blas_thread_and_counts_come_back(self, monkeypatch):
        pools = linalg._blas_pools(linalg._BUNDLED_OPENBLAS)
        if not pools:
            pytest.skip("numpy and scipy bundle no OpenBLAS here")
        x = self.split(monkeypatch, 2)
        original, seen = dio._lag_signs, []

        def recording(*args):
            seen.append(blas_thread_counts())
            return original(*args)

        monkeypatch.setattr(dio, "_lag_signs", recording)
        old = blas_thread_counts()
        try:
            for _, set_ in pools:  # 2, so that a count not put back shows on one core too
                set_(2)
            counts = blas_thread_counts()
            gz.kendall_tau_matrix(x)
            assert blas_thread_counts() == counts
        finally:
            for (_, set_), n in zip(pools, old):
                set_(n)
        assert seen and all(c == [1] * len(pools) for c in seen)


class TestGenerators:
    @pytest.mark.parametrize("graph", [
        gz.GraphSpec.chain(5),
        gz.GraphSpec(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),  # not chordal
        gz.GraphSpec(4, [(0, 1), (2, 3)]),
    ])
    def test_sample_locally_associated(self, graph):
        sigma = gz.sample_locally_associated(graph, seed=11)
        assert gz.is_locally_associated(sigma, graph, tol=1e-9)
        assert gz.is_markov(np.linalg.inv(sigma), graph, tol=1e-7)

    def test_sample_locally_associated_propagates_programming_errors(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("not a rejected draw")

        monkeypatch.setattr(dio, "ggm_mle", broken)
        with pytest.raises(TypeError, match="not a rejected draw"):
            gz.sample_locally_associated(
                gz.GraphSpec(4, [(0, 1), (1, 2), (2, 3), (0, 3)]), seed=11)

    def test_sample_locally_associated_projects_every_graph(self):
        # Each draw is the graph-model projection of an entrywise positive
        # matrix, chordal graphs included: no tolerance on the edge
        # covariances, and zeros off the graph in its inverse up to rounding.
        rng = np.random.default_rng(23)
        for _ in range(100):
            d = int(rng.integers(4, 41))
            graph = gz.GraphSpec(d, random_graph(rng, d, p=float(rng.uniform(0.1, 0.6))))
            seed = int(rng.integers(2**32))
            sigma = gz.sample_locally_associated(graph, seed=seed)
            assert gz.is_locally_associated(sigma, graph, tol=0.0)
            assert gz.is_markov(np.linalg.inv(sigma), graph, tol=1e-12)
            assert gz.sample_locally_associated(graph, seed=seed).tobytes() == sigma.tobytes()

    def test_sample_locally_associated_deterministic(self):
        g = gz.GraphSpec.chain(4)
        a = gz.sample_locally_associated(g, seed=3)
        b = gz.sample_locally_associated(g, seed=3)
        assert np.array_equal(a, b)

    def test_sample_locally_associated_chordal_draw_is_pinned(self):
        # A triangle {0, 1, 2} with vertex 3 hanging off 0.  Pinned bytes: a
        # seeded draw must not change silently.
        g = gz.GraphSpec(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
        want = np.array([
            [0.486858105919973, 0.6270518815380888, 0.23911263870031343, 0.40933548263676667],
            [0.6270518815380888, 1.8758398626854236, 0.45489462136709824, 0.5272061437339547],
            [0.23911263870031343, 0.45489462136709824, 0.41380314137047314, 0.20103863153719811],
            [0.40933548263676667, 0.5272061437339547, 0.20103863153719811, 0.7404252700551552],
        ])
        assert gz.sample_locally_associated(g, seed=5).tobytes() == want.tobytes()

    def test_sample_locally_associated_does_not_depend_on_the_blas_thread_count(self):
        # OpenBLAS threads the d x 2d product and the final inverse of a
        # 200-vertex draw.
        probe = ("import hashlib, golazo as gz; "
                 "g = gz.GraphSpec(200, [(i, (i + 1) % 200) for i in range(200)]); "
                 "print(hashlib.sha256(gz.sample_locally_associated(g, seed=1).tobytes())"
                 ".hexdigest())")
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(SRC))
            done = subprocess.run([sys.executable, "-c", probe], env=env,
                                  capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            digests.append(done.stdout.strip())
        assert digests[0] == digests[1]

    def test_sample_locally_associated_ignores_edge_order(self):
        band = [(i, i + k) for k in (1, 2) for i in range(8 - k)]
        forward = gz.sample_locally_associated(gz.GraphSpec(8, band), seed=3)
        backward = gz.sample_locally_associated(gz.GraphSpec(8, band[::-1]), seed=3)
        assert forward.tobytes() == backward.tobytes()


def _ties_at_the_edge_threshold():
    """|k_12| and |k_23| equal EDGE_THRESHOLD; only k_13, one float past it, is an edge."""
    t = gz.EDGE_THRESHOLD
    past = np.nextafter(t, 1.0)
    return np.array([[1.0, t, -past], [t, 2.0, -t], [-past, -t, 1.5]])


class TestFileFormats:
    def test_matrix_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 4))
        a = (a + a.T) / 2
        path = tmp_path / "m.csv"
        dio.write_csv_matrix(path, a)
        back = dio.read_csv_matrix(path)
        assert np.array_equal(back, a)  # %.17g round-trips doubles exactly

    def test_matrix_infinities(self, tmp_path):
        a = np.array([[0.0, np.inf], [np.inf, 0.0]])
        path = tmp_path / "b.csv"
        dio.write_csv_matrix(path, a)
        assert np.array_equal(dio.read_csv_matrix(path), a)
        path.write_text("0, INF ,-Inf\n+inf,0,1\n-inf ,1,0\n")
        want = np.array([[0.0, np.inf, -np.inf], [np.inf, 0.0, 1.0], [-np.inf, 1.0, 0.0]])
        assert np.array_equal(dio.read_csv_matrix(path), want)

    @pytest.mark.parametrize("big", ["1e308", "-1e308"])
    def test_matrix_huge_symmetric_entries_read_back_exactly(self, tmp_path, big):
        # Averaging a with a.T overflowed here to inf, with a RuntimeWarning.
        path = tmp_path / "m.csv"
        path.write_text(f"1,{big}\n{big},1\n")
        want = np.array([[1.0, float(big)], [float(big), 1.0]])
        assert dio.read_csv_matrix(path).tobytes() == want.tobytes()

    def test_matrix_symmetry_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,0.5\n0.4,1\n")
        with pytest.raises(ValueError):
            dio.read_csv_matrix(path)

    @settings(max_examples=400, deadline=None)
    @given(a=st.integers(1, 3).flatmap(lambda d: hnp.arrays(np.float64, (d, d), elements=(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e308, -1e308, np.inf, -np.inf,
                         1 + 5e-10, 1 + 2e-9, 5e-10, 3.0])))))
    @example(a=np.array([[1.0, 1e308], [-1e308, 1.0]]))
    @example(a=np.array([[1.0, np.inf], [1e308, 1.0]]))
    @example(a=np.array([[1.0, 1 + 5e-10], [1.0, 1.0]]))
    def test_matrix_symmetry_rule_matches_reference(self, a):
        # Both rules overflow, and warn, on a difference like 1e308 - (-1e308).
        with np.errstate(over="ignore"), mock.patch.object(dio, "_read_csv", lambda *args: a):
            want = reference_csv_symmetric(a, linalg.SYM_TOL)
            if want:
                assert np.array_equal(dio.read_csv_matrix("m.csv"), linalg.sym(a))
            else:
                with pytest.raises(ValueError, match="^matrix CSV is not symmetric within "
                                                     "tolerance$"):
                    dio.read_csv_matrix("m.csv")

    @pytest.mark.parametrize("a", [
        np.array([[-0.0, 1.5], [1.5, 0.0]]),
        np.array([[0.0, np.inf, -np.inf], [np.inf, -0.0, -0.0], [-np.inf, -0.0, 2.0]]),
        np.array([[5e-324, -2.2250738585072009e-308], [-2.2250738585072009e-308, 1e-310]]),
        np.array([[0.1]]),
        np.array([[1.0, 1 / 3], [1 / 3, -1e300]]),
        np.zeros((0, 0)),
        (lambda x: x + x.T)(np.random.default_rng(0).standard_normal((150, 150))),
    ], ids=["signed-zero-diagonal", "inf-off-diagonal", "subnormal", "1x1", "2x2", "0x0",
            "150x150"])
    def test_matrix_bytes_match_savetxt(self, tmp_path, a):
        ours, theirs = tmp_path / "ours.csv", tmp_path / "theirs.csv"
        dio.write_csv_matrix(ours, a)
        np.savetxt(theirs, a, delimiter=",", fmt="%.17g")
        assert ours.read_bytes() == theirs.read_bytes()

    @settings(max_examples=60, deadline=None)
    @given(a=st.integers(1, 150).flatmap(lambda d: hnp.arrays(
        np.float64, (d, d), elements=st.floats(allow_nan=False, width=64))))
    def test_matrix_bytes_match_savetxt_drawn(self, a):
        a = np.where(np.tri(len(a), dtype=bool), a.T, a)  # the upper triangle, mirrored
        with tempfile.TemporaryDirectory() as tmp:
            ours, theirs = Path(tmp) / "ours.csv", Path(tmp) / "theirs.csv"
            dio.write_csv_matrix(ours, a)
            np.savetxt(theirs, a, delimiter=",", fmt="%.17g")
            assert ours.read_bytes() == theirs.read_bytes()

    @pytest.mark.parametrize("a, message", [
        (np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, np.nextafter(0.2, 1.0), 1.0]]),
         r"^matrix is not exactly symmetric: entry \(1, 2\) is 0.2 and entry \(2, 1\) is "
         r"0.20000000000000004$"),
        (np.array([[1.0, 0.0], [-0.0, 1.0]]),
         r"^matrix is not exactly symmetric: entry \(0, 1\) is 0.0 and entry \(1, 0\) is -0.0$"),
        (np.ones((2, 3)), r"^expected a square matrix, got shape \(2, 3\)$"),
        (np.ones(3), r"^expected a square matrix, got shape \(3,\)$"),
    ], ids=["one-entry", "signed-zero", "2x3", "vector"])
    def test_matrix_writer_rejects_asymmetric_or_non_square(self, tmp_path, a, message):
        path = tmp_path / "m.csv"
        with pytest.raises(ValueError, match=message):
            dio.write_csv_matrix(path, a)
        assert not path.exists()

    def test_data_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y\n1,2\n3,4\n")
        assert dio.read_csv_data(path, header=True).tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_edge_list_roundtrip(self, tmp_path):
        g = gz.GraphSpec(5, [(0, 3), (1, 2)])
        path = tmp_path / "e.txt"
        dio.write_edge_list(path, g)
        back = dio.read_edge_list(path, d=5)
        assert back.edges == g.edges
        assert path.read_text() == "1 4\n2 3\n"

    def test_edge_list_comments_and_default_d(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("# comment\n1 2\n\n3 4\n")
        g = dio.read_edge_list(path, d=4)
        assert g.d == 4 and g.sorted_edges() == [(0, 1), (2, 3)]

    def test_graphml_written(self, tmp_path):
        import networkx as nx
        k = np.array([[1.0, -0.3], [-0.3, 1.0]])
        path = tmp_path / "g.graphml"
        dio.write_graphml(path, k)
        g = nx.read_graphml(path)
        assert g.number_of_edges() == 1
        (_, _, attrs), = g.edges(data=True)
        assert attrs["partialCorrelation"] == pytest.approx(0.3)

    @pytest.mark.parametrize("k", [
        np.array([[2.0]]),
        np.diag([1.0, 2.0, 3.0]),  # no edge: no attribute key either
        np.array([[1.0, -0.3, 0.0], [-0.3, 2.0, 0.5], [0.0, 0.5, 1.5]]),
        np.array([[1e4, -1e-3, 0.2], [-1e-3, 1e4, 0.0], [0.2, 0.0, 1e4]]),  # pcor 1e-07, -2e-05
        _ties_at_the_edge_threshold(),
    ], ids=["d1", "no-edges", "both-signs", "exponent", "ties"])
    def test_graphml_bytes_match_networkx(self, tmp_path, k):
        ours, theirs = tmp_path / "ours.graphml", tmp_path / "theirs.graphml"
        dio.write_graphml(ours, k)
        g = nx.Graph()
        g.add_nodes_from(range(1, k.shape[0] + 1))
        g.add_edges_from((a, b, {"partialCorrelation": p})
                         for (a, b), p in loop_graphml_edges(k, gz.EDGE_THRESHOLD).items())
        # The standard-library writer; nx.write_graphml is that one unless lxml is installed.
        nx.write_graphml_xml(g, theirs)
        assert ours.read_bytes() == theirs.read_bytes()
