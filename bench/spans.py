"""Span tracing of the golazo layers from outside the package.

``Tracer`` wraps module-level functions for the duration of one op and
records one span per call: name, start, end, parent span and a few
counters read from the arguments or the result.  Each wrapper is installed in
every namespace where a caller looks the name up (``from .solver import fit``
binds ``fit`` in the importing module), and the originals are put back when
the op ends, so untraced ops run unmodified code.

Spans nest through a per-thread stack.  A span opened on a thread with an
empty stack (a ``fit_path`` pool worker) takes as parent the innermost open
span of the thread that started tracing.  A span's self time is its duration
minus the union of its children's intervals, so overlapping children on two
pool threads are not subtracted twice.
"""
from dataclasses import dataclass, field
import functools
import importlib
import threading
import time


@dataclass
class Span:
    sid: int
    name: str
    parent: int
    start: float
    end: float = 0.0
    error: str = None
    info: dict = field(default_factory=dict)

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start


def _dim(a):
    return int(a.shape[0])


def _rhs_cols(b):
    return 1 if b.ndim == 1 else int(b.shape[1])


# (span name, defining module, attribute, namespaces the callers read it from,
#  info(args, kwargs, result or None on error) -> dict).  Names are "<layer>.<function>".
PROBES = (
    ("linalg.cholesky", "golazo.linalg", "cholesky_logdet", ("golazo.linalg",),
     lambda a, kw, r: {"n": _dim(a[0])}),
    ("linalg.invert_pd", "golazo.linalg", "invert_pd", ("golazo.linalg",),
     lambda a, kw, r: {"n": _dim(a[0]), "k": _dim(a[0])}),
    ("linalg.solve_pd", "golazo.linalg", "solve_pd", ("golazo.linalg",),
     lambda a, kw, r: {"n": _dim(a[0]), "k": _rhs_cols(a[1])}),
    ("boxqp.solve_boxqp", "golazo.boxqp", "solve_boxqp", ("golazo.solver",),
     lambda a, kw, r: {"n": int(a[0].lower.size)}),
    ("boxqp.solve_face", "golazo.boxqp", "_solve_face", ("golazo.boxqp",), None),
    ("solver.fit", "golazo.solver", "fit",
     ("golazo.solver", "golazo.selection", "golazo.estimators", "golazo.cli"),
     lambda a, kw, r: {} if r is None else {"d": _dim(r.khat), "sweeps": int(r.sweeps),
                                            "screened": len(r.isolated_rows)}),
    ("solver.duality_gap", "golazo.solver", "duality_gap", ("golazo.solver",), None),
    ("solver.start", "golazo.solver", "_default_start", ("golazo.solver",), None),
    ("penalty.clip_to_finite", "golazo.penalty", "clip_to_finite", ("golazo.solver",), None),
    ("penalty.golazo_norm", "golazo.penalty", "golazo_norm", ("golazo.solver",), None),
    ("selection.fit_path", "golazo.selection", "fit_path", ("golazo.cli",),
     lambda a, kw, r: {"threads": int(kw.get("threads", 1))}),
    ("selection.ebic", "golazo.selection", "ebic", ("golazo.selection", "golazo.cli"), None),
    ("estimators.mde", "golazo.estimators", "mde", ("golazo.cli",), None),
    ("estimators.ggm_mle", "golazo.estimators", "ggm_mle", ("golazo.estimators",), None),
    ("estimators.dual_step", "golazo.estimators", "dual_mle_edge_positivity",
     ("golazo.estimators",), None),
    ("estimators.neg_loglik", "golazo.estimators", "gaussian_neg_loglik",
     ("golazo.cli", "golazo.selection"), None),
    ("data.kendall", "golazo.data", "kendall_tau_matrix", ("golazo.data",),
     lambda a, kw, r: {"n": int(getattr(a[0], "values", a[0]).shape[0]),
                       "d": int(getattr(a[0], "values", a[0]).shape[1])}),
    ("data.skeptic", "golazo.data", "skeptic_correlation", ("golazo.data",), None),
    ("data.sample_cov", "golazo.data", "sample_covariance", ("golazo.data",), None),
    ("data.csv_read", "golazo.data", "read_csv_matrix", ("golazo.data",), None),
    ("data.csv_read", "golazo.data", "read_csv_data", ("golazo.data",), None),
    ("data.csv_read", "golazo.data", "read_edge_list", ("golazo.data",), None),
    ("data.csv_write", "golazo.data", "write_csv_matrix", ("golazo.data",), None),
    ("data.csv_write", "golazo.data", "write_edge_list", ("golazo.data",), None),
    ("cli.main", "golazo.cli", "main", ("golazo.cli",), None),
)


class Tracer:
    """Collects spans while installed; use as ``with Tracer() as t: ...``."""

    def __init__(self):
        self.spans = []
        self.missing = []      # lookups that no longer find the probed function
        self._patched = []     # (namespace, attr, original)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = 0
        self._root_stack = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name):
        stack = self._stack()
        with self._lock:
            self._ids += 1
            sid = self._ids
            if stack:
                parent = stack[-1].sid
            elif self._root_stack:
                parent = self._root_stack[-1].sid
            else:
                parent = 0
        span = Span(sid, name, parent, time.perf_counter())
        stack.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    def _wrap(self, name, fn, info):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                self._close(span)
                if info is not None:
                    span.info = info(args, kwargs, result)
            return result
        return traced

    def __enter__(self):
        self._root_stack = self._stack()
        for name, home, attr, namespaces, info in PROBES:
            original = getattr(importlib.import_module(home), attr, None)
            if original is None:
                self.missing.append(f"{home}.{attr}")
                continue
            wrapper = self._wrap(name, original, info)
            for ns_name in namespaces:
                ns = importlib.import_module(ns_name)
                if getattr(ns, attr, None) is original:
                    self._patched.append((ns, attr, original))
                    setattr(ns, attr, wrapper)
                else:
                    self.missing.append(f"{ns_name}.{attr}")
        return self

    def __exit__(self, *exc):
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()
        self._root_stack = None
        return False


def _union_length(intervals):
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """sid -> span duration minus the union of its children's intervals."""
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.sid: s.duration - _union_length(children.get(s.sid, ())) for s in spans}
