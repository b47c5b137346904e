"""Per-layer metrics of one traced op, computed from its spans.

Names are ``<module>.<metric>``; ``<layer>.self_s`` is the summed self time of
every span of that module.  ``other.self_s`` is the part of the op's wall time
that no span covers.  Metrics of a layer that an op never reaches read 0.
"""
import statistics

from spans import self_times

LAYERS = ("linalg", "solver", "boxqp", "penalty", "selection", "estimators", "data", "cli")

PER_LAYER = (
    ("linalg.invert_pd.calls", "count"),
    ("linalg.invert_pd.self_s", "s"),
    ("linalg.solve_pd.calls", "count"),
    ("linalg.solve_pd.self_s", "s"),
    ("linalg.cholesky.calls", "count"),
    ("linalg.cholesky.self_s", "s"),
    ("linalg.npd_errors", "count"),
    ("linalg.flops_computed", "flop"),
    ("linalg.gflops", "GFLOP/s"),
    ("linalg.self_s", "s"),
    ("solver.fit.calls", "count"),
    ("solver.fit.self_s", "s"),
    ("solver.sweeps", "count"),
    ("solver.rows_solved", "count"),
    ("solver.row_inverse_s", "s"),
    ("solver.certificate_s", "s"),
    ("solver.start_s", "s"),
    ("solver.screened_rows_frac", "fraction"),
    ("solver.self_s", "s"),
    ("boxqp.calls", "count"),
    ("boxqp.self_s", "s"),
    ("boxqp.face_solves_per_call", "count"),
    ("boxqp.ridge_fallbacks", "count"),
    ("boxqp.dim_mean", "count"),
    ("penalty.clip_s", "s"),
    ("penalty.norm_s", "s"),
    ("penalty.self_s", "s"),
    ("selection.fit_path.wall_s", "s"),
    ("selection.point_fit_s_sum", "s"),
    ("selection.parallel_eff", "fraction"),
    ("selection.ebic_s", "s"),
    ("selection.point_failures", "count"),
    ("selection.self_s", "s"),
    ("estimators.ggm_mle_s", "s"),
    ("estimators.dual_step_s", "s"),
    ("estimators.mde.self_s", "s"),
    ("estimators.self_s", "s"),
    ("data.kendall.self_s", "s"),
    ("data.kendall.bytes_computed", "B"),
    ("data.csv_read_s", "s"),
    ("data.csv_write_s", "s"),
    ("data.sample_cov_s", "s"),
    ("data.self_s", "s"),
    ("cli.self_s", "s"),
    ("other.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_frac", "fraction"),
)

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def layer_metrics(spans, wall):
    """Metrics of one traced op lasting ``wall`` seconds (all but the
    overhead, which needs the untraced ops too)."""
    own = self_times(spans)
    by_id = {s.sid: s for s in spans}
    named = {}
    for s in spans:
        named.setdefault(s.name, []).append(s)

    def calls(name):
        return len(named.get(name, ()))

    def self_s(name):
        return sum(own[s.sid] for s in named.get(name, ()))

    def dur_s(name):
        return sum(s.duration for s in named.get(name, ()))

    def parent(s):
        return by_id.get(s.parent)

    def under(s, name):
        p = parent(s)
        while p is not None:
            if p.name == name:
                return True
            p = parent(p)
        return False

    m = {}
    for fn in ("invert_pd", "solve_pd", "cholesky"):
        m[f"linalg.{fn}.calls"] = calls(f"linalg.{fn}")
        m[f"linalg.{fn}.self_s"] = self_s(f"linalg.{fn}")
    chol = named.get("linalg.cholesky", [])
    m["linalg.npd_errors"] = sum(s.error == "NotPositiveDefiniteError" for s in chol)
    # Flops from argument shapes: n^3/3 per factorisation, 2 n^2 k for the
    # two triangular solves with k right-hand sides.
    flops = sum(s.info["n"] ** 3 / 3.0 for s in chol)
    flops += sum(2.0 * s.info["n"] ** 2 * s.info["k"]
                 for name in ("linalg.invert_pd", "linalg.solve_pd") for s in named.get(name, ()))
    layer_self = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        layer_self[s.layer] += own[s.sid]
    m["linalg.flops_computed"] = flops
    m["linalg.gflops"] = _ratio(flops, layer_self["linalg"]) / 1e9

    fits = named.get("solver.fit", [])
    done = [s for s in fits if s.info]
    m["solver.fit.calls"] = len(fits)
    m["solver.fit.self_s"] = self_s("solver.fit")
    m["solver.sweeps"] = sum(s.info["sweeps"] for s in done)
    m["solver.rows_solved"] = calls("boxqp.solve_boxqp")
    row_inv = cert_inv = 0.0
    for s in named.get("linalg.invert_pd", []):
        p = parent(s)
        if p is not None and p.name == "solver.fit" and p.info:
            if s.info["n"] == p.info["d"] - 1:
                row_inv += s.duration
            elif s.info["n"] == p.info["d"]:
                cert_inv += s.duration
    m["solver.row_inverse_s"] = row_inv
    m["solver.certificate_s"] = cert_inv + dur_s("solver.duality_gap")
    m["solver.start_s"] = dur_s("solver.start")
    m["solver.screened_rows_frac"] = _ratio(sum(s.info["screened"] for s in done),
                                            sum(s.info["d"] for s in done))

    qps = named.get("boxqp.solve_boxqp", [])
    m["boxqp.calls"] = len(qps)
    m["boxqp.face_solves_per_call"] = _ratio(calls("boxqp.solve_face"), len(qps))
    m["boxqp.ridge_fallbacks"] = sum(s.error == "NotPositiveDefiniteError"
                                     and under(s, "boxqp.solve_boxqp") for s in chol)
    m["boxqp.dim_mean"] = _ratio(sum(s.info["n"] for s in qps), len(qps))

    m["penalty.clip_s"] = dur_s("penalty.clip_to_finite")
    m["penalty.norm_s"] = dur_s("penalty.golazo_norm")

    paths = named.get("selection.fit_path", [])
    points = [s for s in fits if parent(s) is not None and parent(s).name == "selection.fit_path"]
    m["selection.fit_path.wall_s"] = dur_s("selection.fit_path")
    m["selection.point_fit_s_sum"] = sum(s.duration for s in points)
    m["selection.parallel_eff"] = _ratio(m["selection.point_fit_s_sum"],
                                         sum(s.info["threads"] * s.duration for s in paths if s.info))
    m["selection.ebic_s"] = dur_s("selection.ebic")
    m["selection.point_failures"] = sum(s.error is not None for s in points)

    m["estimators.ggm_mle_s"] = dur_s("estimators.ggm_mle")
    m["estimators.dual_step_s"] = dur_s("estimators.dual_step")
    m["estimators.mde.self_s"] = self_s("estimators.mde")

    m["data.kendall.self_s"] = self_s("data.kendall")
    m["data.kendall.bytes_computed"] = sum(8 * s.info["d"] * s.info["n"] ** 2
                                           for s in named.get("data.kendall", []) if s.info)
    m["data.csv_read_s"] = dur_s("data.csv_read")
    m["data.csv_write_s"] = dur_s("data.csv_write")
    m["data.sample_cov_s"] = dur_s("data.sample_cov")

    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    roots = [(s.start, s.end) for s in spans if s.parent == 0]
    m["other.self_s"] = wall - sum(end - start for start, end in roots)
    m["trace.wall_s"] = wall
    return m


def median_metrics(per_op):
    """Median of each metric over a list of per-op metric dicts."""
    return {name: statistics.median(op[name] for op in per_op) for name in per_op[0]}
