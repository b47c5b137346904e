"""Benchmark of the golazo command-line tool.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Set-up writes the workload's seeded inputs (several instances) under
``.bench_work/``; each timed op is the workload's CLI command sequence on one
instance, called in-process through ``golazo.cli.main``, and includes reading
and writing the CSV files.  Every op's outputs pass the correctness gate
(gate.py).  ``--trace 0`` reports the end-to-end metrics with tracing off;
``--trace 1`` alternates untraced and traced ops on the first instance and
reports the per-layer metrics (metrics.py).  The last line of standard
output is the result as one JSON object; the lines before it, starting with
``#``, carry the environment record, the input hash and every metric with
its unit.  A copy of the full record goes to ``.bench_results/``.
"""
import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import gate
from metrics import END_TO_END, PER_LAYER, layer_metrics, median_metrics
from spans import Tracer
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
# Distinct inputs per run: the end-to-end times average over them, so a run
# does not hinge on how many sweeps one sample happens to need.  A
# dense-glasso op takes ~20 s, so its runs hold one instance.
INSTANCES = {"dense-glasso": 1, "block-path": 3, "rank-pipeline": 4}
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import golazo; print(time.perf_counter() - t)")


def environment():
    """What the timings depend on besides the code: a comparison refuses to
    pair records whose environment differs."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "MKL_NUM_THREADS": os.environ.get("MKL_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "cpu": cpu,
    }


def import_seconds():
    """`import golazo` in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def make_instances(workload, seed, size, workdir):
    """Write every instance's inputs; returns [(paths, meta)] and their hash."""
    instances, h = [], hashlib.sha256()
    for i in range(INSTANCES[workload.name]):
        d = workdir / "inputs" / f"i{i}"
        d.mkdir(parents=True, exist_ok=True)
        paths, meta = workload.make_inputs([seed, i], d, size)
        instances.append((paths, meta))
        for key in sorted(paths):
            h.update(paths[key].name.encode())
            h.update(paths[key].read_bytes())
    return instances, h.hexdigest()


def outputs_sha256(outdirs):
    h = hashlib.sha256()
    for d in outdirs:
        for f in sorted(p for p in d.rglob("*") if p.is_file()):
            h.update(str(f.relative_to(d.parent)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()


class Runner:
    """Runs and gates ops; counts attempts and failures."""

    def __init__(self, cli, workload, instances, outroot, refs):
        self.cli = cli
        self.workload = workload
        self.ops = [workload.make_op(paths, outroot / f"i{i}", meta)
                    for i, (paths, meta) in enumerate(instances)]
        self.instances = instances
        self.refs = refs
        self.attempted = 0
        self.failures = []
        self.first_output = {}   # instance -> outputs hash of its first op
        self._gated = {}         # outputs hash -> failure messages

    def run(self, i, tracer=None):
        op = self.ops[i]
        for d in op.outdirs:
            shutil.rmtree(d, ignore_errors=True)
        t0, c0 = time.perf_counter(), time.process_time()
        code = 0
        with tracer or contextlib.nullcontext():
            for argv in op.commands:
                code = self.cli.main(list(argv))
                if code:
                    break
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        self.attempted += 1
        problems = [f"exit code {code}"] if code else self._check(i, op)
        if problems:
            self.failures.append({"instance": i, "traced": tracer is not None,
                                  "problems": problems})
        return wall, cpu

    def _check(self, i, op):
        digest = outputs_sha256(op.outdirs)
        problems = []
        if self.first_output.setdefault(i, digest) != digest:
            problems.append("outputs differ from the first op on this instance")
        if digest not in self._gated:
            paths, meta = self.instances[i]
            ref = self.refs[i] if self.refs else None
            self._gated[digest] = gate.check(self.workload.name, op.outdirs, paths, meta, ref)
        return problems + self._gated[digest]


def measure_end_to_end(runner, seconds):
    """Round-robin over the instances until the next op would overrun; every
    instance runs at least once.  Times are each instance's median, averaged."""
    n = len(runner.ops)
    walls, cpus = [[] for _ in range(n)], [[] for _ in range(n)]
    deadline = time.perf_counter() + seconds
    k = 0
    while k < n or time.perf_counter() + statistics.median(sum(walls, [])) <= deadline:
        wall, cpu = runner.run(k % n)
        walls[k % n].append(wall)
        cpus[k % n].append(cpu)
        k += 1
    return ({"wall_s": statistics.fmean(statistics.median(w) for w in walls),
             "cpu_s": statistics.fmean(statistics.median(c) for c in cpus)}, walls)


def measure_layers(runner, seconds):
    """Alternate untraced and traced ops on instance 0 until the next pair
    would overrun; per-layer metrics are medians over the traced ops."""
    untraced, per_op, pairs = [], [], []
    deadline = time.perf_counter() + seconds
    missing = []
    while not pairs or time.perf_counter() + statistics.median(pairs) <= deadline:
        start = time.perf_counter()
        untraced.append(runner.run(0)[0])
        tracer = Tracer()
        wall, _ = runner.run(0, tracer)
        per_op.append(layer_metrics(tracer.spans, wall))
        missing = tracer.missing
        pairs.append(time.perf_counter() - start)
    metrics = median_metrics(per_op)
    metrics["trace.overhead_frac"] = metrics["trace.wall_s"] / statistics.median(untraced) - 1.0
    return metrics, {"untraced": untraced, "traced": [op["trace.wall_s"] for op in per_op]}, missing


def load_refs(workload, seed, size):
    if size != "full":
        return None
    refs = json.loads((BENCH / "refs.json").read_text())
    return refs.get(workload, {}).get(str(seed))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--size", default="full", choices=("full", "tiny"),
                   help="tiny: a d~10 pass for the self-test")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "golazo" / "cli.py").is_file():
        print(f"error: no golazo source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    size = workload.sizes[args.size]
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        return _bench(args, workload, size, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _bench(args, workload, size, workdir):
    env = environment()
    setups, hashes = [], set()
    for _ in range(SETUP_REPEATS):
        t_import = import_seconds()
        t0 = time.perf_counter()
        instances, inputs_sha = make_instances(workload, args.seed, size, workdir)
        setups.append(t_import + time.perf_counter() - t0)
        hashes.add(inputs_sha)

    import golazo.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: golazo imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    # Warm-up on a tiny instance: lazy imports and first BLAS calls happen
    # before timing.  It is gated and counted like any other op.
    warm = workdir / "warm"
    warm.mkdir()
    tiny = workload.make_inputs([args.seed, 0], warm, workload.sizes["tiny"])
    warm_runner = Runner(cli, workload, [tiny], warm / "out", None)
    warm_runner.run(0)

    runner = Runner(cli, workload, instances, workdir / "out",
                    load_refs(args.workload, args.seed, args.size))
    if args.trace:
        metrics, op_walls, missing = measure_layers(runner, args.seconds)
        units = dict(PER_LAYER)
    else:
        metrics, op_walls = measure_end_to_end(runner, args.seconds)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["setup_s"] = statistics.median(setups)
        missing = []
        units = dict(END_TO_END)

    failures = warm_runner.failures + runner.failures
    if len(hashes) != 1:
        failures.append({"problems": ["input generation is not deterministic"]})
    attempted = warm_runner.attempted + runner.attempted
    failed = len(warm_runner.failures) + len(runner.failures)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "size": args.size, "seconds": args.seconds, "env": env,
        "inputs_sha256": hashes.pop() if len(hashes) == 1 else None,
        "reference_checked": runner.refs is not None,
        "op_wall_s": op_walls, "unwrapped": missing, "failures": failures,
        "fail_frac": failed / attempted,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    for key in ("env", "inputs_sha256", "reference_checked", "op_wall_s", "fail_frac"):
        print(f"# {key}: {json.dumps(record[key])}")
    for problem in failures:
        print(f"# FAILED: {json.dumps(problem)}")
    if missing:
        print(f"# not traced (lookup changed): {', '.join(missing)}")
    for name, m in record["metrics"].items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-s{args.seed}-t{args.trace}-{args.size}-{time.time_ns()}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
