"""Self-test of the benchmark itself.

    python3 bench/selftest.py

1. A tiny pass (d ~ 10) of every workload, tracing off and on, through the
   same run.py: the result line must be correct and carry exactly the metric
   names and units that BENCHMARK.json lists for that mode.
2. The gate must count corrupted outputs as failures: a perturbed Khat.csv,
   a selected index that differs from the reference, a wrong selected index
   in path.json and a perturbed Kcheck.csv.
3. run.py must exit nonzero, printing no result, in a directory that holds
   only BENCHMARK.json and bench/.

Exits 0 when every check passes.
"""
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

problems = []


def expect(ok, message):
    print(("ok    " if ok else "FAIL  ") + message)
    if not ok:
        problems.append(message)


def run_bench(cwd, workload, trace):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"),
                           "--workload", workload, "--seed", "0", "--seconds", "0.5",
                           "--trace", str(trace), "--size", "tiny"],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def check_tiny_passes():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for name in WORKLOADS:
        for trace in (0, 1):
            out = run_bench(ROOT, name, trace)
            label = f"tiny {name} --trace {trace}"
            if out.returncode != 0:
                expect(False, f"{label}: exit {out.returncode}: {out.stderr[-400:]}")
                continue
            result = json.loads(out.stdout.strip().splitlines()[-1])
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{label}: result keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{label}: correct, {result['attempted']} ops, {result['failed']} failed")
            expect(units == expected[trace], f"{label}: metric names and units match BENCHMARK.json")
            expect(all(f"# {k} = " in out.stdout for k in units), f"{label}: every metric printed")


def scratch():
    path = ROOT / ".bench_work"
    path.mkdir(exist_ok=True)
    return path


def rewrite_matrix(path, change):
    a = gate.read_matrix(path)
    change(a)
    np.savetxt(path, a, delimiter=",", fmt="%.17g")


def check_gate_catches_corruption():
    from golazo import cli

    with tempfile.TemporaryDirectory(dir=scratch()) as tmp:
        tmp = Path(tmp)
        for name, corrupt in (("dense-glasso", "Khat"), ("block-path", "index"),
                              ("rank-pipeline", "Kcheck")):
            wl = WORKLOADS[name]
            paths, meta = wl.make_inputs([0, 0], tmp, wl.sizes["tiny"])
            op = wl.make_op(paths, tmp / name, meta)
            for argv in op.commands:
                cli.main(list(argv))
            ref = gate.reference(name, op.outdirs)
            expect(gate.check(name, op.outdirs, paths, meta, ref) == [],
                   f"gate passes clean {name} outputs")
            if corrupt == "Khat":
                def bump(a):
                    a[0, 1] += 1e-3
                    a[1, 0] += 1e-3
                rewrite_matrix(op.outdirs[0] / "Khat.csv", bump)
            elif corrupt == "index":
                other = dict(ref, selected_index=ref["selected_index"] + 1)
                found = gate.check(name, op.outdirs, paths, meta, other)
                expect(bool(found), f"gate fails {name} against a reference with another "
                                    f"selected index: {found[:2]}")
                path_json = op.outdirs[0] / "path.json"
                doc = json.loads(path_json.read_text())
                doc["selectedIndex"] = (doc["selectedIndex"] + 1) % len(doc["grid"])
                path_json.write_text(json.dumps(doc))
            else:
                def scale(a):
                    a *= 1.0 + 1e-4
                rewrite_matrix(op.outdirs[2] / "Kcheck.csv", scale)
            found = gate.check(name, op.outdirs, paths, meta, ref)
            expect(bool(found), f"gate fails {name} with corrupted {corrupt}: {found[:2]}")


def check_fails_without_source():
    with tempfile.TemporaryDirectory(dir=scratch()) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH, Path(tmp) / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = run_bench(tmp, "dense-glasso", 0)
        printed = [line for line in out.stdout.splitlines() if line.startswith("{")]
        expect(out.returncode != 0 and not printed,
               f"no source tree: exit {out.returncode}, no result printed")


if __name__ == "__main__":
    check_tiny_passes()
    check_gate_catches_corruption()
    check_fails_without_source()
    print(f"{len(problems)} problem(s)")
    sys.exit(1 if problems else 0)
