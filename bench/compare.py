"""Compare two sets of result records written by run.py.

    python3 bench/compare.py BASE_DIR NEW_DIR

Each directory holds the ``.bench_results/*.json`` records of one commit.
Refuses (exit 2) when the records' environments differ, since dense-glasso
alone changes several-fold with the BLAS thread count, or when one
(workload, seed) read different inputs on the two sides.  Otherwise prints,
per workload and metric, each side's median and quartiles over its runs and
the ratio of the medians.
"""
import json
import statistics
import sys
from pathlib import Path


def load(directory):
    return [json.loads(p.read_text()) for p in sorted(Path(directory).glob("*.json"))]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(base_dir, new_dir):
    base, new = load(base_dir), load(new_dir)
    if not base or not new:
        sys.exit("compare: no records")
    envs = {json.dumps(r["env"], sort_keys=True) for r in base + new}
    if len(envs) != 1:
        print("compare: refusing, the environments differ:", *sorted(envs), sep="\n  ")
        return 2
    inputs = {}
    for r in base + new:
        key = (r["workload"], r["seed"], r["size"])
        if inputs.setdefault(key, r["inputs_sha256"]) != r["inputs_sha256"]:
            print(f"compare: refusing, {key} read different inputs")
            return 2
    print(f"environment: {envs.pop()}")
    groups = sorted({(r["workload"], r["trace"], r["size"]) for r in base + new})
    for workload, trace, size in groups:
        sides = [[r for r in rs if (r["workload"], r["trace"], r["size"]) == (workload, trace, size)]
                 for rs in (base, new)]
        if not all(sides):
            continue
        print(f"\n{workload} (trace {trace}, {size}): {len(sides[0])} base runs, "
              f"{len(sides[1])} new runs, failures {sum(r['fail_frac'] > 0 for r in sides[0])}"
              f" / {sum(r['fail_frac'] > 0 for r in sides[1])}")
        for name, first in sides[0][0]["metrics"].items():
            stats = [quartiles([r["metrics"][name]["value"] for r in side]) for side in sides]
            ratio = stats[1][1] / stats[0][1] if stats[0][1] else float("nan")
            print(f"  {name:34s} {first['unit']:9s} base {stats[0][1]:.6g} [{stats[0][0]:.6g}, "
                  f"{stats[0][2]:.6g}]  new {stats[1][1]:.6g} [{stats[1][0]:.6g}, "
                  f"{stats[1][2]:.6g}]  new/base {ratio:.4f}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
