"""Print every metric of every workload in one command.

    python3 bench/report.py [--seed N] [--seconds S]

Runs run.py on each workload with tracing off (end-to-end metrics) and on
(per-layer metrics, trace.overhead_frac) and prints each run's report lines:
the environment record, the input hash, the gate's verdict and every metric
by name with its unit.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30)
    args = p.parse_args()
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            print(f"== {name} --trace {trace}", flush=True)
            out = subprocess.run([sys.executable, str(RUN), "--workload", name,
                                  "--seed", str(args.seed), "--seconds", str(args.seconds),
                                  "--trace", str(trace)],
                                 cwd=RUN.parent.parent, capture_output=True, text=True)
            if out.returncode:
                print(out.stderr)
                status = out.returncode
                continue
            lines = out.stdout.splitlines()
            result = json.loads(lines[-1])
            print("\n".join(lines[:-1]))
            print(f"# correct: {result['correct']}, attempted {result['attempted']}, "
                  f"failed {result['failed']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
