"""Regenerate refs.json, the reference outputs the gate compares against.

    python3 bench/make_refs.py --seeds 0-15 [--workload NAME ...]

Runs each workload's op once on every instance of every seed, requires the
certificates to pass, and stores gate.reference() of the outputs under
refs[workload][seed].  Existing entries for other seeds are kept.  Only
regenerate after a change to the workloads: later commits are checked
against the file as committed.
"""
import argparse
import json
import shutil
import sys

import gate
from run import BENCH, ROOT, SRC, make_instances
from workloads import WORKLOADS


def seed_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", required=True, type=seed_range, help="N or LO-HI")
    p.add_argument("--workload", nargs="*", default=sorted(WORKLOADS), choices=sorted(WORKLOADS))
    args = p.parse_args()
    sys.path.insert(0, str(SRC))
    from golazo import cli

    refs_path = BENCH / "refs.json"
    refs = json.loads(refs_path.read_text())
    workdir = ROOT / ".bench_work" / "refs"
    try:
        for name in args.workload:
            wl = WORKLOADS[name]
            for seed in args.seeds:
                shutil.rmtree(workdir, ignore_errors=True)
                instances, _ = make_instances(wl, seed, wl.sizes["full"], workdir)
                entry = []
                for i, (paths, meta) in enumerate(instances):
                    op = wl.make_op(paths, workdir / "out" / f"i{i}", meta)
                    codes = [cli.main(list(argv)) for argv in op.commands]
                    failures = gate.check(name, op.outdirs, paths, meta, None)
                    if any(codes) or failures:
                        sys.exit(f"{name} seed {seed} instance {i}: {codes} {failures}")
                    entry.append(gate.reference(name, op.outdirs))
                refs.setdefault(name, {})[str(seed)] = entry
                print(f"{name} seed {seed}: {len(entry)} instances", flush=True)
                refs_path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
