#!/usr/bin/env python3
"""Measures how steady each phbench metric is from seed to seed.

    python3 bench/ledger/calibrate.py [--runs 10] [--sets 2]
        [--workloads tiger_serve,ttl_durable] [--trace 0]

Runs every workload --runs times per set, each time with another seed,
alternating between the sets run by run, and keeps the --out files under
.bench_build/phbench/calibration/. Then prints, per set, each metric's
median and spread (q3 - q1 over the median, from statistics.quantiles)
against its BENCHMARK.json bound, and, with two sets, compares the second
set with the first as a change against its parent. A bound holds when the
spread stays below a third of it and the two sets' medians agree within
it. Standard library only.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
import compare  # noqa: E402  (after the bytecode switch)

HERE = Path(__file__).resolve().parent
OUT = HERE.parent.parent / ".bench_build" / "phbench" / "calibration"


def main():
    spec = json.loads(compare.BENCHMARK.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=2)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()

    OUT.mkdir(parents=True, exist_ok=True)
    files = [[] for _ in range(args.sets)]
    for i in range(args.runs):
        for s in range(args.sets):
            for workload in args.workloads.split(","):
                seed = 1 + i + 1000 * s
                out = OUT / f"{workload}-t{args.trace}-s{seed}.json"
                cmd = [sys.executable, str(HERE / "run.py"), "--workload",
                       workload, "--seed", str(seed), "--seconds",
                       str(args.seconds), "--trace", str(args.trace),
                       "--out", str(out)]
                run = subprocess.run(cmd, capture_output=True, text=True)
                if run.returncode != 0:
                    sys.stderr.write(run.stderr)
                    sys.exit(f"calibrate.py: {workload} seed {seed} failed")
                print(f"set {s} run {i} {workload}: {run.stdout.splitlines()[-1]}",
                      flush=True)
                files[s].append(out)
    ok = True
    for s, set_files in enumerate(files):
        print(f"\n== set {s}: spread over {args.runs} seeds")
        ok &= compare.report_spread(compare.load(set_files))
    if args.sets == 2:
        print("\n== set 1 against set 0")
        ok &= compare.report_compare(compare.load(files[0]),
                                     compare.load(files[1]))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
