#!/usr/bin/env python3
"""Builds phbench from this checkout and runs one workload.

    python3 bench/ledger/run.py --workload tiger_serve --seed 1 \
        --seconds 10 --trace 0 [--out run.json] [--scale 1]

Run from anywhere inside the checkout. The first call configures and
builds the library and phbench in Release mode under
.bench_build/phbench at the checkout root; later calls only rebuild what
changed. phbench's lines are passed through; the last line printed is
one JSON object with exactly the keys correct, attempted, failed and
metrics, where metrics holds the BENCHMARK.json end_to_end metrics
(--trace 0) or per_layer metrics (--trace 1). A traced run also writes a
Chrome trace to .bench_build/phbench/traces/WORKLOAD.json (open it in
Perfetto). Exits non-zero, printing no
result, when the build fails, phbench fails or a metric is missing.
Standard library only.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "phbench"
# Every run must end within 180 s; leave room for start-up and output.
PHBENCH_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds phbench; returns its path."""
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not any((BUILD / f).exists() for f in ("build.ninja", "Makefile")):
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(BUILD), "--target", "phbench",
                  "-j", jobs])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                out.flush()
                tail = log.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build step failed: {' '.join(cmd)} (log: {log})")
    return BUILD / "phbench"


def source_id():
    """The git revision when there is one, else a digest of the sources."""
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                                  "--short", "HEAD"], capture_output=True,
                                 text=True, timeout=10)
            if sha.returncode == 0 and sha.stdout.strip():
                return sha.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")) + [ROOT / "CMakeLists.txt"]:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:12]


def listed_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result here")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size multiplier (smoke tests: 0.01)")
    args = parser.parse_args()

    names = listed_metrics(args.trace)
    phbench = build()
    cmd = [str(phbench), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--scale", repr(args.scale), "--sha", source_id()]
    if args.out:
        cmd += ["--out", args.out]
    if args.trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-file", str(traces / f"{args.workload}.json")]

    start = time.monotonic()
    try:
        run = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=PHBENCH_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"phbench did not finish within {PHBENCH_TIMEOUT_S} s")
    sys.stderr.write(run.stderr)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        print("\n".join(lines), file=sys.stderr)
        fail(f"phbench exited with code {run.returncode}")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        fail(f"phbench did not report {', '.join(missing)}")
    print(f"# wall_s {time.monotonic() - start:.1f}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: result["metrics"][n] for n in names},
    }))


if __name__ == "__main__":
    main()
