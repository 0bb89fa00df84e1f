#!/usr/bin/env python3
"""Compares phbench results of a parent commit and a change.

    python3 bench/ledger/compare.py --parent p1.json p2.json ... \
        --change c1.json c2.json ...
    python3 bench/ledger/compare.py --parent p1.json p2.json ...

Inputs are the files run.py writes with --out. Pass the runs in the order
they were made: parent[i] and change[i] form pair i (alternate which side
runs first). For every workload and every BENCHMARK.json metric of the
runs' kind (end_to_end for --trace 0 runs, per_layer for --trace 1) it
prints each side's median and quartiles, the fraction of pairs the change
wins and a verdict:

  improved    the change wins at least 9 of 10 pairs and the medians differ
              by more than the parent's own spread (q3 - q1)
  regressed   the change's median is worse than the parent's by more than
              the metric's bound
  unresolved  worse, within the bound, but the parent's runs spread wider
              than the bound, and not every change run beats every parent
              run
  no-worse    none of the above

Per-layer metrics have no bound: they are only ever improved or "-". With
--parent alone it prints each metric's median and spread (q3 - q1 over the
median) against its bound instead. Exits 1 if any end-to-end metric
regressed or any run was incorrect. Standard library only.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"


def load(paths):
    """{(workload, trace): [result, ...]} in the order given."""
    groups = defaultdict(list)
    for path in paths:
        result = json.loads(Path(path).read_text())
        groups[(result["workload"], result["trace"])].append(result)
    return groups


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def specs(trace):
    spec = json.loads(BENCHMARK.read_text())
    return spec["per_layer"] if trace else spec["end_to_end"]


def better(spec, a, b):
    """True iff value a is better than value b."""
    return a < b if spec["better"] == "lower" else a > b


def verdict(spec, parent, change):
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if better(spec, c, p))
    if (pairs and wins >= 0.9 * len(pairs) and better(spec, cm, pm)
            and abs(cm - pm) > p3 - p1):
        return "improved", wins, len(pairs)
    bound = spec.get("bound")
    if bound is None:
        return "-", wins, len(pairs)
    scale = abs(pm) if pm else 1.0
    worse_by = (cm - pm if spec["better"] == "lower" else pm - cm) / scale
    if worse_by > bound:
        return "regressed", wins, len(pairs)
    every_run_better = all(better(spec, c, p) for c in change for p in parent)
    if worse_by > 0 and (p3 - p1) / scale > bound and not every_run_better:
        return "unresolved", wins, len(pairs)
    return "no-worse", wins, len(pairs)


def fmt(x):
    return f"{x:.6g}"


def metric_values(runs, name):
    return [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]


def report_spread(groups):
    print(f"{'workload':15} {'metric':34} {'median':>12} {'spread':>8} "
          f"{'bound':>6}  ok")
    ok = True
    for (workload, trace), runs in sorted(groups.items()):
        for spec in specs(trace):
            values = metric_values(runs, spec["name"])
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = spec.get("bound")
            mark = ""
            if bound is not None:
                mark = "yes" if spread < bound / 3 else (
                    "within" if spread <= bound else "NO")
                ok &= spread <= bound or spec["name"] == "setup_s"
            print(f"{workload:15} {spec['name']:34} {fmt(med):>12} "
                  f"{spread:8.4f} {bound if bound is not None else '-':>6}  "
                  f"{mark}")
        bad = [r for r in runs if not r["correct"]]
        if bad:
            ok = False
            print(f"{workload:15} {len(bad)} of {len(runs)} runs INCORRECT")
    return ok


def report_compare(parents, changes):
    print(f"{'workload':15} {'metric':34} {'parent median':>13} "
          f"{'[q1, q3]':>24} {'change median':>13} {'[q1, q3]':>24} "
          f"{'delta':>8} {'wins':>6}  verdict")
    ok = True
    for key in sorted(set(parents) | set(changes)):
        workload, trace = key
        p_runs, c_runs = parents.get(key, []), changes.get(key, [])
        if not p_runs or not c_runs:
            print(f"{workload:15} runs on one side only; skipped")
            continue
        for spec in specs(trace):
            p = metric_values(p_runs, spec["name"])
            c = metric_values(c_runs, spec["name"])
            if not p or not c:
                continue
            v, wins, n = verdict(spec, p, c)
            p1, pm, p3 = quartiles(p)
            c1, cm, c3 = quartiles(c)
            delta = (cm - pm) / abs(pm) if pm else 0.0
            ok &= v != "regressed"
            print(f"{workload:15} {spec['name']:34} {fmt(pm):>13} "
                  f"{'[' + fmt(p1) + ', ' + fmt(p3) + ']':>24} {fmt(cm):>13} "
                  f"{'[' + fmt(c1) + ', ' + fmt(c3) + ']':>24} "
                  f"{delta:+8.2%} {wins:>2}/{n:<3}  {v}")
        p_failed = sum(r["failed"] for r in p_runs)
        c_failed = sum(r["failed"] for r in c_runs)
        if c_failed > p_failed:
            print(f"{workload:15} more failed ops than the parent "
                  f"({c_failed} vs {p_failed}): no gain counts")
        for side, runs in (("parent", p_runs), ("change", c_runs)):
            bad = [r for r in runs if not r["correct"]]
            if bad:
                ok = False
                print(f"{workload:15} {side}: {len(bad)} of {len(runs)} "
                      f"runs INCORRECT")
        sources = {r["metadata"]["sha"] for r in c_runs}
        if len(sources) > 1:
            print(f"{workload:15} change runs come from several sources: "
                  f"{sorted(sources)}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="*", default=[])
    args = parser.parse_args()
    parents = load(args.parent)
    if args.change:
        ok = report_compare(parents, load(args.change))
    else:
        ok = report_spread(parents)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
