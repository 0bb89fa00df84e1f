#!/usr/bin/env python3
"""CI gate for the BENCH_space.json artefact.

Validates that the file table1_space and table2_cluster_space wrote is
well-formed and sane:

  * parses as JSON with "bench": "space" and both expected sections,
  * every section carries the run-metadata stamp (cores/build_type/
    git_sha/scale),
  * every row has dataset/struct/n/bytes_per_entry with positive n and a
    positive, finite bytes_per_entry,
  * table1 includes the PH and PH(set) rows for every dataset, with
    PH(set) strictly below PH (key-only mode must save space) and PH below
    the pointer-based KD1/CB1 baselines (KD2/CB2 are array-backed here and
    legitimately compact, see EXPERIMENTS.md),
  * table2 covers both CLUSTER0.4 and CLUSTER0.5.

With --baseline <a committed artefact>, additionally enforces
non-regression: for every (dataset, struct) PH/PH(set) pair present in
both files, the fresh bytes_per_entry must not exceed the baseline by more
than --tolerance (default 2%). The comparison only runs when both files
were produced at the same PHTREE_BENCH_SCALE and n — bytes/entry depends
on tree size, so cross-scale comparisons would be meaningless and are
skipped with a note instead. CI compares its scale-0.02 run against
tools/BENCH_space_ci.json, a committed run at that scale.

Exit code 0 on success; 1 with a diagnostic on the first violation.
"""

import argparse
import json
import math
import sys

REQUIRED_SECTIONS = ("table1", "table2")
METADATA_KEYS = ("cores", "build_type", "git_sha", "scale")
TABLE1_PH_STRUCTS = ("PH", "PH(set)")
TABLE1_BASELINES = ("KD1", "CB1")  # pointer-based; KD2/CB2 are array-backed
TABLE2_DATASETS = {"3D CLUSTER0.4", "3D CLUSTER0.5"}
CHECKED_STRUCTS = TABLE1_PH_STRUCTS  # structs under non-regression watch


def fail(msg):
    print(f"check_bench_space: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as e:
        fail(f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        fail(f"{path} is not valid JSON: {e}")
    if doc.get("bench") != "space":
        fail(f"{path}: top-level bench is {doc.get('bench')!r}, "
             "expected 'space'")
    sections = doc.get("sections")
    if not isinstance(sections, dict):
        fail(f"{path}: missing or non-object 'sections'")
    return sections


def check_rows(path, section, rows):
    if not isinstance(rows, list) or not rows:
        fail(f"{path} section {section}: empty or non-list rows")
    for i, row in enumerate(rows):
        for key in ("dataset", "struct", "n", "bytes_per_entry"):
            if key not in row:
                fail(f"{path} section {section} row {i}: missing {key!r}")
        if not isinstance(row["n"], int) or row["n"] <= 0:
            fail(f"{path} section {section} row {i}: "
                 f"non-positive n {row['n']!r}")
        bpe = row["bytes_per_entry"]
        if (not isinstance(bpe, (int, float)) or not math.isfinite(bpe)
                or bpe <= 0):
            fail(f"{path} section {section} row {i}: bytes_per_entry "
                 f"{bpe!r} is not a positive finite number")


def check_schema(path, sections):
    for name in REQUIRED_SECTIONS:
        section = sections.get(name)
        if not isinstance(section, dict):
            fail(f"{path}: missing section {name!r}")
        metadata = section.get("metadata")
        if not isinstance(metadata, dict):
            fail(f"{path} section {name}: missing metadata stamp")
        for key in METADATA_KEYS:
            if key not in metadata:
                fail(f"{path} section {name}: metadata missing {key!r}")
        check_rows(path, name, section.get("rows"))

    # table1: per-dataset structural sanity.
    by_dataset = {}
    for row in sections["table1"]["rows"]:
        by_dataset.setdefault(row["dataset"], {})[row["struct"]] = (
            row["bytes_per_entry"])
    for dataset, structs in sorted(by_dataset.items()):
        for want in TABLE1_PH_STRUCTS:
            if want not in structs:
                fail(f"{path} table1 {dataset}: missing {want!r} row")
        if structs["PH(set)"] >= structs["PH"]:
            fail(f"{path} table1 {dataset}: PH(set) "
                 f"{structs['PH(set)']:.2f} B/e is not below PH "
                 f"{structs['PH']:.2f} B/e")
        for base in TABLE1_BASELINES:
            if base in structs and structs["PH"] >= structs[base]:
                fail(f"{path} table1 {dataset}: PH {structs['PH']:.2f} B/e "
                     f"is not below {base} {structs[base]:.2f} B/e")

    # table2: both cluster variants present.
    t2_datasets = {row["dataset"] for row in sections["table2"]["rows"]}
    if not TABLE2_DATASETS <= t2_datasets:
        fail(f"{path} table2: datasets {sorted(t2_datasets)} missing "
             f"{sorted(TABLE2_DATASETS - t2_datasets)}")
    return by_dataset


def ph_rows(sections):
    """(section, dataset, struct, n) -> bytes_per_entry for watched structs."""
    out = {}
    for name in REQUIRED_SECTIONS:
        for row in sections[name]["rows"]:
            if row["struct"] in CHECKED_STRUCTS:
                out[(name, row["dataset"], row["struct"], row["n"])] = (
                    row["bytes_per_entry"])
    return out


def check_regression(fresh_path, fresh, base_path, base, tolerance):
    fresh_scales = {fresh[s]["metadata"].get("scale")
                    for s in REQUIRED_SECTIONS}
    base_scales = {base[s]["metadata"].get("scale")
                   for s in REQUIRED_SECTIONS}
    if fresh_scales != base_scales:
        print(f"check_bench_space: note: scale mismatch (fresh "
              f"{sorted(fresh_scales)} vs baseline {sorted(base_scales)}), "
              "skipping non-regression comparison")
        return 0
    fresh_rows = ph_rows(fresh)
    base_rows = ph_rows(base)
    compared = 0
    for key, base_bpe in sorted(base_rows.items()):
        if key not in fresh_rows:
            continue  # workload changed shape; schema checks still apply
        fresh_bpe = fresh_rows[key]
        compared += 1
        if fresh_bpe > base_bpe * (1.0 + tolerance):
            section, dataset, struct, n = key
            fail(f"space regression: {section} {dataset} {struct} (n={n}) "
                 f"is {fresh_bpe:.3f} B/e in {fresh_path} vs {base_bpe:.3f} "
                 f"B/e in {base_path} "
                 f"(+{(fresh_bpe / base_bpe - 1.0) * 100.0:.1f}%, "
                 f"tolerance {tolerance * 100.0:.0f}%)")
    if compared == 0:
        fail(f"non-regression requested but no comparable PH rows between "
             f"{fresh_path} and {base_path}")
    return compared


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("artifact", nargs="?", default="BENCH_space.json")
    parser.add_argument("--baseline", help="committed BENCH_space.json to "
                        "enforce non-regression against")
    parser.add_argument("--tolerance", type=float, default=0.02,
                        help="allowed fractional B/e increase (default 0.02)")
    args = parser.parse_args()

    sections = load(args.artifact)
    by_dataset = check_schema(args.artifact, sections)

    compared = 0
    if args.baseline:
        base_sections = load(args.baseline)
        check_schema(args.baseline, base_sections)
        compared = check_regression(args.artifact, sections, args.baseline,
                                    base_sections, args.tolerance)

    ph_set = {d: s["PH(set)"] for d, s in by_dataset.items()}
    summary = ", ".join(f"{d} {v:.1f}" for d, v in sorted(ph_set.items()))
    extra = f", {compared} rows compared vs baseline" if compared else ""
    print(f"check_bench_space: OK ({args.artifact}: PH(set) B/e {summary}"
          f"{extra})")


if __name__ == "__main__":
    main()
