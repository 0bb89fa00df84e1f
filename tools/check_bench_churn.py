#!/usr/bin/env python3
"""CI gate for the BENCH_churn.json artefact.

Validates that the file churn_throughput wrote is well-formed and sane:

  * parses as JSON with "bench": "churn" and all three expected sections
    (moving_objects, zipf_queries, ttl_eviction),
  * every section carries the run-metadata stamp (cores/build_type/
    git_sha/scale),
  * every row has the required fields with positive n and a positive,
    finite timing value,
  * the moving_objects section has both the update and erase_insert arms
    for every dataset, the zipf_queries section has both the zipf and
    uniform arms, and the ttl_eviction section has the sweep rows,
  * on near-full-scale runs (metadata scale >= 0.25), the performance gate
    holds: on every "nearby" moving-objects dataset the Update arm beats
    the erase+insert composite by >= 1.2x (per-arm minima) — the in-node
    move, which rewrites one node, must actually pay for itself. Scaled-down CI runs
    check the schema only (tiny trees are too shallow for the fast path to
    dominate and too noisy to gate).

Exit code 0 on success; 1 with a diagnostic on the first violation.
"""

import json
import math
import sys

REQUIRED_SECTIONS = {
    "moving_objects": "us_per_move",
    "zipf_queries": "us_per_query",
    "ttl_eviction": "us_per_op",
}
METADATA_KEYS = ("cores", "build_type", "git_sha", "scale")
MOVE_MODES = {"update", "erase_insert"}
ZIPF_MODES = {"zipf", "uniform"}

# The ratio gate only runs on trustworthy artefacts: near-full-scale runs
# where the trees are deep enough for nearby moves to stay inside one node.
MIN_GATED_SCALE = 0.25
UPDATE_SPEEDUP = 1.2


def fail(msg):
    print(f"check_bench_churn: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_rows(section, rows, value_key):
    if not isinstance(rows, list) or not rows:
        fail(f"section {section}: empty or non-list rows")
    for i, row in enumerate(rows):
        for key in ("dataset", "struct", "n", value_key):
            if key not in row:
                fail(f"section {section} row {i}: missing {key!r}")
        if not isinstance(row["n"], int) or row["n"] <= 0:
            fail(f"section {section} row {i}: non-positive n {row['n']!r}")
        us = row[value_key]
        if not isinstance(us, (int, float)) or not math.isfinite(us) or us <= 0:
            fail(
                f"section {section} row {i}: {value_key} {us!r} is not a "
                "positive finite number"
            )


def min_by(rows, value_key, mode, dataset):
    vals = [
        r[value_key]
        for r in rows
        if r["struct"] == mode and r["dataset"] == dataset
    ]
    return min(vals) if vals else None


def check_moving_section(section):
    rows = section["rows"]
    for i, row in enumerate(rows):
        if row["struct"] not in MOVE_MODES:
            fail(f"moving_objects row {i}: bad mode {row['struct']!r}")
    for dataset in sorted({r["dataset"] for r in rows}):
        modes = {r["struct"] for r in rows if r["dataset"] == dataset}
        if not MOVE_MODES <= modes:
            fail(
                f"moving_objects {dataset}: missing arms "
                f"{sorted(MOVE_MODES - modes)}"
            )


def check_zipf_section(section):
    rows = section["rows"]
    for i, row in enumerate(rows):
        if row["struct"] not in ZIPF_MODES:
            fail(f"zipf_queries row {i}: bad mode {row['struct']!r}")
    modes = {r["struct"] for r in rows}
    if not ZIPF_MODES <= modes:
        fail(f"zipf_queries missing arms {sorted(ZIPF_MODES - modes)}")


def check_update_gates(section):
    rows = section["rows"]
    nearby = sorted(
        d for d in {r["dataset"] for r in rows} if "nearby" in d
    )
    if not nearby:
        fail("moving_objects: no 'nearby' dataset to gate")
    for dataset in nearby:
        composite = min_by(rows, "us_per_move", "erase_insert", dataset)
        update = min_by(rows, "us_per_move", "update", dataset)
        if composite is None or update is None:
            fail(f"update gate: {dataset}: missing an arm")
        if update > composite / UPDATE_SPEEDUP:
            fail(
                f"update gate: {dataset}: update {update:.3f} us/move is "
                f"not {UPDATE_SPEEDUP}x faster than erase+insert "
                f"{composite:.3f}"
            )


def main():
    path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_churn.json"
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as e:
        fail(f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        fail(f"{path} is not valid JSON: {e}")

    if doc.get("bench") != "churn":
        fail(f"top-level bench is {doc.get('bench')!r}, expected 'churn'")
    sections = doc.get("sections")
    if not isinstance(sections, dict):
        fail("missing or non-object 'sections'")

    for name, value_key in REQUIRED_SECTIONS.items():
        section = sections.get(name)
        if not isinstance(section, dict):
            fail(f"missing section {name!r}")
        metadata = section.get("metadata")
        if not isinstance(metadata, dict):
            fail(f"section {name}: missing metadata stamp")
        for key in METADATA_KEYS:
            if key not in metadata:
                fail(f"section {name}: metadata missing {key!r}")
        check_rows(name, section.get("rows"), value_key)

    moving = sections["moving_objects"]
    check_moving_section(moving)
    check_zipf_section(sections["zipf_queries"])

    if moving["metadata"].get("scale", 0) >= MIN_GATED_SCALE:
        check_update_gates(moving)
        gates = "update gate enforced"
    else:
        gates = "update gate skipped (scaled-down run)"

    print(
        f"check_bench_churn: OK ({path}: "
        f"{len(moving['rows'])} moving-objects rows, "
        f"{len(sections['zipf_queries']['rows'])} zipf rows, "
        f"{len(sections['ttl_eviction']['rows'])} ttl rows, {gates})"
    )


if __name__ == "__main__":
    main()
