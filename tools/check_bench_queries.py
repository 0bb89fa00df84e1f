#!/usr/bin/env python3
"""CI gate for the BENCH_queries.json artefact.

Validates that the file fig08_point_queries and fig09_range_queries wrote is
well-formed and sane:

  * parses as JSON with "bench": "queries" and both expected sections,
  * every section carries the run-metadata stamp (cores/build_type/
    git_sha/scale),
  * every row has the required fields with positive n and a positive,
    finite timing value (zero or negative throughput means the measured
    loop was optimised away or the clock misbehaved),
  * the batch_point_queries section (written by the batch_point_queries
    binary) has both find_loop and find_batch arms with positive batch
    sizes, and the simd_ablation section has both simd and scalar arms,
  * on full-scale runs with the SIMD kernels active (metadata scale >=
    0.25 and simd_active true), the performance gates hold: FindBatch
    beats the looped-Find arm by >= 1.3x at every batch size >= 64, at
    least one ablation workload shows a >= 10% SIMD win, and no workload
    regresses more than 2% with SIMD on. Scaled-down CI runs and
    scalar-only hosts check the schema only.

Exit code 0 on success; 1 with a diagnostic on the first violation.
"""

import json
import math
import sys

REQUIRED_SECTIONS = {
    "point_queries": "us_per_query",
    "range_queries": "us_per_result",
    "batch_point_queries": "us_per_key",
    "simd_ablation": "us_per_op",
}
METADATA_KEYS = ("cores", "build_type", "git_sha", "scale")
BATCH_MODES = {"find_loop", "find_batch"}
SIMD_MODES = {"simd", "scalar"}

# Ratio gates only run on trustworthy artefacts: a near-full-scale run
# (tiny trees fit in cache and invert the ratios) with vector kernels
# actually dispatched.
MIN_GATED_SCALE = 0.25
BATCH_SPEEDUP = 1.3
SIMD_WIN = 0.90
SIMD_REGRESSION = 1.02


def fail(msg):
    print(f"check_bench_queries: FAIL: {msg}", file=sys.stderr)
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


def min_by(rows, value_key, mode, dataset=None, batch=None):
    vals = [
        r[value_key]
        for r in rows
        if r["struct"] == mode
        and (dataset is None or r["dataset"] == dataset)
        and (batch is None or r.get("batch") == batch)
    ]
    return min(vals) if vals else None


def check_batch_section(section):
    rows = section["rows"]
    for i, row in enumerate(rows):
        batch = row.get("batch")
        if not isinstance(batch, int) or batch <= 0:
            fail(f"batch_point_queries row {i}: bad batch {batch!r}")
        if row["struct"] not in BATCH_MODES:
            fail(f"batch_point_queries row {i}: bad mode {row['struct']!r}")
    modes = {r["struct"] for r in rows}
    if not BATCH_MODES <= modes:
        fail(f"batch_point_queries missing arms {sorted(BATCH_MODES - modes)}")


def check_simd_section(section):
    rows = section["rows"]
    for i, row in enumerate(rows):
        if row["struct"] not in SIMD_MODES:
            fail(f"simd_ablation row {i}: bad mode {row['struct']!r}")
    modes = {r["struct"] for r in rows}
    if not SIMD_MODES <= modes:
        fail(f"simd_ablation missing arms {sorted(SIMD_MODES - modes)}")


def gates_apply(batch_section, simd_section):
    """Ratio gates need a near-full-scale run with vector kernels live."""
    for section in (batch_section, simd_section):
        if section["metadata"].get("scale", 0) < MIN_GATED_SCALE:
            return False
    return simd_section.get("simd_active") is True


def check_batch_gates(section):
    rows = section["rows"]
    datasets = sorted({r["dataset"] for r in rows})
    batches = sorted({r["batch"] for r in rows})
    for dataset in datasets:
        for batch in (b for b in batches if b >= 64):
            loop = min_by(rows, "us_per_key", "find_loop", dataset, batch)
            batched = min_by(rows, "us_per_key", "find_batch", dataset, batch)
            if loop is None or batched is None:
                fail(f"batch gate: {dataset} batch {batch}: missing an arm")
            if batched > loop / BATCH_SPEEDUP:
                fail(
                    f"batch gate: {dataset} batch {batch}: find_batch "
                    f"{batched:.3f} us/key is not {BATCH_SPEEDUP}x faster "
                    f"than find_loop {loop:.3f}"
                )


def check_simd_gates(section):
    rows = section["rows"]
    datasets = sorted({r["dataset"] for r in rows})
    best_ratio = math.inf
    for dataset in datasets:
        simd = min_by(rows, "us_per_op", "simd", dataset)
        scalar = min_by(rows, "us_per_op", "scalar", dataset)
        if simd is None or scalar is None:
            fail(f"simd gate: {dataset}: missing an arm")
        ratio = simd / scalar
        best_ratio = min(best_ratio, ratio)
        if ratio > SIMD_REGRESSION:
            fail(
                f"simd gate: {dataset}: simd arm {simd:.3f} us/op regresses "
                f"{(ratio - 1) * 100:.1f}% vs scalar {scalar:.3f} "
                f"(allowed {(SIMD_REGRESSION - 1) * 100:.0f}%)"
            )
    if best_ratio > SIMD_WIN:
        fail(
            f"simd gate: no workload shows a >= {(1 - SIMD_WIN) * 100:.0f}% "
            f"SIMD win (best ratio {best_ratio:.3f})"
        )


def main():
    path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_queries.json"
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as e:
        fail(f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        fail(f"{path} is not valid JSON: {e}")

    if doc.get("bench") != "queries":
        fail(f"top-level bench is {doc.get('bench')!r}, expected 'queries'")
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

    batch_section = sections["batch_point_queries"]
    simd_section = sections["simd_ablation"]
    check_batch_section(batch_section)
    check_simd_section(simd_section)
    if gates_apply(batch_section, simd_section):
        check_batch_gates(batch_section)
        check_simd_gates(simd_section)
        gates = "gates enforced"
    else:
        gates = "gates skipped (scaled-down or scalar-only run)"

    print(
        f"check_bench_queries: OK ({path}: "
        f"{len(sections['point_queries']['rows'])} point rows, "
        f"{len(sections['range_queries']['rows'])} range rows, "
        f"{len(batch_section['rows'])} batch rows, "
        f"{len(simd_section['rows'])} simd-ablation rows, {gates})"
    )


if __name__ == "__main__":
    main()
