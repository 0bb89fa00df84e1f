#!/usr/bin/env python3
"""Validates the BENCH_*.json artefacts the bench binaries write.

    check_bench.py ARTIFACT... [--baseline BASELINE]

Every artefact has one layout (src/benchlib/json_artifact.h):

    {"bench": "<kind>", "sections": {"<name>": {"figure": ...,
     "metadata": {cores, build_type, git_sha, scale[, thp]}, ...,
     "rows": [...]}}}

and its "bench" field picks the spec below. Each artefact is checked in
three steps, and the first violation fails it:

  * schema: every section of the spec is present, with the metadata stamp
    and the section's own fields; every row has the section's keys, its
    counts are positive integers and its values positive finite numbers;
  * arms: every comparison has each of its arms;
  * gates: the artefact's performance and space bars, each under the
    preconditions in its docstring; the summary line says whether each
    gate was enforced or skipped.

With --baseline, every artefact of the baseline's kind is also compared
against that (fully checked) baseline; space is the kind that has such a
comparison. Every failure names its rule in brackets, e.g. [space.ph_set].
Exit code 0 when every artefact passes, 1 otherwise.
"""

import argparse
import json
import math
import sys

# Artefacts written since the arena's huge-page chunks also carry "thp", the
# host's transparent-huge-page mode; it is not required, so older artefacts
# stay valid.
METADATA_KEYS = ("cores", "build_type", "git_sha", "scale")

# Ratio gates run only on trustworthy artefacts: near-full-scale runs (tiny
# trees fit in cache, are too shallow for in-node moves, and invert or
# flatten the ratios).
MIN_GATED_SCALE = 0.25

TABLE1_BASELINES = ("KD1", "CB1")  # pointer-based; KD2/CB2 are array-backed
TABLE2_DATASETS = {"3D CLUSTER0.4", "3D CLUSTER0.5"}
SPACE_TOLERANCE = 0.02  # allowed B/e increase over the baseline

BATCH_SPEEDUP = 1.3
SIMD_WIN = 0.90
SIMD_REGRESSION = 1.02

UPDATE_SPEEDUP = 1.2

KNOWN_INDEXES = {"PH(plain)", "PH(sync)", "PH(sharded)", "PH(rwlock)"}
KNOWN_OPS = {"insert", "bulk_load", "window_query", "read_under_writer"}
INDEXES_PER_OP = {
    "insert": {"PH(plain)", "PH(sync)", "PH(sharded)"},
    "bulk_load": {"PH(sharded)"},
    "window_query": {"PH(sync)", "PH(sharded)"},
    "read_under_writer": {"PH(sync)", "PH(rwlock)"},
}
READ_SCALING_MIN = 1.3  # epoch reads, t* readers vs 1 (t* <= cores)
EPOCH_VS_RWLOCK_MIN = 1.0  # epoch must at least match the lock at t*


class Failure(Exception):
    def __init__(self, rule, message):
        super().__init__(f"[{rule}] {message}")


def fail(rule, message):
    raise Failure(rule, message)


def rows_of(value, counts=("n",)):
    """The row spec of a section whose rows are one (dataset, struct) arm."""
    return {"keys": ("dataset", "struct"), "counts": counts,
            "values": (value,)}


def check_rows(name, spec, rows):
    if not isinstance(rows, list) or not rows:
        fail("rows", f"section {name}: empty or non-list rows")
    for i, row in enumerate(rows):
        for key in spec["keys"] + spec["counts"] + spec["values"]:
            if key not in row:
                fail("rows", f"section {name} row {i}: missing {key!r}")
        for key in spec["counts"]:
            if not isinstance(row[key], int) or row[key] <= 0:
                fail("rows", f"section {name} row {i}: non-positive {key} "
                     f"{row[key]!r}")
        for key in spec["values"]:
            v = row[key]
            if (not isinstance(v, (int, float)) or not math.isfinite(v)
                    or v <= 0):
                fail("rows", f"section {name} row {i}: {key} {v!r} is not a "
                     "positive finite number")


def check_schema(spec, sections):
    for name, row_spec in spec["sections"].items():
        section = sections.get(name)
        if not isinstance(section, dict):
            fail("section", f"missing section {name!r}")
        metadata = section.get("metadata")
        if not isinstance(metadata, dict):
            fail("metadata", f"section {name}: missing metadata stamp")
        for key in METADATA_KEYS:
            if key not in metadata:
                fail("metadata", f"section {name}: metadata missing {key!r}")
        for field, kind in row_spec.get("fields", {}).items():
            if not isinstance(section.get(field), kind):
                fail("section", f"section {name}: missing or non-"
                     f"{kind.__name__} {field!r}")
        check_rows(name, row_spec, section.get("rows"))


def check_arms(where, rows, key, arms, by=None, closed=True):
    """Each group of rows (all of them, or one per value of `by`) has a row
    for every arm; when `closed`, no row has another value of `key`."""
    if closed:
        for i, row in enumerate(rows):
            if row[key] not in arms:
                fail("arms", f"{where} row {i}: unknown {key} {row[key]!r}")
    for group in sorted({row[by] for row in rows}) if by else [None]:
        have = {row[key] for row in rows if by is None or row[by] == group}
        if not set(arms) <= have:
            label = f"{where} {group}" if by else where
            fail("arms", f"{label}: missing arms {sorted(set(arms) - have)}")


def arm_best(rows, value, pick=min, **match):
    """The best `value` (the minimum unless `pick` says otherwise) over the
    rows that match every key=value of `match`, or None."""
    vals = [r[value] for r in rows
            if all(r.get(k) == v for k, v in match.items())]
    return pick(vals) if vals else None


def space_gates(sections):
    """Always: every table1 dataset has PH and PH(set) rows with PH(set) <
    PH, PH < KD1 and CB1 when present; table2 has both CLUSTER datasets."""
    rows = sections["table1"]["rows"]
    check_arms("table1", rows, "struct", ("PH", "PH(set)"), by="dataset",
               closed=False)
    ph_set = {}
    for dataset in sorted({r["dataset"] for r in rows}):
        bpe = {r["struct"]: r["bytes_per_entry"] for r in rows
               if r["dataset"] == dataset}
        ph_set[dataset] = bpe["PH(set)"]
        if bpe["PH(set)"] >= bpe["PH"]:
            fail("space.ph_set", f"table1 {dataset}: PH(set) "
                 f"{bpe['PH(set)']:.2f} B/e is not below PH {bpe['PH']:.2f} "
                 "B/e")
        for base in TABLE1_BASELINES:
            if base in bpe and bpe["PH"] >= bpe[base]:
                fail("space.ph_vs_pointer", f"table1 {dataset}: PH "
                     f"{bpe['PH']:.2f} B/e is not below {base} "
                     f"{bpe[base]:.2f} B/e")
    table2 = {r["dataset"] for r in sections["table2"]["rows"]}
    if not TABLE2_DATASETS <= table2:
        fail("space.table2", f"table2: datasets {sorted(table2)} missing "
             f"{sorted(TABLE2_DATASETS - table2)}")
    return "PH(set) B/e " + ", ".join(
        f"{d} {v:.1f}" for d, v in sorted(ph_set.items()))


def space_ph_rows(sections):
    """(section, dataset, struct, n) -> bytes_per_entry of the PH rows."""
    return {(name, r["dataset"], r["struct"], r["n"]): r["bytes_per_entry"]
            for name in ("table1", "table2") for r in sections[name]["rows"]
            if r["struct"] in ("PH", "PH(set)")}


def space_baseline(fresh, base):
    """PH and PH(set) bytes per entry at most SPACE_TOLERANCE above the
    baseline's, row by row. Applies when both were produced at the same
    scale (B/e depends on tree size); with no comparable row it fails."""
    scales = [{doc[s]["metadata"].get("scale") for s in ("table1", "table2")}
              for doc in (fresh, base)]
    if scales[0] != scales[1]:
        return (f"baseline skipped (scale mismatch: {sorted(scales[0])} vs "
                f"baseline {sorted(scales[1])})")
    fresh_rows = space_ph_rows(fresh)
    compared = 0
    for key, base_bpe in sorted(space_ph_rows(base).items()):
        if key not in fresh_rows:
            continue  # workload changed shape; schema checks still apply
        compared += 1
        if fresh_rows[key] > base_bpe * (1.0 + SPACE_TOLERANCE):
            section, dataset, struct, n = key
            fail("space.baseline", f"{section} {dataset} {struct} (n={n}) is "
                 f"{fresh_rows[key]:.3f} B/e vs {base_bpe:.3f} B/e in the "
                 f"baseline (+{(fresh_rows[key] / base_bpe - 1) * 100:.1f}%, "
                 f"tolerance {SPACE_TOLERANCE * 100:.0f}%)")
    if compared == 0:
        fail("space.baseline", "no comparable PH rows in the baseline")
    return f"baseline enforced ({compared} rows compared)"


def queries_gates(sections):
    """When both the batch and the SIMD sections are at scale >=
    MIN_GATED_SCALE and the SIMD kernels were active: FindBatch is >=
    BATCH_SPEEDUP x looped Find at every batch >= 64 for every dataset;
    some SIMD workload wins >= 10% and none regresses > 2%."""
    batch = sections["batch_point_queries"]
    simd = sections["simd_ablation"]
    check_arms("batch_point_queries", batch["rows"], "struct",
               ("find_loop", "find_batch"))
    check_arms("simd_ablation", simd["rows"], "struct", ("simd", "scalar"))
    if (any(s["metadata"].get("scale", 0) < MIN_GATED_SCALE
            for s in (batch, simd)) or simd.get("simd_active") is not True):
        return "gates skipped (scaled-down or scalar-only run)"
    rows = batch["rows"]
    for dataset in sorted({r["dataset"] for r in rows}):
        for size in sorted(b for b in {r["batch"] for r in rows} if b >= 64):
            loop = arm_best(rows, "us_per_key", struct="find_loop",
                            dataset=dataset, batch=size)
            batched = arm_best(rows, "us_per_key", struct="find_batch",
                               dataset=dataset, batch=size)
            if loop is None or batched is None:
                fail("arms", f"batch_point_queries {dataset} batch {size}: "
                     "missing an arm")
            if batched > loop / BATCH_SPEEDUP:
                fail("queries.find_batch", f"{dataset} batch {size}: "
                     f"find_batch {batched:.3f} us/key is not "
                     f"{BATCH_SPEEDUP}x faster than find_loop {loop:.3f}")
    rows = simd["rows"]
    best_ratio = math.inf
    for dataset in sorted({r["dataset"] for r in rows}):
        vector = arm_best(rows, "us_per_op", struct="simd", dataset=dataset)
        scalar = arm_best(rows, "us_per_op", struct="scalar", dataset=dataset)
        if vector is None or scalar is None:
            fail("arms", f"simd_ablation {dataset}: missing an arm")
        ratio = vector / scalar
        best_ratio = min(best_ratio, ratio)
        if ratio > SIMD_REGRESSION:
            fail("queries.simd_regression", f"{dataset}: simd arm "
                 f"{vector:.3f} us/op regresses {(ratio - 1) * 100:.1f}% vs "
                 f"scalar {scalar:.3f} (allowed "
                 f"{(SIMD_REGRESSION - 1) * 100:.0f}%)")
    if best_ratio > SIMD_WIN:
        fail("queries.simd_win", f"no workload shows a >= "
             f"{(1 - SIMD_WIN) * 100:.0f}% SIMD win (best ratio "
             f"{best_ratio:.3f})")
    return "gates enforced"


def churn_gates(sections):
    """At scale >= MIN_GATED_SCALE: on every "nearby" moving-objects
    dataset, Update is >= UPDATE_SPEEDUP x the erase+insert composite."""
    moving = sections["moving_objects"]
    rows = moving["rows"]
    check_arms("moving_objects", rows, "struct", ("update", "erase_insert"),
               by="dataset")
    check_arms("zipf_queries", sections["zipf_queries"]["rows"], "struct",
               ("zipf", "uniform"))
    if moving["metadata"].get("scale", 0) < MIN_GATED_SCALE:
        return "update gate skipped (scaled-down run)"
    nearby = sorted(d for d in {r["dataset"] for r in rows} if "nearby" in d)
    if not nearby:
        fail("churn.update", "moving_objects: no 'nearby' dataset to gate")
    for dataset in nearby:
        composite = arm_best(rows, "us_per_move", struct="erase_insert",
                             dataset=dataset)
        update = arm_best(rows, "us_per_move", struct="update",
                          dataset=dataset)
        if update > composite / UPDATE_SPEEDUP:
            fail("churn.update", f"{dataset}: update {update:.3f} us/move is "
                 f"not {UPDATE_SPEEDUP}x faster than erase+insert "
                 f"{composite:.3f}")
    return "update gate enforced"


def concurrency_gates(sections):
    """When "scaling_valid" is true and the stamp says more than one core:
    epoch reads at t* readers (the largest measured count <= cores) are >=
    READ_SCALING_MIN x one reader and at least the rwlock arm at t*."""
    section = sections["concurrency_scaling"]
    rows = section["rows"]
    where = "concurrency_scaling"
    check_arms(where, rows, "index", KNOWN_INDEXES)
    check_arms(where, rows, "op", KNOWN_OPS)
    for op, indexes in INDEXES_PER_OP.items():
        check_arms(f"{where} {op}", [r for r in rows if r["op"] == op],
                   "index", indexes, closed=False)
    readers = [r for r in rows if r["op"] == "read_under_writer"]
    epoch = [r for r in readers if r["index"] == "PH(sync)"]
    rwlock = [r for r in readers if r["index"] == "PH(rwlock)"]
    counts = sorted({r["threads"] for r in epoch})
    if counts != sorted({r["threads"] for r in rwlock}):
        fail("arms", "read_under_writer arms measure different reader counts")
    if 1 not in counts:
        fail("arms", "read_under_writer has no 1-reader row to scale against")
    cores = section["metadata"]["cores"]
    if not isinstance(cores, int) or cores <= 0:
        fail("metadata", f"cores {cores!r} is not a positive integer")
    if not section["scaling_valid"] or cores == 1:
        return ("reader gate skipped (scaling_valid false or single core: "
                "multi-thread rows measure time-slicing)")
    gated = [t for t in counts if 1 < t <= cores]
    if not gated:
        return f"reader gate skipped (no measured count in (1, {cores}])"
    t_star = gated[-1]
    base = arm_best(epoch, "mops_per_sec", max, threads=1)
    at_t = arm_best(epoch, "mops_per_sec", max, threads=t_star)
    lock_at_t = arm_best(rwlock, "mops_per_sec", max, threads=t_star)
    if at_t < base * READ_SCALING_MIN:
        fail("concurrency.reader_scaling", f"epoch reads at {t_star} readers "
             f"({at_t:.4f} Mops/s) are not {READ_SCALING_MIN}x the 1-reader "
             f"throughput ({base:.4f} Mops/s) despite {cores} cores")
    if at_t < lock_at_t * EPOCH_VS_RWLOCK_MIN:
        fail("concurrency.epoch_vs_rwlock", f"epoch reads at {t_star} "
             f"readers ({at_t:.4f} Mops/s) fall below the rwlock baseline "
             f"({lock_at_t:.4f} Mops/s)")
    return (f"reader gate enforced at {t_star} readers (scaling "
            f"{at_t / base:.2f}x, vs rwlock {at_t / lock_at_t:.2f}x)")


SPECS = {
    "space": {
        "sections": {"table1": rows_of("bytes_per_entry"),
                     "table2": rows_of("bytes_per_entry")},
        "gates": space_gates,
        "baseline": space_baseline,
    },
    "queries": {
        "sections": {"point_queries": rows_of("us_per_query"),
                     "range_queries": rows_of("us_per_result"),
                     "batch_point_queries": rows_of("us_per_key",
                                                    ("n", "batch")),
                     "simd_ablation": rows_of("us_per_op")},
        "gates": queries_gates,
    },
    "churn": {
        "sections": {"moving_objects": rows_of("us_per_move"),
                     "zipf_queries": rows_of("us_per_query"),
                     "ttl_eviction": rows_of("us_per_op")},
        "gates": churn_gates,
    },
    "concurrency": {
        "sections": {"concurrency_scaling": {
            "keys": ("index", "op", "shards", "mops_per_sec", "us_per_op"),
            "counts": ("threads",),
            "values": ("ops", "us"),
            "fields": {"scaling_valid": bool, "workload": dict,
                       "derived": dict}}},
        "gates": concurrency_gates,
    },
}


def load(path):
    """The artefact's kind and sections, schema-checked."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        fail("load", f"cannot read {path} as JSON: {e}")
    kind = doc.get("bench") if isinstance(doc, dict) else None
    if kind not in SPECS:
        fail("load", f"bench {kind!r} is none of {sorted(SPECS)}")
    if not isinstance(doc.get("sections"), dict):
        fail("section", "missing or non-object 'sections'")
    check_schema(SPECS[kind], doc["sections"])
    return kind, doc["sections"]


def check(path, base=None):
    """Checks one artefact; returns its kind, sections and summary line."""
    kind, sections = load(path)
    spec = SPECS[kind]
    notes = [", ".join(f"{len(sections[name]['rows'])} {name} rows"
                       for name in spec["sections"]),
             spec["gates"](sections)]
    if base is not None and kind == base[0]:
        notes.append(spec["baseline"](sections, base[1]))
    return kind, sections, "; ".join(notes)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("artifacts", nargs="+", metavar="ARTIFACT")
    parser.add_argument("--baseline", help="committed artefact every "
                        "artefact of its kind must not regress against")
    args = parser.parse_args()

    base = None
    if args.baseline:
        try:
            kind, sections, _ = check(args.baseline)
            if "baseline" not in SPECS[kind]:
                fail("baseline", f"{kind} artefacts have no baseline "
                     "comparison")
            base = (kind, sections)
        except Failure as e:
            print(f"check_bench: FAIL: {args.baseline}: {e}", file=sys.stderr)
            sys.exit(1)
    failed = False
    kinds = set()
    for path in args.artifacts:
        try:
            kind, _, summary = check(path, base)
        except Failure as e:
            print(f"check_bench: FAIL: {path}: {e}", file=sys.stderr)
            failed = True
            continue
        kinds.add(kind)
        print(f"check_bench: OK ({path}: {kind}: {summary})")
    if base is not None and base[0] not in kinds and not failed:
        print(f"check_bench: FAIL: {args.baseline}: [baseline] no {base[0]} "
              "artefact to compare with it", file=sys.stderr)
        failed = True
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
