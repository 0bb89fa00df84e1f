#!/usr/bin/env python3
"""Tests for tools/check_bench.py.

The four committed BENCH_*.json artefacts and tools/BENCH_space_ci.json
must pass. Each plant below breaks one schema rule or one gate in a copy
of a committed artefact, and the checker must reject that copy with a
message naming the rule.

    python3 tests/check_bench_test.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHECKER = os.path.join(ROOT, "tools", "check_bench.py")
SPACE_CI = os.path.join(ROOT, "tools", "BENCH_space_ci.json")


def rows(doc, section):
    return doc["sections"][section]["rows"]


def set_where(doc, section, value_key, value, **match):
    """Sets `value_key` to value(row) on every row matching `match`."""
    hit = [r for r in rows(doc, section)
           if all(r[k] == v for k, v in match.items())]
    assert hit, (section, match)
    for r in hit:
        r[value_key] = value(r)


def arm_min(doc, section, value_key, **match):
    return min(r[value_key] for r in rows(doc, section)
               if all(r[k] == v for k, v in match.items()))


def drop_where(doc, section, **match):
    doc["sections"][section]["rows"] = [
        r for r in rows(doc, section)
        if not all(r[k] == v for k, v in match.items())]


def multi_core(doc, epoch_at_4):
    """A copy that claims 4 cores and valid scaling, with the epoch reads at
    t* = 4 readers set to epoch_at_4(epoch at 1 reader, rwlock at 4)."""
    section = doc["sections"]["concurrency_scaling"]
    section["metadata"]["cores"] = 4
    section["scaling_valid"] = True
    rw = "read_under_writer"
    one = arm_min(doc, "concurrency_scaling", "mops_per_sec",
                  index="PH(sync)", op=rw, threads=1)
    lock = arm_min(doc, "concurrency_scaling", "mops_per_sec",
                   index="PH(rwlock)", op=rw, threads=4)
    set_where(doc, "concurrency_scaling", "mops_per_sec",
              lambda r: epoch_at_4(one, lock), index="PH(sync)", op=rw,
              threads=4)


def slow_find_batch(doc):
    loop = arm_min(doc, "batch_point_queries", "us_per_key",
                   struct="find_loop", batch=64)
    set_where(doc, "batch_point_queries", "us_per_key", lambda r: loop / 1.2,
              struct="find_batch", batch=64)


def simd_ratio(doc, ratio, dataset=None):
    """Sets the simd arm to `ratio` x the scalar arm's minimum."""
    for name in {r["dataset"] for r in rows(doc, "simd_ablation")}:
        if dataset in (None, name):
            scalar = arm_min(doc, "simd_ablation", "us_per_op",
                             struct="scalar", dataset=name)
            set_where(doc, "simd_ablation", "us_per_op",
                      lambda r: scalar * ratio, struct="simd", dataset=name)


def slow_update(doc):
    name = "MOVE2D nearby"
    composite = arm_min(doc, "moving_objects", "us_per_move",
                        struct="erase_insert", dataset=name)
    set_where(doc, "moving_objects", "us_per_move",
              lambda r: composite / 1.1, struct="update", dataset=name)


def space_row(doc, dataset, struct, value):
    set_where(doc, "table1", "bytes_per_entry", value, dataset=dataset,
              struct=struct)


def ph_of(doc, dataset, struct):
    return arm_min(doc, "table1", "bytes_per_entry", dataset=dataset,
                   struct=struct)


# name -> (committed artefact, rule the checker must name, mutation,
# extra checker arguments).
PLANTS = {
    "missing section": (
        "BENCH_queries.json", "section",
        lambda d: d["sections"].pop("range_queries"), []),
    "missing stamp key": (
        "BENCH_churn.json", "metadata",
        lambda d: d["sections"]["zipf_queries"]["metadata"].pop("git_sha"),
        []),
    "non-positive value": (
        "BENCH_space.json", "rows",
        lambda d: rows(d, "table1")[3].update(bytes_per_entry=0), []),
    "missing arm": (
        "BENCH_churn.json", "arms",
        lambda d: drop_where(d, "moving_objects", dataset="MOVE3D nearby",
                             struct="erase_insert"), []),
    "PH(set) not below PH": (
        "BENCH_space.json", "space.ph_set",
        lambda d: space_row(d, "3D CUBE", "PH(set)",
                            lambda r: ph_of(d, "3D CUBE", "PH")), []),
    "PH not below KD1": (
        "BENCH_space.json", "space.ph_vs_pointer",
        lambda d: space_row(d, "2D TIGER/Line", "PH",
                            lambda r: ph_of(d, "2D TIGER/Line", "KD1")), []),
    "table2 without CLUSTER0.4": (
        "BENCH_space.json", "space.table2",
        lambda d: drop_where(d, "table2", dataset="3D CLUSTER0.4"), []),
    "B/e 3% over the baseline": (
        "tools/BENCH_space_ci.json", "space.baseline",
        lambda d: space_row(d, "3D CUBE", "PH",
                            lambda r: r["bytes_per_entry"] * 1.03),
        ["--baseline", SPACE_CI]),
    "FindBatch under 1.3x at batch 64": (
        "BENCH_queries.json", "queries.find_batch", slow_find_batch, []),
    "SIMD regression over 2%": (
        "BENCH_queries.json", "queries.simd_regression",
        lambda d: simd_ratio(d, 1.03, "14D CUBE point"), []),
    "no SIMD win of 10%": (
        "BENCH_queries.json", "queries.simd_win",
        lambda d: simd_ratio(d, 0.95), []),
    "Update under 1.2x on a nearby dataset": (
        "BENCH_churn.json", "churn.update", slow_update, []),
    "epoch reads under 1.3x on a multi-core copy": (
        "BENCH_concurrency.json", "concurrency.reader_scaling",
        lambda d: multi_core(d, lambda one, lock: one * 1.2), []),
    "epoch under rwlock at t*": (
        "BENCH_concurrency.json", "concurrency.epoch_vs_rwlock",
        lambda d: multi_core(d, lambda one, lock: max(one * 1.4, lock * 0.9)),
        []),
}


def committed(artifact):
    with open(os.path.join(ROOT, artifact), encoding="utf-8") as f:
        return json.load(f)


def planted(name):
    """The committed artefact of plant `name`, with the plant applied."""
    artifact, _, mutate, _ = PLANTS[name]
    doc = committed(artifact)
    mutate(doc)
    return doc


def run_checker(*args):
    proc = subprocess.run([sys.executable, CHECKER, *args],
                          capture_output=True, text=True, check=False)
    return proc.returncode, proc.stdout + proc.stderr


class CheckBenchTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write(self, doc):
        path = os.path.join(self.tmp.name, "artifact.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        return path

    def test_committed_artifacts_pass(self):
        expected = {
            "BENCH_queries.json": "gates enforced",
            "BENCH_space.json": "PH(set) B/e",
            "BENCH_churn.json": "update gate enforced",
            "BENCH_concurrency.json": "reader gate skipped",
        }
        for artifact, verdict in expected.items():
            with self.subTest(artifact=artifact):
                code, out = run_checker(os.path.join(ROOT, artifact))
                self.assertEqual(code, 0, out)
                self.assertIn(verdict, out)
        code, out = run_checker(SPACE_CI, "--baseline", SPACE_CI)
        self.assertEqual(code, 0, out)
        self.assertIn("baseline enforced (18 rows compared)", out)

    def test_each_plant_fails_naming_its_rule(self):
        for name, (_, rule, _, args) in PLANTS.items():
            with self.subTest(plant=name):
                code, out = run_checker(self.write(planted(name)), *args)
                self.assertEqual(code, 1, out)
                self.assertIn(f"[{rule}]", out)

    def test_multi_core_reader_gate_can_pass(self):
        doc = committed("BENCH_concurrency.json")
        multi_core(doc, lambda one, lock: max(one * 1.4, lock * 1.1))
        code, out = run_checker(self.write(doc))
        self.assertEqual(code, 0, out)
        self.assertIn("reader gate enforced at 4 readers", out)

    def test_baseline_needs_an_artifact_of_its_kind(self):
        code, out = run_checker(os.path.join(ROOT, "BENCH_churn.json"),
                                "--baseline", SPACE_CI)
        self.assertEqual(code, 1, out)
        self.assertIn("[baseline]", out)

    def test_plant_leaves_other_artifacts_passing(self):
        bad = self.write(planted("missing section"))
        code, out = run_checker(os.path.join(ROOT, "BENCH_churn.json"), bad)
        self.assertEqual(code, 1, out)
        self.assertIn("check_bench: OK", out)
        self.assertIn("[section]", out)


if __name__ == "__main__":
    unittest.main()
