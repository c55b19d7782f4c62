#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at tiny shapes, both modes.

    python3 perfbench/test_perfbench.py

Checks the output contract (last stdout line, its keys, every metric of
BENCHMARK.json with its unit), that the correctness gate passes on a clean
build and fails with exit status 1 when a sweep's results disagree with the
recorded digest, and the wall-time attribution on hand-made spans.
"""

import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(workload, trace, seed=2023):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--tiny"], cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=600)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


class OutputContract(unittest.TestCase):
    def check(self, workload, trace):
        code, result = bench(workload, trace)
        self.assertEqual(code, 0)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        declared = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0.0, m["name"])

    def test_workloads(self):
        self.assertEqual({w["name"] for w in SPEC["workloads"]},
                         set(run.WORKLOADS))
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check(workload, trace)


class CorrectnessGate(unittest.TestCase):
    SEED = 77

    def test_digest_mismatch_fails_the_run(self):
        code, result = bench("sweep_mixed", 0, self.SEED)  # records the digest
        self.assertEqual(code, 0)
        store = run.DigestStore(self.SEED, tiny=True)
        rows = {m: "0" * 64 for m in store.ref["rows"]}
        store.set("0" * 64, rows)
        try:
            for workload in ("sweep_mixed", "sweep_fleet"):
                code, result = bench(workload, 0, self.SEED)
                self.assertEqual(code, 1, workload)
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], result["attempted"])
        finally:
            os.remove(store.path)


def span(id_, tid, start, end, name, parent=0, wait=False):
    return layers.Span(id_, parent, 1, tid, start, end, name, "", wait)


class Attribution(unittest.TestCase):
    def test_shares_and_residual_add_up_to_wall(self):
        s = 1_000_000_000
        spans = [
            # A coordinator waiting on two workers from 0 to 8 s.
            span(1, 1, 0, 8 * s, "pipeline.run_study_pipeline", wait=True),
            # Worker A: reorder 0-4 s with partition 1-3 s nested inside.
            span(2, 2, 0, 4 * s, "reorder.gp"),
            span(3, 2, 1 * s, 3 * s, "partition.partition_graph", parent=2),
            # Worker B: perfmodel 2-6 s.
            span(4, 3, 2 * s, 6 * s, "perfmodel.estimate"),
        ]
        share, unattributed = layers.wall_attribution(spans, 0, 10 * s)
        # 0-1 reorder alone; 1-2 partition alone; 2-3 partition and
        # perfmodel split; 3-4 reorder and perfmodel split; 4-6 perfmodel
        # alone; 6-8 only the coordinator; 8-10 nothing open.
        self.assertAlmostEqual(share["reorder"], 1.5)
        self.assertAlmostEqual(share["partition"], 1.5)
        self.assertAlmostEqual(share["perfmodel"], 3.0)
        self.assertAlmostEqual(share["pipeline"], 2.0)
        self.assertAlmostEqual(unattributed, 2.0)
        self.assertAlmostEqual(sum(share.values()) + unattributed, 10.0)
        self.assertAlmostEqual(
            layers.total_seconds(spans, lambda x: x.name.startswith("reorder")),
            4.0)


if __name__ == "__main__":
    unittest.main()
