#!/usr/bin/env python3
"""The benchmark's own tests: every workload at a tiny scale.

    python3 perfbench/test_perfbench.py

Checks that every metric BENCHMARK.json names appears (untraced and
traced runs), that the same seed gives exactly the same count metrics
on the engine workloads (run with a fixed op count), and that a
deliberately corrupted model entry is reported as a failed op.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")
ENGINE = ["ingest", "read_mostly"]
WORKLOADS = ENGINE + ["serve"]
COUNTS = ["write_amp", "read_pages_per_op", "compaction.count"]
# the server binary exposes no device counters
SERVE_UNMEASURED = {"read_pages_per_op"}


def bench(workload, seed=1, trace=0, ops=3000, corrupt=False, seconds=1):
    argv = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if workload in ENGINE:
        argv += ["--ops", str(ops)]
    if corrupt:
        argv.append("--corrupt-model")
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if out.returncode != 0:
        raise AssertionError("run failed: %s\n%s" % (out.stderr[-3000:], out.stdout[-3000:]))
    lines = out.stdout.strip().split("\n")
    # every metric the run measured, by name, from the report lines
    report = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) >= 3 and line.startswith("  "):
            try:
                report[parts[0]] = float(parts[1])
            except ValueError:
                pass
    return json.loads(lines[-1]), report


def declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [m["name"] for m in json.load(f)[section]]


class Metrics(unittest.TestCase):
    def test_every_metric_appears(self):
        for w in WORKLOADS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w, trace=trace):
                    result, _ = bench(w, trace=trace)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    expected = set(declared(section))
                    if w == "serve":
                        expected -= SERVE_UNMEASURED
                    self.assertEqual(set(result["metrics"]), expected)
                    for name, m in result["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float), name)
                        self.assertTrue(m["unit"], name)


class Determinism(unittest.TestCase):
    def test_same_seed_same_counts(self):
        for w in ENGINE:
            with self.subTest(workload=w):
                a, ra = bench(w, seed=7, trace=1)
                b, rb = bench(w, seed=7, trace=1)
                self.assertEqual(a["attempted"], b["attempted"])
                for name in COUNTS:
                    self.assertIn(name, ra)
                    self.assertEqual(ra[name], rb[name], name)
                self.assertEqual(a["metrics"]["compaction.count"], b["metrics"]["compaction.count"])


class Checks(unittest.TestCase):
    def test_corrupted_model_is_a_failure(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                result, _ = bench(w, corrupt=True)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)


if __name__ == "__main__":
    unittest.main()
