#!/usr/bin/env python3
"""Unit tests of bench_gate.py's paired verdict, fed synthetic runs.

    python3 tools/test_bench_gate.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench_gate  # noqa: E402


def runs(values, bench="event_churn"):
    return [{bench: v} for v in values]


class PairedVerdictTest(unittest.TestCase):
    def test_identical_sides_pass(self):
        rows, failures = bench_gate.judge(runs([100] * 5), runs([100] * 5))
        self.assertEqual(failures, [])
        self.assertEqual(rows[0][3], 1.0)

    def test_host_drift_shared_by_both_sides_passes(self):
        # The host slows to 0.7x mid-run; each pair sees it on both sides.
        load = [100, 100, 70, 70, 72]
        rows, failures = bench_gate.judge(runs(load), runs([v * 0.98 for v in load]))
        self.assertEqual(failures, [])
        self.assertAlmostEqual(rows[0][3], 0.98)

    def test_planted_slowdown_fails(self):
        rows, failures = bench_gate.judge(runs([100] * 5), runs([60] * 5))
        self.assertEqual(rows[0][-1], "REGRESSED")
        self.assertEqual(failures, ["event_churn (0.60x)"])

    def test_median_ignores_one_outlier_pair(self):
        rows, failures = bench_gate.judge(runs([100] * 5), runs([100, 100, 40, 100, 100]))
        self.assertEqual(failures, [])

    def test_bench_on_one_side_only_is_reported_not_failed(self):
        # "b" was dropped by the change, "c" is new in it.
        base = [{"a": 100, "b": 100}] * 3
        change = [{"a": 100, "c": 50}] * 3
        rows, failures = bench_gate.judge(base, change)
        self.assertEqual(rows, [("a", 100, 100, 1.0, "ok"),
                                ("b", 100, None, None, "missing from change"),
                                ("c", None, 50, None, "new (no base)")])
        self.assertEqual(failures, [])


class BaselineTest(unittest.TestCase):
    def test_baseline_is_named_by_the_binary(self):
        for binary, suite in (("build/bench/bench_engine", "engine"),
                              ("/abs/build-release/bench/bench_collective", "collective"),
                              ("bench_adaptive", "adaptive")):
            self.assertEqual(bench_gate.baseline_of(binary),
                             os.path.join(bench_gate.ROOT, "results",
                                          f"BENCH_{suite}.baseline.json"))


if __name__ == "__main__":
    unittest.main()
