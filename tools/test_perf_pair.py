#!/usr/bin/env python3
"""Unit tests of perf_pair.py's verdict, fed synthetic run records.

    python3 tools/test_perf_pair.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import perf_pair  # noqa: E402

METRICS = [
    {"name": "ops_per_s", "better": "higher", "bound": 0.25},
    {"name": "op_ms_p50", "better": "lower", "bound": 0.25},
    {"name": "ok_frac", "better": "higher", "bound": 0.01},
]
# Ten steady runs: quartiles 97.75 and 102.25, spread 4.5%.
STEADY = [100, 101, 99, 102, 98, 100, 103, 97, 100, 100]


def runs(ops, op_ms=None, ok=None, fingerprint="f00d"):
    op_ms = op_ms or [10.0] * len(ops)
    ok = ok or [1.0] * len(ops)
    return [{"correct": k == 1.0, "fingerprint": fingerprint,
             "metrics": {"ops_per_s": o, "op_ms_p50": m, "ok_frac": k}}
            for o, m, k in zip(ops, op_ms, ok)]


def verdicts(base, change, claims=()):
    rows, failures = perf_pair.judge(METRICS, base, change, claims)
    return {r[0]: r for r in rows}, failures


class VerdictTest(unittest.TestCase):
    def test_identical_sides_are_ok(self):
        rows, failures = verdicts(runs(STEADY), runs(STEADY))
        self.assertEqual({r[-1] for r in rows.values()}, {"ok"})
        self.assertEqual(failures, [])

    def test_thirty_percent_drop_is_worse(self):
        rows, failures = verdicts(runs(STEADY), runs([0.7 * v for v in STEADY]))
        self.assertEqual(rows["ops_per_s"][-1], "worse")
        self.assertEqual(rows["op_ms_p50"][-1], "ok")
        self.assertEqual(len(failures), 1)
        self.assertIn("ops_per_s worse", failures[0])

    def test_wide_spread_is_unresolved(self):
        wide = [60, 140, 70, 130, 80, 120, 90, 110, 100, 100]
        rows, failures = verdicts(runs(STEADY), runs(wide))
        self.assertEqual(rows["ops_per_s"][-1], "unresolved")
        self.assertEqual(failures, [])
        rows, _ = verdicts(runs(wide), runs(STEADY))
        self.assertEqual(rows["ops_per_s"][-1], "unresolved")

    def test_wide_spread_is_ok_when_every_change_run_is_better(self):
        wide_low = [40, 60, 45, 55, 50, 42, 58, 48, 52, 50]
        wide_high = [150, 250, 160, 240, 200, 170, 230, 190, 210, 200]
        rows, _ = verdicts(runs(wide_low), runs(wide_high))
        self.assertEqual(rows["ops_per_s"][-1], "ok")

    def test_eight_wins_do_not_show_a_claim(self):
        change = [v * 1.2 for v in STEADY[:8]] + [v * 0.9 for v in STEADY[8:]]
        rows, failures = verdicts(runs(STEADY), runs(change), {"ops_per_s"})
        self.assertEqual(rows["ops_per_s"][6], 8)
        self.assertEqual(rows["ops_per_s"][-1], "ok, gain not shown")
        self.assertIn("claimed gain in ops_per_s not shown", failures)

    def test_nine_wins_beyond_the_iqr_show_a_claim(self):
        change = [v * 1.2 for v in STEADY[:9]] + [STEADY[9] * 0.9]
        rows, failures = verdicts(runs(STEADY), runs(change), {"ops_per_s"})
        self.assertEqual(rows["ops_per_s"][6], 9)
        self.assertEqual(rows["ops_per_s"][-1], "ok, gain shown")
        self.assertEqual(failures, [])

    def test_nine_wins_inside_the_iqr_do_not_show_a_claim(self):
        change = [v + 1 for v in STEADY[:9]] + [STEADY[9] - 1]
        rows, _ = verdicts(runs(STEADY), runs(change), {"ops_per_s"})
        self.assertEqual(rows["ops_per_s"][6], 9)
        self.assertEqual(rows["ops_per_s"][-1], "ok, gain not shown")

    def test_ties_count_for_neither_side(self):
        change = [v * 1.2 for v in STEADY[:8]] + STEADY[8:]
        rows, _ = verdicts(runs(STEADY), runs(change), {"ops_per_s"})
        self.assertEqual(rows["ops_per_s"][6], 8)
        self.assertEqual(rows["ops_per_s"][-1], "ok, gain not shown")
        rows, _ = verdicts(runs(STEADY), runs(STEADY))
        self.assertEqual(rows["ops_per_s"][6], 0)

    def test_fingerprint_mismatch_is_reported(self):
        _, failures = verdicts(runs(STEADY), runs(STEADY, fingerprint="beef"))
        self.assertEqual(len(failures), 1)
        self.assertIn("simulated output differs", failures[0])
        self.assertIn("f00d", failures[0])
        self.assertIn("beef", failures[0])

    def test_lower_ok_frac_fails(self):
        ok = [1.0] * 9 + [0.995]
        rows, failures = verdicts(runs(STEADY), runs(STEADY, ok=ok))
        self.assertEqual(rows["ok_frac"][-1], "ok")  # the median is still 1.0
        self.assertEqual(failures, ["1 change run(s) not correct",
                                    "ok_frac lower than the base's"])

    def test_lower_is_better_metric(self):
        rows, _ = verdicts(runs(STEADY, op_ms=[10.0] * 10), runs(STEADY, op_ms=[13.0] * 10))
        self.assertEqual(rows["op_ms_p50"][-1], "worse")
        rows, _ = verdicts(runs(STEADY, op_ms=[10.0] * 10), runs(STEADY, op_ms=[12.0] * 10))
        self.assertEqual(rows["op_ms_p50"][-1], "ok")


if __name__ == "__main__":
    unittest.main()
