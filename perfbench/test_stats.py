"""Unit tests of the benchmark's statistics.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class MedianTest(unittest.TestCase):
    def test_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.median([])


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [9.0, 1.5, 3.25, 7.0, 2.0, 8.5, 4.0, 6.0, 5.5, 10.0]
        self.assertEqual(stats.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))

    def test_spread_is_iqr_over_median(self):
        values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / 5.5)

    def test_constant_values_have_no_spread(self):
        self.assertEqual(stats.spread([2.0] * 10), 0.0)


class TailTest(unittest.TestCase):
    def test_exactly_ten_beyond(self):
        values = list(range(1, 101))  # 1..100
        value, pct = stats.tail(values)
        self.assertEqual(value, 90)
        self.assertEqual(sum(1 for v in values if v > value), 10)
        self.assertAlmostEqual(pct, 90.0)

    def test_order_does_not_matter(self):
        values = [float(v) for v in range(200, 0, -1)]
        value, pct = stats.tail(values)
        self.assertEqual(value, 190.0)
        self.assertAlmostEqual(pct, 95.0)

    def test_smallest_sample_with_a_tail(self):
        value, pct = stats.tail(list(range(11)))
        self.assertEqual(value, 0)
        self.assertAlmostEqual(pct, 100.0 / 11)

    def test_too_few_samples_fall_back_to_max(self):
        self.assertEqual(stats.tail([5, 1, 3]), (5, 100.0))


class BoundTest(unittest.TestCase):
    def test_worsening_direction(self):
        self.assertAlmostEqual(stats.worsening(100, 110, "lower"), 0.10)
        self.assertAlmostEqual(stats.worsening(100, 90, "lower"), -0.10)
        self.assertAlmostEqual(stats.worsening(100, 90, "higher"), 0.10)
        self.assertAlmostEqual(stats.worsening(100, 110, "higher"), -0.10)

    def test_bad_direction(self):
        with self.assertRaises(ValueError):
            stats.worsening(1, 2, "up")

    def test_agreeing_sets_pass(self):
        first = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        second = [101, 100, 100, 99, 101, 100, 102, 98, 100, 101]
        ok, d = stats.check_pair(first, second, 0.05, "lower")
        self.assertTrue(ok)
        self.assertLess(d["spread_first"], 0.05)

    def test_worse_median_fails(self):
        first = [100] * 10
        second = [120] * 10
        ok, d = stats.check_pair(first, second, 0.1, "lower")
        self.assertFalse(ok)
        self.assertAlmostEqual(d["worse_by"], 0.2)

    def test_much_better_median_fails(self):
        first = [100] * 10
        second = [60] * 10
        ok, d = stats.check_pair(first, second, 0.1, "lower")
        self.assertFalse(ok)
        self.assertAlmostEqual(d["worse_by"], -0.4)
        ok, _ = stats.check_pair([100] * 10, [140] * 10, 0.1, "higher")
        self.assertFalse(ok)

    def test_wide_spread_fails(self):
        first = [50, 150, 60, 140, 70, 130, 80, 120, 90, 110]
        ok, d = stats.check_pair(first, first, 0.1, "lower")
        self.assertFalse(ok)
        self.assertEqual(d["worse_by"], 0.0)


if __name__ == "__main__":
    unittest.main()
