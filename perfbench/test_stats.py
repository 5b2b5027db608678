"""Self-tests of the benchmark's percentile and bound arithmetic.

    python3 perfbench/test_stats.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class NearestRankTest(unittest.TestCase):
    def test_ranks(self):
        self.assertEqual(stats.nearest_rank(100, 50), 50)
        self.assertEqual(stats.nearest_rank(100, 99), 99)
        self.assertEqual(stats.nearest_rank(20, 50), 10)
        self.assertEqual(stats.nearest_rank(21, 50), 11)
        self.assertEqual(stats.nearest_rank(1, 1), 1)
        self.assertEqual(stats.nearest_rank(7, 100), 7)

    def test_exact_for_awkward_products(self):
        # 0.07 * 100 is 7.000000000000001 in floating point; the rank of
        # p7 among 100 samples is still 7.
        self.assertEqual(stats.nearest_rank(100, 7), 7)
        self.assertEqual(stats.nearest_rank(1000, 99.9), 999)

    def test_rejects_bad_input(self):
        with self.assertRaises(stats.NotPublishable):
            stats.nearest_rank(0, 50)
        with self.assertRaises(ValueError):
            stats.nearest_rank(10, 0)
        with self.assertRaises(ValueError):
            stats.nearest_rank(10, 101)


class PercentileTest(unittest.TestCase):
    def test_value_is_a_sample(self):
        values = list(range(100, 0, -1))  # Unsorted on purpose.
        self.assertEqual(stats.percentile(values, 50), (50, 100, 50))
        self.assertEqual(stats.percentile(values, 90), (90, 100, 10))

    def test_needs_ten_beyond(self):
        values = [float(v) for v in range(100)]
        with self.assertRaises(stats.NotPublishable):
            stats.percentile(values, 99)  # Only one sample beyond.
        stats.percentile(values + values * 9, 99)  # 1000 samples: ten beyond.
        with self.assertRaises(stats.NotPublishable):
            stats.percentile(list(range(19)), 50)
        self.assertEqual(stats.percentile(list(range(1, 21)), 50), (10, 20, 10))

    def test_custom_floor(self):
        self.assertEqual(stats.percentile([3, 1, 2], 50, min_beyond=1),
                         (2, 3, 1))


class BoundTest(unittest.TestCase):
    def test_spread_matches_quantiles(self):
        values = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
        # statistics.quantiles (exclusive): q1 = 11.75, q3 = 17.25.
        self.assertAlmostEqual(stats.spread(values), 5.5 / 14.5)
        self.assertEqual(stats.spread([5.0] * 10), 0.0)

    def test_worsening_direction(self):
        self.assertAlmostEqual(stats.worsening(100, 110, "lower"), 0.10)
        self.assertAlmostEqual(stats.worsening(100, 90, "lower"), -0.10)
        self.assertAlmostEqual(stats.worsening(100, 90, "higher"), 0.10)
        self.assertAlmostEqual(stats.worsening(100, 110, "higher"), -0.10)
        with self.assertRaises(ValueError):
            stats.worsening(1, 2, "faster")

    def test_within_bound(self):
        self.assertTrue(stats.within_bound(100, 109.9, "lower", 0.10))
        self.assertFalse(stats.within_bound(100, 110.1, "lower", 0.10))
        self.assertTrue(stats.within_bound(100, 90.1, "higher", 0.10))
        self.assertFalse(stats.within_bound(100, 89.9, "higher", 0.10))
        self.assertTrue(stats.within_bound(100, 50, "lower", 0.0))


if __name__ == "__main__":
    unittest.main()
