"""Unit tests for perfbench/stats.py.

  python3 -m unittest discover -s perfbench/tests
"""

import statistics
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import stats  # noqa: E402


class MedianQuartiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_quartiles_match_statistics_quantiles(self):
        xs = [0.31, 0.29, 0.35, 0.30, 0.33, 0.28, 0.40, 0.32, 0.30, 0.34]
        q1, q2, q3 = statistics.quantiles(xs, n=4)
        self.assertEqual(stats.quartiles(xs), (q1, q2, q3))
        self.assertAlmostEqual(stats.spread(xs), (q3 - q1) / stats.median(xs))

    def test_single_sample(self):
        self.assertEqual(stats.quartiles([5.0]), (5.0, 5.0, 5.0))
        self.assertEqual(stats.spread([5.0]), 0.0)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.median([])
        with self.assertRaises(ValueError):
            stats.quartiles([])


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        xs = list(range(1, 101))  # 1..100
        self.assertEqual(stats.percentile(xs, 50), 50)
        self.assertEqual(stats.percentile(xs, 90), 90)
        self.assertEqual(stats.percentile(xs, 99), 99)
        self.assertEqual(stats.percentile(xs, 0), 1)

    def test_tail_needs_ten_samples_beyond(self):
        # 100 samples: p90 has exactly 10 beyond it, p99 only 1.
        self.assertEqual(stats.tail_percentile(list(range(100))), (90.0, 89))
        # 1000 samples: p99 has 10 beyond it, p99.9 only 1.
        self.assertEqual(stats.tail_percentile(list(range(1000)))[0], 99.0)
        # 20 samples: only the median qualifies.
        self.assertEqual(stats.tail_percentile(list(range(20)))[0], 50.0)
        # 19 samples: nothing has ten beyond it.
        self.assertIsNone(stats.tail_percentile(list(range(19))))


class PairsAndVerdict(unittest.TestCase):
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.01, 0.99]

    def test_pair_wins_ignore_ties(self):
        self.assertEqual(stats.pair_wins([1, 2, 3], [0, 2, 4], "lower"),
                         (1, 1))
        self.assertEqual(stats.pair_wins([1, 2, 3], [0, 2, 4], "higher"),
                         (1, 1))

    def test_improved_needs_nine_of_ten_and_a_gap(self):
        faster = [x * 0.8 for x in self.parent]
        self.assertEqual(stats.verdict(self.parent, faster, "lower", 0.1),
                         "improved")
        # Eight wins of ten is not enough, even with a large gap.
        mixed = faster[:8] + [2.0, 2.0]
        self.assertNotEqual(stats.verdict(self.parent, mixed, "lower", 0.1),
                            "improved")
        # Ten wins but a gap inside the parent's quartile spread.
        tiny = [x - 0.001 for x in self.parent]
        self.assertEqual(stats.verdict(self.parent, tiny, "lower", 0.1),
                         "unchanged")

    def test_improved_needs_ten_pairs(self):
        self.assertEqual(stats.verdict(self.parent[:9],
                                       [x * 0.5 for x in self.parent[:9]],
                                       "lower", 0.1), "unchanged")

    def test_regressed_beyond_bound(self):
        slower = [x * 1.2 for x in self.parent]
        self.assertEqual(stats.verdict(self.parent, slower, "lower", 0.1),
                         "regressed")
        self.assertEqual(stats.verdict(self.parent, slower, "lower", 0.25),
                         "unchanged")

    def test_higher_is_better(self):
        more = [x * 1.3 for x in self.parent]
        self.assertEqual(stats.verdict(self.parent, more, "higher", 0.1),
                         "improved")
        less = [x * 0.8 for x in self.parent]
        self.assertEqual(stats.verdict(self.parent, less, "higher", 0.1),
                         "regressed")

    def test_noisy_parent_is_unresolved(self):
        noisy = [1.0, 1.5, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1]
        same = list(noisy)
        self.assertEqual(stats.verdict(noisy, same, "lower", 0.1),
                         "unresolved")
        # ...unless every change run beats every parent run.
        self.assertEqual(stats.verdict(noisy, [0.4] * 10, "lower", 0.1),
                         "improved")
        self.assertEqual(stats.verdict(noisy, [0.55, 0.5] * 4, "lower", 0.1),
                         "unchanged")


if __name__ == "__main__":
    unittest.main()
