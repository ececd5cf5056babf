"""Self-tests for the benchmark's statistics.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import stats


class PercentileTest(unittest.TestCase):
    def test_reported_only_with_ten_samples_beyond(self):
        # p99 of 1000 samples has exactly 10 beyond it; of 999, only 9.
        self.assertEqual(stats.samples_beyond(1000, 0.99), 10)
        self.assertEqual(stats.percentile(list(range(1, 1001)), 0.99), 990)
        self.assertEqual(stats.samples_beyond(999, 0.99), 9)
        self.assertIsNone(stats.percentile(list(range(999)), 0.99))

    def test_median_needs_twenty_samples(self):
        self.assertIsNone(stats.percentile(list(range(19)), 0.5))
        self.assertEqual(stats.percentile(list(range(1, 21)), 0.5), 10)

    def test_order_does_not_matter(self):
        values = list(range(100, 0, -1))
        self.assertEqual(stats.percentile(values, 0.5), 50)
        self.assertEqual(stats.percentile(values, 0.9), 90)


class AccountingTest(unittest.TestCase):
    def test_failures_count_against_attempts(self):
        totals = stats.account([{"attempted": 10, "failed": 2},
                                {"attempted": 5, "failed": 1}])
        self.assertEqual(totals, {"attempted": 15, "failed": 3,
                                  "correct": 12})

    def test_more_failures_than_attempts_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.account([{"attempted": 1, "failed": 2}])

    def test_rate_counts_only_correct_responses(self):
        totals = stats.account([{"attempted": 100, "failed": 20}])
        self.assertEqual(stats.rate(totals["correct"], 2.0), 40.0)
        self.assertEqual(stats.rate(5, 0), 0.0)


class LadderTest(unittest.TestCase):
    RUNGS = {"orchestrator.run_us": 18.0, "wfd.reset_us": 1.0,
             "visor.invoke_us": 26.0, "router.dispatch_us": 60.0,
             "http.roundtrip_us": 115.0}

    def test_marginals(self):
        m = stats.marginals(self.RUNGS)
        self.assertAlmostEqual(m["visor.marginal_us"], 7.0)
        self.assertAlmostEqual(m["router.marginal_us"], 34.0)
        self.assertAlmostEqual(m["http.marginal_us"], 55.0)

    def test_marginals_add_up_to_the_top_rung(self):
        m = stats.marginals(self.RUNGS)
        self.assertAlmostEqual(stats.ladder_sum(self.RUNGS, m), 115.0)

    def test_medians_are_taken_across_launches(self):
        # A bimodal rung: launches sit at ~6 us or ~18 us. The value is the
        # median of the launch medians, and the spread shows both modes.
        launch_medians = [6.1, 18.2, 17.9, 6.0, 18.4]
        value, spread = stats.across_launches(launch_medians)
        self.assertEqual(value, 17.9)
        self.assertAlmostEqual(spread, 12.4)

    def test_launches_without_the_metric_are_skipped(self):
        self.assertEqual(stats.across_launches([None, 3.0, 5.0]), (4.0, 2.0))
        self.assertEqual(stats.across_launches([]), (None, None))


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_the_union_of_children(self):
        spans = [
            {"id": 1, "parent": None, "start": 0, "dur": 100},
            # Two parallel children overlapping on [20, 30): union is 40.
            {"id": 2, "parent": 1, "start": 10, "dur": 20},
            {"id": 3, "parent": 1, "start": 20, "dur": 30},
            # A child running past its parent is clipped.
            {"id": 4, "parent": 1, "start": 90, "dur": 50},
        ]
        selfs = stats.self_times(spans)
        self.assertEqual(selfs[1], 100 - 40 - 10)
        self.assertEqual(selfs[2], 20)
        self.assertEqual(selfs[4], 50)


if __name__ == "__main__":
    unittest.main()
