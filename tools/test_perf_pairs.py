#!/usr/bin/env python3
"""Self-test of tools/perf_pairs.py's result parsing and summary on canned
perfbench result lines (runs nothing):

    python3 tools/test_perf_pairs.py
"""
import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import perf_pairs  # noqa: E402


def result(wall, eps, setup=0.1, rss=100.0, correct=True, failed=0):
    metrics = {
        "wall_s": {"value": wall, "unit": "s"},
        "events_per_s": {"value": eps, "unit": "1/s"},
        "setup_s": {"value": setup, "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
        "sim.events": {"value": 1000, "unit": "count"},
    }
    return {"correct": correct, "attempted": 10, "failed": failed, "metrics": metrics}


def stdout_of(obj):
    return "metric wall_s 3.5 s\n" + json.dumps(obj) + "\n"


class ResultLineTest(unittest.TestCase):
    def test_last_result_line_wins(self):
        text = stdout_of(result(1.0, 5.0)) + json.dumps(result(2.0, 6.0)) + "\n"
        self.assertEqual(perf_pairs.value(perf_pairs.result_of(text), "wall_s"), 2.0)

    def test_lines_without_metrics_are_skipped(self):
        text = stdout_of(result(1.0, 5.0)) + '{"note": 1}\nnot json\n'
        self.assertEqual(perf_pairs.value(perf_pairs.result_of(text), "events_per_s"), 5.0)

    def test_no_result_line(self):
        self.assertIsNone(perf_pairs.result_of("build failed\n"))


class ProblemsTest(unittest.TestCase):
    def test_clean_run(self):
        self.assertEqual(perf_pairs.problems(result(1.0, 5.0)), [])

    def test_missing_incorrect_and_failed_runs(self):
        self.assertEqual(perf_pairs.problems(None), ["no result line"])
        self.assertEqual(perf_pairs.problems(result(1.0, 5.0, correct=False)), ["not correct"])
        self.assertEqual(perf_pairs.problems(result(1.0, 5.0, failed=3)), ["3 failed"])


class SummaryTest(unittest.TestCase):
    def pairs(self):
        # (seed, first, parent, change): change is 2x faster on every pair;
        # its setup_s wins one pair, loses one and ties one.
        return [(1, "parent", result(4.0, 1.0e6, rss=200.0),
                 result(2.0, 2.0e6, setup=0.09, rss=100.0)),
                (2, "change", result(3.0, 0.8e6, rss=210.0),
                 result(1.5, 1.6e6, setup=0.11, rss=110.0)),
                (3, "parent", result(5.0, 1.2e6, rss=190.0), result(2.5, 2.4e6, rss=90.0))]

    def test_one_row_per_pair_then_medians_and_ratios(self):
        lines = perf_pairs.summary(self.pairs())
        self.assertEqual(len(lines), 1 + 3 + 4)
        for metric in perf_pairs.END_TO_END:
            self.assertIn(metric, lines[0])
        self.assertTrue(lines[2].split()[:3] == ["2", "2", "change"])
        self.assertIn("3 / 1.5", lines[2])
        self.assertIn("4 / 2", lines[4])          # wall_s medians
        self.assertIn("1e+06 / 2e+06", lines[4])  # events_per_s medians
        ratios = lines[5].split()
        self.assertEqual(ratios[0], "change/parent")
        self.assertEqual(ratios[1:], ["0.5", "2", "1", "0.5"])

    def test_parent_quartiles_and_pairs_won(self):
        lines = perf_pairs.summary(self.pairs())
        self.assertTrue(lines[6].startswith("parent Q1 .. Q3"))
        # Parent wall_s (4, 3, 5), events_per_s (1, 0.8, 1.2) M and
        # peak_rss_mb (200, 210, 190): Q1 and Q3 halfway to the extremes.
        self.assertEqual(lines[6].split()[4:], ["3.5", "..", "4.5", "9e+05", "..", "1.1e+06",
                                                "0.1", "..", "0.1", "195", "..", "205"])
        # A win is a lower wall_s, setup_s and peak_rss_mb but a higher
        # events_per_s (BENCHMARK.json's `better`); a tie is no win.
        self.assertTrue(lines[7].startswith("change won"))
        self.assertEqual(lines[7].split()[2:], ["3/3", "lower", "3/3", "higher",
                                                "1/3", "lower", "3/3", "lower"])

    def test_missing_side_shows_a_dash(self):
        pairs = self.pairs()
        pairs[1] = (2, "change", None, pairs[1][3])
        lines = perf_pairs.summary(pairs)
        self.assertIn("- / 1.5", lines[2])
        # Medians come from the runs that reported: (4, 5) -> 4.5 vs (2, 1.5, 2.5) -> 2.
        self.assertIn("4.5 / 2", lines[4])
        # So do the quartiles, and only pairs with both sides count as won.
        self.assertEqual(lines[6].split()[4:7], ["4.25", "..", "4.75"])
        self.assertEqual(lines[7].split()[2:4], ["2/2", "lower"])


if __name__ == "__main__":
    unittest.main()
