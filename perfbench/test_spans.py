"""Tests of the benchmark's span reader and timing statistics.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import struct
import tempfile
import unittest

import spans
from spans import Span

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              os.pardir, "BENCHMARK.json")


def span(id_, parent, start, end, name="x", count=0, req=0):
    return Span(id_, parent, req, start, end, name, count)


class SelfTimeTest(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(spans.self_times([span(1, 0, 10, 25)]), {1: 15})

    def test_children_are_subtracted(self):
        s = [span(1, 0, 0, 100), span(2, 1, 10, 30), span(3, 1, 50, 60)]
        self.assertEqual(spans.self_times(s)[1], 100 - 20 - 10)

    def test_overlapping_children_count_once(self):
        # Two worker cells under one grid overlap in time.
        s = [span(1, 0, 0, 100), span(2, 1, 10, 60), span(3, 1, 40, 90)]
        self.assertEqual(spans.self_times(s)[1], 100 - 80)

    def test_child_outside_parent_is_clipped(self):
        s = [span(1, 0, 0, 100), span(2, 1, 90, 150)]
        self.assertEqual(spans.self_times(s)[1], 90)

    def test_grandchildren_only_reduce_their_parent(self):
        s = [span(1, 0, 0, 100), span(2, 1, 0, 50), span(3, 2, 0, 40)]
        st = spans.self_times(s)
        self.assertEqual((st[1], st[2], st[3]), (50, 10, 40))

    def test_layer_table_sums_per_name(self):
        s = [span(1, 0, 0, 100, "cell"), span(2, 1, 0, 30, "onBatch", 7),
             span(3, 1, 40, 60, "onBatch", 5)]
        t = spans.layer_table(s)
        self.assertEqual(t["onBatch"], {"n": 2, "total_ns": 50,
                                        "self_ns": 50, "count": 12})
        self.assertEqual(t["cell"]["self_ns"], 50)


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        v = list(range(1, 101))
        self.assertEqual(spans.percentile(v, 50), 50)
        self.assertEqual(spans.percentile(v, 90), 90)
        self.assertEqual(spans.percentile(v, 99), 99)
        self.assertEqual(spans.percentile(v, 100), 100)

    def test_samples_beyond(self):
        self.assertEqual(spans.beyond(1000, 99), 10)
        self.assertEqual(spans.beyond(999, 99), 9)
        self.assertEqual(spans.beyond(1100, 99), 11)
        self.assertEqual(spans.beyond(100, 90), 10)

    def test_highest_supported_percentile(self):
        self.assertIsNone(spans.highest_percentile(19))
        self.assertEqual(spans.highest_percentile(20), 50.0)
        self.assertEqual(spans.highest_percentile(99), 50.0)
        self.assertEqual(spans.highest_percentile(100), 90.0)
        self.assertEqual(spans.highest_percentile(999), 90.0)
        self.assertEqual(spans.highest_percentile(1000), 99.0)
        self.assertEqual(spans.highest_percentile(10000), 99.9)
        self.assertEqual(spans.highest_percentile(100000), 99.99)

    def test_summary_reports_count_median_and_top(self):
        t = spans.summarize([float(x) for x in range(1, 1001)])
        self.assertEqual(t["n"], 1000)
        self.assertEqual(t["median"], 500.5)
        self.assertEqual((t["top_p"], t["top"]), (99.0, 990.0))

    def test_summary_without_supported_percentile(self):
        t = spans.summarize([3.0, 1.0, 2.0])
        self.assertEqual((t["median"], t["top_p"], t["top"]), (2.0, None,
                                                               None))


class TraceFileTest(unittest.TestCase):
    def write_trace(self, header, records):
        fd, path = tempfile.mkstemp()
        with os.fdopen(fd, "wb") as f:
            f.write((json.dumps(header) + "\n").encode())
            for r in records:
                f.write(struct.pack("<7Q", *r))
        self.addCleanup(os.remove, path)
        return path

    def test_round_trip_and_metrics(self):
        names = ["", "bench.grid", "engine.cell", "probe.onBatch",
                 "bench.grid_untraced"]
        header = {"names": names, "counters": {"engine.workers": 2},
                  "samples": {}, "spans": 5}
        recs = [
            (1, 0, 0, 0, 1000, 1, 0),      # traced grid
            (2, 1, 0, 0, 600, 2, 0),       # cell on worker A
            (3, 1, 1, 100, 900, 2, 0),     # cell on worker B (last start)
            (4, 0, 0, 2000, 2200, 3, 100),  # probe: 200 ns for 100 events
            (5, 0, 1, 3000, 3800, 4, 0),   # untraced grid
        ]
        hdr, s = spans.load(self.write_trace(header, recs))
        self.assertEqual(len(s), 5)
        m = spans.per_layer_metrics(hdr, s)
        with open(BENCHMARK_JSON) as f:
            declared = [x["name"] for x in json.load(f)["per_layer"]]
        self.assertEqual(sorted(m), sorted(declared))
        self.assertAlmostEqual(m["core.onbatch_ns_per_event"], 2.0)
        self.assertAlmostEqual(m["engine.busy_pct"],
                               100.0 * 1400 / (2 * 1000))
        # Last cell started at 100; the first cell ending after that ended
        # at 600, so the grid's tail is 1000 - 600 ns.
        self.assertAlmostEqual(m["engine.tail_s"], 400e-9)
        self.assertAlmostEqual(m["bench.trace_overhead_pct"],
                               100.0 * (1000 / 800 - 1))
        self.assertEqual(m["mssp.run_ns_per_inst"], 0.0)

    def test_truncated_file_is_rejected(self):
        header = {"names": [""], "counters": {}, "samples": {}, "spans": 2}
        path = self.write_trace(header, [(1, 0, 0, 0, 1, 0, 0)])
        with self.assertRaises(ValueError):
            spans.load(path)


if __name__ == "__main__":
    unittest.main()
