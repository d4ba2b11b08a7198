"""Tests for summarize.py: self time, per-call figures, campaign spans."""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import summarize  # noqa: E402


def span(name, sid, parent, start, end, tid=1, n=1):
    return {"name": name, "tid": tid, "start": float(start),
            "end": float(end), "id": sid, "parent": parent, "req": 0,
            "n": n}


class SelfTime(unittest.TestCase):
    def test_hand_built_tree(self):
        # root [0, 100] with children [10, 30] and [50, 60]; the first
        # child has a grandchild [15, 20].
        spans = [
            span("root", 1, 0, 0, 100),
            span("a", 2, 1, 10, 30),
            span("b", 3, 1, 50, 60),
            span("a.inner", 4, 2, 15, 20),
        ]
        selfs = summarize.self_times(spans)
        self.assertAlmostEqual(selfs[1], 100 - 20 - 10)
        self.assertAlmostEqual(selfs[2], 20 - 5)
        self.assertAlmostEqual(selfs[3], 10)
        self.assertAlmostEqual(selfs[4], 5)

    def test_overlapping_children_count_once(self):
        # Two pool threads' chunks overlap inside one campaign span.
        spans = [
            span("campaign", 1, 0, 0, 100),
            span("chunk", 2, 1, 0, 60, tid=2),
            span("chunk", 3, 1, 40, 90, tid=3),
        ]
        self.assertAlmostEqual(summarize.self_times(spans)[1], 10)

    def test_children_outside_the_parent_are_clipped(self):
        spans = [span("p", 1, 0, 10, 20), span("c", 2, 1, 5, 15)]
        self.assertAlmostEqual(summarize.self_times(spans)[1], 5)

    def test_by_name_sums_calls_and_times(self):
        spans = [
            span("loop", 1, 0, 0, 10, n=100),
            span("loop", 2, 0, 20, 40, n=100),
        ]
        count, calls, total, own = summarize.by_name(spans)["loop"]
        self.assertEqual((count, calls), (2, 200))
        self.assertAlmostEqual(total, 30)
        self.assertAlmostEqual(own, 30)


class Metrics(unittest.TestCase):
    def test_campaign_busy_share_and_merge(self):
        spans = [
            span("bench.campaign", 1, 0, 0, 100),
            span("runner.chunk", 2, 1, 0, 50, tid=2),
            span("runner.chunk", 3, 1, 0, 90, tid=3),
        ]
        busy, merge = summarize.campaign_stats(spans)
        self.assertAlmostEqual(busy, 140 / 200)
        self.assertAlmostEqual(merge, 10)

    def test_per_call_and_counter_metrics(self):
        spans = [
            span("crypto.Qarma64::encrypt", 1, 0, 0, 2000, n=1000),
            span("attack.PacOracle::probeMisses.data", 2, 0, 0, 1e6),
        ]
        counters = {"cpu.probe_insts.data": 5e7,
                    "bench.items_per_s_untraced": 100.0,
                    "bench.items_per_s_traced": 95.0}
        m = summarize.per_layer_metrics(spans, counters)
        self.assertAlmostEqual(m["crypto.qarma_ns"][0], 2000.0)
        self.assertAlmostEqual(m["cpu.guest_mips"][0], 50.0)
        self.assertAlmostEqual(m["trace.overhead_share"][0], 0.05)
        # Layers the run did not exercise read zero, not an error.
        self.assertEqual(m["runner.queue_peak"][0], 0.0)

    def test_load_reads_chrome_trace_events(self):
        doc = {"traceEvents": [
            {"name": "x", "ph": "X", "pid": 1, "tid": 4, "ts": 1.5,
             "dur": 2.0, "args": {"id": 7, "parent": 0, "req": 3, "n": 2}},
        ], "otherData": {"counters": {"k": 1.0}}}
        with tempfile.NamedTemporaryFile("w", suffix=".json",
                                         dir=os.getcwd(),
                                         delete=False) as f:
            json.dump(doc, f)
        try:
            spans, counters = summarize.load(f.name)
        finally:
            os.remove(f.name)
        self.assertEqual(counters, {"k": 1.0})
        self.assertEqual(spans[0]["id"], 7)
        self.assertEqual(spans[0]["req"], 3)
        self.assertAlmostEqual(spans[0]["end"], 3.5)


if __name__ == "__main__":
    unittest.main()
