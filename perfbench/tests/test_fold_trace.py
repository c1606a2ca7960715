"""fold_trace on hand-made traces with known self times.

    python3 -m unittest discover -s perfbench/tests
"""
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import fold_trace  # noqa: E402


def ev(name, cat, ts, dur, tid=1):
    return {"name": name, "cat": cat, "ph": "X", "ts": ts, "dur": dur, "pid": 1, "tid": tid}


class FoldTraceTest(unittest.TestCase):
    def test_self_times_and_unattributed(self):
        # Lane 1: root [0,100) holds kernel [10,50) which holds solver [20,30),
        # and tdf [60,90).  Lane 2: a worker span with no root.
        trace = {"traceEvents": [
            ev("bench.root", "bench", 0, 100),
            ev("kernel.run", "kernel", 10, 40),
            ev("dae.step", "solver", 20, 10),
            ev("tdf.cluster.cycles", "tdf", 60, 30),
            ev("snapshot.save", "snapshot", 5, 2, tid=2),
        ], "otherData": {"dropped": 0}}
        r = fold_trace.fold(trace)
        self.assertAlmostEqual(r["layers"]["unattributed"], 30.0)
        self.assertAlmostEqual(r["layers"]["kernel"], 30.0)
        self.assertAlmostEqual(r["layers"]["solver"], 10.0)
        self.assertAlmostEqual(r["layers"]["tdf"], 30.0)
        self.assertAlmostEqual(r["layers"]["core.snapshot"], 2.0)
        self.assertAlmostEqual(r["wall_us"], 100.0)
        self.assertAlmostEqual(r["unattributed_frac"], 0.3)
        self.assertEqual(r["events"], 5)
        self.assertAlmostEqual(r["names"]["kernel.run"], 30.0)

    def test_unsorted_input_and_back_to_back_siblings(self):
        # Siblings that touch (end == next start) are not nested; input order
        # does not matter.
        trace = {"traceEvents": [
            ev("b", "tdf", 50, 50),
            ev("root", "bench", 0, 100),
            ev("a", "kernel", 0, 50),
        ]}
        r = fold_trace.fold(trace)
        self.assertAlmostEqual(r["layers"]["kernel"], 50.0)
        self.assertAlmostEqual(r["layers"]["tdf"], 50.0)
        self.assertAlmostEqual(r["layers"].get("unattributed", 0.0), 0.0)
        self.assertEqual(r["dropped"], 0)

    def test_reads_file_dropped_count_and_overhead(self):
        trace = {"traceEvents": [ev("root", "bench", 0, 10)],
                 "otherData": {"dropped": 7, "overhead_frac": 0.5}}
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "t.json")
            with open(path, "w") as f:
                json.dump(trace, f)
            r = fold_trace.fold_file(path)
        self.assertEqual(r["dropped"], 7)
        self.assertAlmostEqual(r["unattributed_frac"], 1.0)
        self.assertAlmostEqual(r["overhead_frac"], 0.5)
        table = fold_trace.format_table(r)
        self.assertIn("unattributed", table)
        self.assertIn("trace.overhead_frac 0.5000", table)


if __name__ == "__main__":
    unittest.main()
