"""Self-checks for the benchmark's tracer, on the tiny ``table --group A2``.

Run from the repository root::

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

ARGV = ("table", "--group", "A2", "--format", "json")


class SpanTreeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.plain = run.run_child([sys.executable, "-m", "qkline.cli", *ARGV], 120)
        cls.traced = run.run_child(run.traced_cmd(ARGV, record=True), 120)
        cls.payload = run.trace_payload(cls.traced)
        cls.spans = cls.payload["spans"]

    def test_traced_output_is_byte_identical(self):
        self.assertEqual(self.plain.exit_code, 0)
        self.assertEqual(self.traced.exit_code, 0)
        self.assertTrue(self.plain.stdout)
        self.assertEqual(self.traced.sha256, self.plain.sha256)

    def test_single_root_is_cli_main(self):
        roots = [s for s in self.spans if s[3] == -1]
        self.assertEqual([r[0] for r in roots], ["cli.main"])
        self.assertGreater(len(self.spans), 100)

    def test_children_lie_inside_their_parent(self):
        for name, start, end, parent, _ in self.spans:
            self.assertLessEqual(start, end, name)
            if parent >= 0:
                p = self.spans[parent]
                self.assertLessEqual(p[1], start, name)
                self.assertLessEqual(end, p[2], name)

    def test_self_times_are_exact(self):
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for i, (name, start, end, _, self_ns) in enumerate(self.spans):
            self.assertGreaterEqual(self_ns, 0, name)
            self.assertEqual(self_ns, end - start - child_ns[i], name)
        root = next(s for s in self.spans if s[3] == -1)
        self.assertEqual(sum(s[4] for s in self.spans), root[2] - root[1])

    def test_aggregates_match_spans(self):
        for layer, stat in self.payload["layers"].items():
            mine = [s for s in self.spans if s[0] == layer]
            self.assertEqual(stat["calls"], len(mine), layer)
            self.assertEqual(stat["self_ns"], sum(s[4] for s in mine), layer)

    def test_same_layer_nesting_is_folded(self):
        for name, _, _, parent, _ in self.spans:
            if parent >= 0:
                self.assertNotEqual(self.spans[parent][0], name)


class PercentileTest(unittest.TestCase):
    def test_p_hi_keeps_ten_samples_beyond(self):
        self.assertEqual(run.percentiles_ms([]), (0.0, 0.0, 0.0))
        self.assertEqual(run.percentiles_ms([1_000_000] * 19)[2], 50.0)
        self.assertEqual(run.percentiles_ms(list(range(100)))[2], 90.0)
        p50, p_hi, pct = run.percentiles_ms([i * 1_000_000 for i in range(1000)])
        self.assertEqual((p50, p_hi, pct), (499.0, 989.0, 99.0))


if __name__ == "__main__":
    unittest.main()
