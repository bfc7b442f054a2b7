"""Self-tests of the benchmark's own machinery.

    python3 bench/test_bench.py

They check the self-time arithmetic, the reference check's tolerance, and
the replay trace generator.  They are not part of the package's test suite.
"""
from __future__ import annotations

import json
import os
import sys
import unittest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import workloads                                       # noqa: E402
from spans import Recorder, Span, outermost, self_times  # noqa: E402


class SelfTimeTest(unittest.TestCase):

    def test_synthetic_nest(self):
        # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 7]
        a = Span("a", None, 0, 0.0, 10.0)
        b = Span("b", a, 0, 1.0, 4.0)
        c = Span("c", a, 0, 5.0, 9.0)
        d = Span("d", c, 0, 6.0, 7.0)
        got = self_times([d, b, c, a])
        self.assertEqual([got[id(s)] for s in (a, b, c, d)],
                         [3.0, 3.0, 3.0, 1.0])

    def test_same_layer_nesting_counts_once(self):
        outer = Span("eval", None, 0, 0.0, 2.0)
        inner = Span("eval", outer, 0, 0.5, 1.5)
        self.assertTrue(outermost(outer))
        self.assertFalse(outermost(inner))

    def test_recorder_parents_and_restores(self):
        class Box:
            def outer(self):
                return self.inner() + 1

            def inner(self):
                return 1

        rec = Recorder()
        rec.add("outer", Box, "outer")
        rec.add("inner", Box, "inner")
        rec.install()
        try:
            self.assertEqual(Box().outer(), 2)
        finally:
            rec.uninstall()
        inner, outer = rec.spans
        self.assertIs(inner.parent, outer)
        self.assertIsNone(outer.parent)
        self.assertNotIn("__wrapped__", vars(Box.__dict__["outer"]))


class ReferenceCheckTest(unittest.TestCase):

    REF = [0.25, 0.01, 4]

    def test_estimate_within_one_se_passes(self):
        self.assertTrue(workloads.estimate_ok([0.259, 0.02, 4], self.REF))

    def test_estimate_shifted_two_se_fails(self):
        self.assertFalse(workloads.estimate_ok([0.27, 0.01, 4], self.REF))
        self.assertFalse(workloads.estimate_ok([0.23, 0.01, 4], self.REF))

    def test_estimate_with_changed_n_fails(self):
        self.assertFalse(workloads.estimate_ok([0.25, 0.01, 5], self.REF))

    def _sweep_reference(self):
        with open(os.path.join(BENCH, "reference.json"), encoding="utf-8") as fh:
            return json.load(fh)["workloads"]["crs-sweep-1d"]["outputs"][0]

    def test_sweep_csv_one_byte_change_fails(self):
        ref = self._sweep_reference()
        attempted, failed = workloads.sweep_csv_failures(ref, ref)
        self.assertEqual((attempted, failed), (30, []))
        lines = ref.splitlines(keepends=True)
        row = next(i for i, ln in enumerate(lines) if ln.startswith("crs,"))
        # one byte in the n column, and one in the leading digit of a value
        fields = lines[row].split(",")
        fields[6] = "5" if fields[6] != "5" else "6"
        bad_n = "".join(lines[:row] + [",".join(fields)] + lines[row + 1:])
        _, failed = workloads.sweep_csv_failures(bad_n, ref)
        self.assertEqual(len(failed), 30)
        fields = lines[row].split(",")
        fields[4] = fields[4].replace("0.", "1.", 1)
        bad_value = "".join(lines[:row] + [",".join(fields)] + lines[row + 1:])
        _, failed = workloads.sweep_csv_failures(bad_value, ref)
        self.assertEqual(len(failed), 1)

    def test_sweep_csv_last_digit_within_se_passes(self):
        ref = self._sweep_reference()
        lines = ref.splitlines(keepends=True)
        row = next(i for i, ln in enumerate(lines) if ln.startswith("crs,"))
        fields = lines[row].split(",")
        digit = fields[4][-1]
        fields[4] = fields[4][:-1] + ("1" if digit != "1" else "2")
        near = "".join(lines[:row] + [",".join(fields)] + lines[row + 1:])
        self.assertEqual(workloads.sweep_csv_failures(near, ref)[1], [])

    def test_replay_csv_one_byte_change_fails(self):
        wl = workloads.ReplayWorkload.__new__(workloads.ReplayWorkload)
        ref = {"sha256": workloads.sha256("t_ms\n0,p00,1,0\n"),
               "actuation_ms": [6.0, None]}
        good = workloads.RoundResult(2, {
            "exit": 0, "sha256": workloads.sha256("t_ms\n0,p00,1,0\n"),
            "actuation_ms": [6.0, None], "skipped": [False, False]})
        self.assertEqual(wl.check(good, ref), (2, []))
        bad = workloads.RoundResult(2, dict(
            good.output, sha256=workloads.sha256("t_ms\n0,p00,1,1\n")))
        self.assertEqual(len(wl.check(bad, ref)[1]), 2)
        late = workloads.RoundResult(2, dict(good.output,
                                             actuation_ms=[12.0, None]))
        self.assertEqual(len(wl.check(late, ref)[1]), 1)


class TraceGeneratorTest(unittest.TestCase):

    def test_deterministic_per_seed(self):
        self.assertEqual(workloads.make_trace(4000), workloads.make_trace(4000))
        self.assertNotEqual(workloads.make_trace(4000),
                            workloads.make_trace(4001))

    def test_no_refused_frame(self):
        from crslab import control, fields
        lat = fields.make_lattice("hexagonal", 30.0, 60.0)
        beams = lat.beam_lines()
        servo = control.ServoSpec()
        for entry in range(workloads.POOL):
            for sample in workloads.make_trace(
                    workloads.ReplayWorkload.seed_base + entry):
                # raises exactly when run_session would refuse the frame
                control.compression_plan(control.render_target(sample),
                                         beams, servo)

    def test_visit_order_is_a_seeded_balanced_permutation(self):
        costs = [float(e) for e in range(workloads.POOL)]
        order = workloads.visit_order("replay-track", 7, costs)
        self.assertEqual(sorted(order), list(range(workloads.POOL)))
        self.assertEqual(order, workloads.visit_order("replay-track", 7, costs))
        self.assertNotEqual(order,
                            workloads.visit_order("replay-track", 8, costs))
        # each pair of rounds takes one stratum from each end of the range
        n_strata = workloads.POOL // workloads.STRATUM
        for a, b in zip(order[0::2], order[1::2]):
            self.assertEqual(a // workloads.STRATUM + b // workloads.STRATUM,
                             n_strata - 1)


if __name__ == "__main__":
    unittest.main()
