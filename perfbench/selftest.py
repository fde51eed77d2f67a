#!/usr/bin/env python3
"""Self-test of the benchmark harness: ``python3 perfbench/selftest.py``.

It checks that the output gate and the deadline count failures, that the
traced run repeats its counts and passes the same gate, that the wrappers
come off cleanly, and that each workload's tail percentile leaves ten samples
beyond it and is the highest that does, unless ``design.json`` records the
departure.
"""

from __future__ import annotations

import unittest

import run

run.import_library()

import spans  # noqa: E402  (needs adjvar on the path)
import workloads  # noqa: E402
from adjvar import adjoint, bipoly, weylgroup  # noqa: E402

SEED = run.DESIGN["default_seed"]


def pick(workload, ids):
    items = {item.id: item for item in workloads.build(workload, SEED)}
    return [items[i] for i in ids]


class GateTest(unittest.TestCase):
    def test_corrupted_reference_entry_is_a_failed_item(self):
        items = pick("adjoint_table", ["section4_row:G2", "section4_row:F4"])
        reference = run.load_reference()
        runner = run.Runner("adjoint_table", items, reference)
        runner.run_pass()
        self.assertEqual(runner.failures, [])

        reference = dict(reference, **{"section4_row:F4": "0" * 16})
        runner = run.Runner("adjoint_table", items, reference)
        runner.run_pass()
        self.assertEqual([i for i, _ in runner.failures], ["section4_row:F4"])
        self.assertGreater(len(runner.failures) / runner.attempted, 0)
        self.assertFalse(runner.correct)

    def test_wrong_answer_fails_the_independent_check(self):
        (item,) = pick("fol_refute", [f"integrable:euler22_n2@{SEED}"])
        item.call = lambda: True
        runner = run.Runner("fol_refute", [item], reference={})
        runner.run_pass()
        self.assertEqual(len(runner.failures), 1)


class DeadlineTest(unittest.TestCase):
    def test_item_over_its_deadline_fails_and_the_run_continues(self):
        items = pick("adjoint_table", ["section4_row:E8", "section4_row:G2"])
        runner = run.Runner("adjoint_table", items, run.load_reference())
        runner.deadline_s = 0.05
        runner.run_pass()
        self.assertEqual(runner.attempted, 2)
        self.assertEqual([i for i, _ in runner.failures], ["section4_row:E8"])
        self.assertIn("deadline", runner.failures[0][1])
        self.assertFalse(runner.correct)

    def test_known_failing_item_runs_once_outside_the_timed_passes(self):
        known = f"has_divisorial_singularities:log3_n2@{SEED}"
        items = pick("fol_confirm", [known, "integrable:pencil_n2"])
        runner = run.Runner("fol_confirm", items, reference={})
        runner.deadline_s = 0.2
        runner.run_known_failing()
        latencies = runner.run_pass()
        self.assertEqual(len(latencies), 1)
        self.assertEqual(runner.attempted, 2)
        self.assertEqual([i for i, _ in runner.failures], [known])
        self.assertTrue(runner.correct)


class TraceTest(unittest.TestCase):
    def traced_pass(self, runner):
        recorder = spans.Recorder()
        installed = spans.Installation(recorder)
        try:
            runner.run_pass(recorder)
        finally:
            installed.remove()
        return recorder, spans.layer_metrics(*recorder.take_pass(), run.PER_LAYER)

    def test_counts_repeat_and_traced_outputs_pass_the_gate(self):
        items = pick("adjoint_table", ["section4_row:G2", "section4_row:B3"])
        items += workloads.build("bbw_sweep", SEED)[:300]
        items += pick("fol_confirm", ["integrable:pencil_n2", "has_divisorial_singularities:log4_n2"])
        runner = run.Runner("adjoint_table", items, run.load_reference())
        recorder, first = self.traced_pass(runner)
        _, second = self.traced_pass(runner)
        self.assertEqual(runner.failures, [])
        counts = {k: v for k, v in first.items() if not k.endswith("self_s")}
        self.assertEqual(counts, {k: second[k] for k in counts})
        self.assertEqual(first["adjoint.decompositions_per_row"], 3)
        for name in ("bbw.cohomology.calls", "bipoly.mul.calls", "bipoly.mul.term_pairs",
                     "weylgroup.simple_reflection.calls", "rootsystem.root_half_norms.calls"):
            self.assertGreater(first[name], 0, name)
        names = {s[0] for s in recorder.spans}
        self.assertIn("adjoint.section4_row", names)
        self.assertNotIn("bipoly.mul", names)  # a leaf, aggregated on its caller

    def test_self_time_excludes_child_spans(self):
        items = pick("adjoint_table", ["section4_row:G2"])
        recorder, metrics = self.traced_pass(run.Runner("adjoint_table", items, {}))
        rows = [s for s in recorder.spans if s[0] == "adjoint.section4_row"]
        self.assertEqual(len(rows), 1)
        total = sum(metrics[f"{m}.self_s"] for m in spans.MODULES)
        self.assertLessEqual(total, rows[0][2] - rows[0][1] + 1e-6)

    def test_wrappers_come_off(self):
        before = (adjoint.square_decompose, weylgroup.simple_reflection,
                  bipoly.BiPoly.__mul__, bipoly.BiPoly.__dict__["__rmul__"])
        installed = spans.Installation(spans.Recorder())
        self.assertIsNot(adjoint.square_decompose, before[0])
        installed.remove()
        after = (adjoint.square_decompose, weylgroup.simple_reflection,
                 bipoly.BiPoly.__mul__, bipoly.BiPoly.__dict__["__rmul__"])
        self.assertEqual(before, after)


class DesignTest(unittest.TestCase):
    def test_tail_percentile_is_the_highest_with_ten_samples_beyond_it(self):
        """Unless design.json records the departure as a tail_note."""
        for name, spec in run.DESIGN["workloads"].items():
            runner = run.Runner(name, workloads.build(name, SEED), {})
            self.assertEqual(len(runner.items), spec["items_per_pass"], name)
            samples = len(runner.items) * spec["min_passes"]
            p = spec["tail_percentile"]
            self.assertGreaterEqual(samples - run.percentile_rank(p, samples), 10, name)
            if "departure" not in spec.get("tail_note", ""):
                self.assertLess(samples - run.percentile_rank(p + 0.1, samples), 10, name)


if __name__ == "__main__":
    unittest.main(verbosity=2)
