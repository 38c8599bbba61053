"""Tests of the benchmark itself (stdlib unittest; pytest collects them too).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import os
import random
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

CLI = worker.import_cli()


def run_op(op):
    _, outs, error = worker.execute(CLI, op)
    assert error is None, error
    return outs


def replace_doc(outs, index, edit):
    """outs with document ``index`` parsed, edited in place, and re-rendered."""
    rc, out, err = outs[index]
    doc = json.loads(out)
    edit(doc)
    changed = list(outs)
    changed[index] = (rc, json.dumps(doc, indent=2) + "\n", err)
    return changed


class CheckerTests(unittest.TestCase):
    def setUp(self) -> None:
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def analyze_op(self, k: int, n: int):
        rows = workloads.random_spanning_code(random.Random(7), k, n)
        op = workloads.analyze_op(os.path.join(self.tmp.name, "code.gen"), rows, n)
        worker.write_inputs([op])
        return op

    def test_analyze_accepts_program_output_and_rejects_a_changed_count(self):
        for k, n in ((8, 12), (6, 20)):  # dual enumerated by the checker, and not
            op = self.analyze_op(k, n)
            outs = run_op(op)
            self.assertEqual(checks.check_op(op, outs)[0], [])

            def bump(doc):
                doc["payload"]["weight_distribution"]["counts"][1] += 1

            self.assertNotEqual(checks.check_op(op, replace_doc(outs, 0, bump))[0], [])

    def test_dual_project_shorten_corruptions_are_rejected(self):
        op = self.analyze_op(8, 12)
        outs = run_op(op)

        def flip_bit(doc):
            row = doc["payload"]["generator"][-1]
            doc["payload"]["generator"][-1] = row[:-1] + ("1" if row[-1] == "0" else "0")

        for index in (1, 2, 3):
            self.assertNotEqual(checks.check_op(op, replace_doc(outs, index, flip_bit))[0], [], index)

    def test_search_witness_with_weight_outside_w_is_rejected(self):
        op = workloads.search_op(6, (2, 4))
        outs = run_op(op)
        self.assertEqual(checks.check_op(op, outs)[0], [])

        def add_odd_row(doc):
            doc["payload"]["witness"][0] = "1" + "0" * 5  # weight 1
        problems = checks.check_op(op, replace_doc(outs, 0, add_odd_row))[0]
        self.assertTrue(any("outside W" in p for p in problems), problems)

    def test_verify_exit_code_must_match_overall(self):
        for d, expected_rc in ((8, 1), (10, 0)):
            op = workloads.verify_op("lemma-2-6", d, "1..64")
            outs = run_op(op)
            self.assertEqual(outs[0][0], expected_rc)
            self.assertEqual(checks.check_op(op, outs)[0], [])
            rc, out, err = outs[0]
            problems = checks.check_op(op, [(1 - rc, out, err)])[0]
            self.assertTrue(any("exit code" in p for p in problems), problems)

    def test_feasible_witness_must_satisfy_the_moment_equations(self):
        op = workloads.feasibility_op(24, 12, (8, 12, 16, 24))  # the Golay code's parameters
        outs = run_op(op)
        self.assertEqual(checks.check_op(op, outs)[0], [])
        self.assertEqual(json.loads(outs[0][1])["payload"]["status"], "feasible")

        def shift_count(doc):
            doc["payload"]["witness"]["counts"]["8"] += 1
        self.assertNotEqual(checks.check_op(op, replace_doc(outs, 0, shift_count))[0], [])

    def test_infeasible_reason_must_be_documented(self):
        op = workloads.feasibility_op(32, 4, (24, 32))
        outs = run_op(op)
        self.assertEqual(checks.check_op(op, outs)[0], [])

        def rename(doc):
            doc["payload"]["reason"] = "too big"
        self.assertNotEqual(checks.check_op(op, replace_doc(outs, 0, rename))[0], [])

    def test_digest_ignores_only_node_counts(self):
        op = workloads.search_op(6, (2, 4))
        outs = run_op(op)

        def recount(doc):
            doc["payload"]["nodes_explored"] += 5
        self.assertEqual(checks.digest(outs), checks.digest(replace_doc(outs, 0, recount)))

        def grow(doc):
            doc["payload"]["max_dimension"] += 1
        self.assertNotEqual(checks.digest(outs), checks.digest(replace_doc(outs, 0, grow)))


class PercentileTests(unittest.TestCase):
    def test_at_least_ten_samples_lie_beyond_the_p90(self):
        rng = random.Random(3)
        for size in range(11, 400):
            values = [rng.random() for _ in range(size)]
            p90 = worker.tail_percentile(values, 0.9)
            self.assertGreaterEqual(sum(1 for v in values if v > p90), 10, size)
            if size >= worker.MIN_OPS:  # the plain nearest-rank p90, ceil(0.9 N)
                self.assertEqual(p90, sorted(values)[-(-9 * size // 10) - 1])

    def test_too_few_samples_raise(self):
        with self.assertRaises(ValueError):
            worker.tail_percentile([1.0] * 10, 0.9)


class SeedTests(unittest.TestCase):
    @staticmethod
    def op_list(workload: str, seed: int):
        return [
            (op.key, op.argvs, op.params.get("text"))
            for index in range(2)
            for op in workloads.make_pass(workload, seed, index)
        ]

    def test_same_seed_same_ops_and_other_seed_other_ops(self):
        for workload in workloads.WORKLOADS:
            self.assertEqual(self.op_list(workload, 5), self.op_list(workload, 5), workload)
            self.assertNotEqual(self.op_list(workload, 5), self.op_list(workload, 6), workload)

    def test_no_op_repeats_within_a_pass(self):
        for workload in workloads.WORKLOADS:
            for index in range(3):
                keys = [op.key for op in workloads.make_pass(workload, 1, index)]
                self.assertEqual(len(keys), len(set(keys)), workload)


class TraceTests(unittest.TestCase):
    def test_spans_cover_each_layer_and_uninstall_restores(self):
        from spans import Tracer, per_layer_metrics

        import gf2codes.codes

        original = gf2codes.codes.LinearCode.__dict__["weight_distribution"]
        with tempfile.TemporaryDirectory() as tmp:
            rows = workloads.random_spanning_code(random.Random(1), 6, 12)
            op = workloads.analyze_op(os.path.join(tmp, "c.gen"), rows, 12)
            worker.write_inputs([op])
            tracer = Tracer()
            tracer.install()
            try:
                with tracer.op(0):
                    run_op(op)
            finally:
                tracer.uninstall()
        self.assertIs(gf2codes.codes.LinearCode.__dict__["weight_distribution"], original)
        metrics = per_layer_metrics(tracer.spans)
        self.assertEqual(metrics["cli.calls"][0], 4)
        self.assertEqual(metrics["codes.enumerate_calls"][0], 1)
        self.assertEqual(metrics["codes.enumerate_words"][0], 2 ** 6 - 1)
        self.assertEqual(metrics["transforms.calls"][0], 2)
        self.assertGreater(metrics["gf2core.nullspace_calls"][0], 0)
        self.assertLessEqual(metrics["cli.self_s"][0], metrics["cli.busy_s"][0])


if __name__ == "__main__":
    unittest.main()
