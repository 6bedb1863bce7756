"""Tests of the benchmark itself, not of residuo.

    python3 -m unittest discover -s perfbench -v
"""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, low_bits, prime_factors  # noqa: E402


def small(name, ops):
    return dataclasses.replace(WORKLOADS[name], trace_ops=ops)


class InputTests(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for w in WORKLOADS.values():
            with self.subTest(workload=w.name):
                self.assertEqual(w.generate(7), w.generate(7))
                self.assertNotEqual(w.generate(7).batches, w.generate(8).batches)

    def test_sweep_answers_agree_with_the_definition(self):
        # The generator's Euler powers against an exhaustive solvability search.
        inputs = WORKLOADS["desk-sweep"].generate(3)
        for (m, n, k), (s, _, _) in list(zip(inputs.batches[0], inputs.expected[0]))[:300]:
            by_definition = 1
            for p in prime_factors(n):
                solvable = any(pow(x, 1 << k, p) == m % p for x in range(1, p))
                by_definition *= 1 if solvable else -1
            self.assertEqual(s, by_definition, (m, n, k))

    def test_low_bits_are_the_factors_residues(self):
        self.assertEqual(low_bits(13, 3), [1, 2, 3, 5])
        self.assertEqual(low_bits(3, 13), [1, 2, 3, 5])
        self.assertEqual(low_bits(5, 13), [2, 2, 5, 5])


class SpanTests(unittest.TestCase):
    def test_self_time_subtracts_direct_children_and_recursion_is_busy_once(self):
        rows = [
            ["a", 0, 100, -1, 0],
            ["b", 10, 40, 0, 0],
            ["b", 15, 35, 1, 0],
            ["c", 50, 60, 0, 0],
        ]
        calls, busy, self_ns, under = spans.layer_totals([({}, rows)])
        self.assertEqual(self_ns["a"], 60)
        self.assertEqual(self_ns["b"], 30)
        self.assertEqual(busy["b"], 30)
        self.assertEqual(calls["b"], 2)
        self.assertEqual(under["a", "b"], 1)
        self.assertEqual(under["b", "b"], 1)

    def test_metric_lists_match_benchmark_json(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
                         list(spans.PER_LAYER))
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([w["name"] for w in bench["workloads"]], list(WORKLOADS))


class TracedRunTests(unittest.TestCase):
    def test_traced_and_untraced_answers_are_identical(self):
        for name, ops in (("desk-sweep", 400), ("semiprime-reductions", 30), ("cli-cold", 6)):
            with self.subTest(workload=name):
                w = WORKLOADS[name]
                inputs = w.generate(5)
                span_dir = tempfile.mkdtemp(dir=run.OUT if os.path.isdir(run.OUT) else None)
                try:
                    plain = run.run_pass(w, inputs, max_ops=ops)
                    traced = run.run_pass(w, inputs, max_ops=ops, span_dir=span_dir)
                finally:
                    shutil.rmtree(span_dir)
                self.assertEqual(len(plain.answers), ops)
                self.assertEqual(plain.answers, traced.answers)
                self.assertEqual(run.check(plain), [])

    def test_counts_repeat_exactly(self):
        for name, ops in (("desk-sweep", 400), ("semiprime-reductions", 30)):
            with self.subTest(workload=name):
                first, _, _, failed = run.measure(small(name, ops), 11, None, 1)
                second, _, _, _ = run.measure(small(name, ops), 11, None, 1)
                self.assertEqual(failed, 0)
                for key in ("oracle.queries_per_op", "symbols.symbol_prime_checked.calls",
                            "arithmetic.factorize.calls"):
                    self.assertEqual(first[key], second[key], key)
                self.assertGreater(first["oracle.queries_per_op"], 0)


class StandaloneTests(unittest.TestCase):
    def test_fails_without_residuo_sources(self):
        os.makedirs(run.OUT, exist_ok=True)
        root = tempfile.mkdtemp(dir=run.OUT)
        try:
            shutil.copytree(run.HERE, os.path.join(root, "perfbench"),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), root)
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "desk-sweep",
                 "--seconds", "1"], cwd=root, capture_output=True, text=True, timeout=60)
        finally:
            shutil.rmtree(root)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


class HostSpeedTests(unittest.TestCase):
    def test_each_op_is_scaled_by_the_readings_around_it(self):
        ref = hostspeed.REFERENCE_NS
        scale = hostspeed.factors([0, 2, 3], [ref, 3 * ref, ref / 2], 3)
        self.assertEqual(len(scale), 3)
        self.assertAlmostEqual(scale[0], 0.5)
        self.assertAlmostEqual(scale[1], 0.5)
        self.assertAlmostEqual(scale[2], 1 / 1.75)

    def test_timed_runs_read_the_host_and_traced_runs_do_not(self):
        w = WORKLOADS["desk-sweep"]
        inputs = w.generate(5)
        timed = run.run_pass(w, inputs, seconds=0.5)
        self.assertEqual(len(timed.scale), len(timed.answers))
        self.assertTrue(all(f > 0 for f in timed.scale))
        self.assertEqual(run.run_pass(w, inputs, max_ops=50).scale, [])


class PercentileTests(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(run.percentile(values, 50), 50)
        self.assertEqual(run.percentile(values, 90), 90)
        self.assertEqual(run.percentile(values, 99), 99)
        self.assertEqual(run.percentile([math.inf], 99), math.inf)


if __name__ == "__main__":
    unittest.main()
