#!/usr/bin/env python3
"""Self-tests of the benchmark's own code.

    python3 perfbench/tests/test_perfbench.py

Builds the benchmark, runs the C++ self-tests (percentile sample-count
rule, self time over nested spans, failed_ratio accounting) and checks
that the metric names the binary prints are exactly BENCHMARK.json's.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402  (perfbench/run.py)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.out = run.build(["trust_perfbench", "perfbench_selftest"])
        if cls.out is None:
            raise RuntimeError("perfbench build failed")
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def binary(self, name):
        return os.path.join(self.out, name)

    def test_cpp_selftests(self):
        result = subprocess.run([self.binary("perfbench_selftest")],
                                stdout=subprocess.PIPE, text=True)
        self.assertEqual(result.returncode, 0, result.stdout)

    def test_metric_names_match_benchmark_json(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            printed = subprocess.run(
                [self.binary("trust_perfbench"), "--list-metrics",
                 str(trace)], stdout=subprocess.PIPE, text=True,
                check=True).stdout.split()
            self.assertEqual(printed, [m["name"] for m in self.spec[key]])

    def test_workloads_match_benchmark_json(self):
        printed = subprocess.run(
            [self.binary("trust_perfbench"), "--list-workloads", "1"],
            stdout=subprocess.PIPE, text=True, check=True).stdout.split()
        self.assertEqual(printed,
                         [w["name"] for w in self.spec["workloads"]])

    def test_unknown_workload_prints_no_result(self):
        result = subprocess.run([self.binary("trust_perfbench"),
                                 "--workload", "nosuch", "--seed", "1",
                                 "--seconds", "1", "--trace", "0"],
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        self.assertNotEqual(result.returncode, 0)
        self.assertEqual(result.stdout, "")

    def test_check_result(self):
        names = ["a_ms", "b_s"]
        good = {"correct": True, "attempted": 3, "failed": 0,
                "metrics": {"a_ms": {"value": 1.5, "unit": "ms"},
                            "b_s": {"value": 2.0, "unit": "s"}}}
        self.assertEqual(run.check_result(json.dumps(good), names), [])
        missing = dict(good, metrics={"a_ms": good["metrics"]["a_ms"]})
        self.assertTrue(run.check_result(json.dumps(missing), names))
        extra = dict(good, metrics=dict(good["metrics"],
                                        c={"value": 1, "unit": "s"}))
        self.assertTrue(run.check_result(json.dumps(extra), names))
        self.assertTrue(run.check_result(json.dumps(dict(good, attempted=0)),
                                         names))
        self.assertTrue(run.check_result("not json", names))
        self.assertTrue(run.check_result(json.dumps({"metrics": {}}), names))

    def test_benchmark_json_shape(self):
        spec = self.spec
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        names = [m["name"] for key in ("end_to_end", "per_layer")
                 for m in spec[key]]
        self.assertEqual(len(names), len(set(names)))
        self.assertIn("setup_s", [m["name"] for m in spec["end_to_end"]])
        for metric in spec["end_to_end"]:
            self.assertLessEqual(metric["bound"], 0.25)
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


if __name__ == "__main__":
    unittest.main()
