#!/usr/bin/env python3
"""Tests of the benchmark harness itself.

    python3 perfbench/selftest.py

Runs every workload once at minimal size (smoke mode), untraced and traced,
and checks that a wrong answer is counted as a failure.
"""

from __future__ import annotations

import copy
import json
import math
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class SmokeTest(unittest.TestCase):
    def test_benchmark_json_matches_the_harness(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(spec["command"], ["python3", "perfbench/run.py"])
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]], spans.PER_LAYER)

    def test_every_workload_passes_and_reports_every_metric(self):
        for workload in workloads.WORKLOADS:
            for trace, names in ((False, run.END_TO_END), (True, spans.PER_LAYER)):
                with self.subTest(workload=workload, trace=trace):
                    result, report = run.run(workload, seed=1, seconds=0, trace=trace, smoke=True)
                    self.assertEqual(result["failed"], 0, report["failures"])
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], len(workloads.ops(workload, smoke=True)))
                    self.assertEqual(list(result["metrics"]), [n for n, _, _ in names])
                    for name, metric in result["metrics"].items():
                        self.assertTrue(math.isfinite(metric["value"]), name)
                    if not trace:
                        self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))

    def test_known_defects_are_recorded_not_counted(self):
        result, report = run.run("oracle", seed=1, seconds=0, trace=False, smoke=True)
        self.assertEqual(result["failed"], 0)
        probed = {workloads.key(argv) for argv in workloads.KNOWN_DEFECT_PROBE}
        for entry in report["known_failures"]:
            self.assertIn(entry["op"], probed)
            self.assertNotEqual(entry["exit"], 0)
            self.assertTrue(entry["message"])

    def test_tampered_reference_counts_as_failure(self):
        reference = copy.deepcopy(run.load_reference())
        record = reference[workloads.key(workloads.ops("criterion", smoke=True)[0])]["records"][0]
        record[2] = (record[2] + 1) % record[0]  # flip one residue
        result, report = run.run("criterion", seed=1, seconds=0, trace=False, smoke=True, reference=reference)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertGreater(report["failed_frac"], 0)

    def test_concordance_rejects_a_nonzero_s_on_a_divisible_prime(self):
        proj = {"family": "Ep", "p": 73, "s_rounded": 0}
        self.assertIsNone(workloads.concordance_error(proj, {("Ep", 73): (True, 0)}))
        self.assertIsNotNone(workloads.concordance_error({**proj, "s_rounded": 4}, {("Ep", 73): (True, 0)}))
        self.assertIsNotNone(workloads.concordance_error({**proj, "s_rounded": 5}, {("Ep", 73): (False, 4)}))

    def test_parse_poly_inverts_render(self):
        self.assertEqual(workloads.parse_poly("-6*t^2 - 18*t - 9"), {2: -6, 1: -18, 0: -9})
        self.assertEqual(workloads.parse_poly("t^3 + t - 1"), {3: 1, 1: 1, 0: -1})
        self.assertEqual(workloads.parse_poly("-t^2"), {2: -1})
        self.assertEqual(workloads.parse_poly("0"), {})


if __name__ == "__main__":
    unittest.main()
