#!/usr/bin/env python3
"""Regression tests for compare_bench.py (the CI bench-smoke gate).

Run directly (python3 tools/test_compare_bench.py) or via ctest as
compare_bench_py. Pure stdlib: unittest + tempfile only.
"""

import contextlib
import importlib.util
import io
import json
import os
import sys
import tempfile
import unittest

TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))


def _load_module():
    spec = importlib.util.spec_from_file_location(
        "compare_bench", os.path.join(TOOLS_DIR, "compare_bench.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare_bench = _load_module()


def bench_doc(ns_by_key, scale="small", drop_ns_for=()):
    doc = {"scale": scale, "benchmarks": []}
    for name, ns in ns_by_key.items():
        entry = {"name": name, "ns_per_op": ns, "peak_bytes": 1024}
        if name in drop_ns_for:
            del entry["ns_per_op"]
        doc["benchmarks"].append(entry)
    return doc


class CompareBenchTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self._tmp.cleanup)

    def write(self, name, doc):
        path = os.path.join(self._tmp.name, name)
        with open(path, "w") as f:
            json.dump(doc, f)
        return path

    def run_main(self, old_doc, new_doc, extra_args=()):
        """Runs compare_bench.main() against two docs; returns (exit, stdout)."""
        argv = [
            "compare_bench.py",
            self.write("old.json", old_doc),
            self.write("new.json", new_doc),
        ] + list(extra_args)
        out = io.StringIO()
        saved_argv = sys.argv
        sys.argv = argv
        try:
            with contextlib.redirect_stdout(out):
                code = compare_bench.main()
        finally:
            sys.argv = saved_argv
        return code, out.getvalue()

    def test_identical_runs_pass(self):
        doc = bench_doc({"maps_price_round": 1000.0, "engine_period": 5000.0})
        code, out = self.run_main(doc, doc)
        self.assertEqual(code, 0)
        self.assertIn("OK: no tracked key regressed", out)

    def test_regression_beyond_threshold_fails(self):
        old = bench_doc({"maps_price_round": 1000.0})
        new = bench_doc({"maps_price_round": 1300.0})  # +30% > default 25%
        code, out = self.run_main(old, new)
        self.assertEqual(code, 1)
        self.assertIn("REGRESSION", out)
        self.assertIn("maps_price_round", out)

    def test_slowdown_within_threshold_passes(self):
        old = bench_doc({"maps_price_round": 1000.0})
        new = bench_doc({"maps_price_round": 1200.0})  # +20% < 25%
        code, _ = self.run_main(old, new)
        self.assertEqual(code, 0)

    def test_custom_threshold_is_honored(self):
        old = bench_doc({"maps_price_round": 1000.0})
        new = bench_doc({"maps_price_round": 1200.0})
        code, _ = self.run_main(old, new, ["--threshold", "0.1"])
        self.assertEqual(code, 1)

    def test_speedup_never_fails(self):
        old = bench_doc({"maps_price_round": 1000.0})
        new = bench_doc({"maps_price_round": 200.0})
        code, _ = self.run_main(old, new)
        self.assertEqual(code, 0)

    def test_scale_mismatch_skips_the_gate(self):
        old = bench_doc({"maps_price_round": 1000.0}, scale="small")
        # A 10x "regression" must NOT fail when scales differ.
        new = bench_doc({"maps_price_round": 10000.0}, scale="large")
        code, out = self.run_main(old, new)
        self.assertEqual(code, 0)
        self.assertIn("skipping regression gate", out)

    def test_new_and_retired_keys_are_reported_not_fatal(self):
        old = bench_doc({"maps_price_round": 1000.0, "engine_period": 2000.0})
        new = bench_doc({"maps_price_round": 1000.0, "oracle_search": 500.0})
        code, out = self.run_main(old, new)
        self.assertEqual(code, 0)
        self.assertIn("retired", out)  # engine_period left
        self.assertIn("new", out)      # oracle_search arrived

    def test_missing_ns_per_op_is_no_data_not_a_crash(self):
        old = bench_doc({"maps_price_round": 1000.0})
        new = bench_doc({"maps_price_round": 1000.0},
                        drop_ns_for={"maps_price_round"})
        code, out = self.run_main(old, new)
        self.assertEqual(code, 0)
        self.assertIn("no-data", out)

    def test_untracked_keys_never_gate(self):
        # oracle_search_pooled is pool-backed and ungated by default.
        old = bench_doc({"maps_price_round": 1000.0,
                         "oracle_search_pooled": 100.0})
        new = bench_doc({"maps_price_round": 1000.0,
                         "oracle_search_pooled": 9000.0})
        code, _ = self.run_main(old, new)
        self.assertEqual(code, 0)

    def test_untracked_key_removed_from_new_is_reported_retired(self):
        old = bench_doc({"maps_price_round": 1000.0,
                         "engine_period_pipelined": 100.0})
        new = bench_doc({"maps_price_round": 1000.0})
        code, out = self.run_main(old, new)
        self.assertEqual(code, 0)
        self.assertRegex(out, r"engine_period_pipelined\s.*retired")

    def test_explicit_keys_override_the_default_set(self):
        old = bench_doc({"oracle_search_pooled": 100.0})
        new = bench_doc({"oracle_search_pooled": 9000.0})
        code, _ = self.run_main(old, new,
                                ["--keys", "oracle_search_pooled"])
        self.assertEqual(code, 1)

    def test_zero_old_time_regression_is_infinite_ratio(self):
        old = bench_doc({"maps_price_round": 0.0})
        new = bench_doc({"maps_price_round": 10.0})
        code, out = self.run_main(old, new)
        self.assertEqual(code, 1)
        self.assertIn("inf", out)

    # -- telemetry overhead gate (engine_period_metrics_on vs engine_period)

    def test_overhead_within_budget_passes(self):
        doc = bench_doc({"engine_period": 1000.0,
                         "engine_period_metrics_on": 1040.0})  # 4% < 5%
        code, out = self.run_main(doc, doc)
        self.assertEqual(code, 0)
        self.assertIn("engine_period_metrics_on / engine_period = 1.040", out)

    def test_overhead_beyond_budget_fails_even_without_regression(self):
        # Both files identical (no cross-file regression), but telemetry
        # costs 10% in the new run: the same-file gate must fail it.
        doc = bench_doc({"engine_period": 1000.0,
                         "engine_period_metrics_on": 1100.0})
        code, out = self.run_main(doc, doc)
        self.assertEqual(code, 1)
        self.assertIn("OVERHEAD", out)
        self.assertIn("telemetry overhead gate", out)

    def test_overhead_gate_only_fails_on_the_new_file(self):
        # Overhead violation in OLD only (since fixed) must not fail.
        old = bench_doc({"engine_period": 1000.0,
                         "engine_period_metrics_on": 1500.0})
        new = bench_doc({"engine_period": 1000.0,
                         "engine_period_metrics_on": 1020.0})
        code, _ = self.run_main(old, new)
        self.assertEqual(code, 0)

    def test_overhead_gate_applies_even_on_scale_mismatch(self):
        # The cross-file gate is skipped on scale mismatch, but the ratio
        # within the new file is scale-free and still gates.
        old = bench_doc({"engine_period": 1000.0}, scale="small")
        new = bench_doc({"engine_period": 1000.0,
                         "engine_period_metrics_on": 1200.0}, scale="large")
        code, out = self.run_main(old, new)
        self.assertEqual(code, 1)
        self.assertIn("skipping regression gate", out)
        self.assertIn("telemetry overhead gate", out)

    def test_overhead_gate_skips_when_keys_are_absent(self):
        # Baselines predating the telemetry keys must not trip the gate.
        doc = bench_doc({"engine_period": 1000.0})
        code, _ = self.run_main(doc, doc)
        self.assertEqual(code, 0)

    def paired_doc(self, on_ns, paired_ratio):
        doc = bench_doc({"engine_period": 1000.0,
                         "engine_period_metrics_on": on_ns})
        on = doc["benchmarks"][1]
        on["paired_with"] = "engine_period"
        on["paired_ratio"] = paired_ratio
        return doc

    def test_paired_ratio_gates_instead_of_the_minima(self):
        # The two best-of minima read 12% apart, but the paired reps put
        # the overhead at 1%: the paired ratio decides.
        doc = self.paired_doc(1120.0, 1.01)
        code, out = self.run_main(doc, doc)
        self.assertEqual(code, 0)
        self.assertIn("engine_period_metrics_on / engine_period = 1.010", out)

    def test_paired_ratio_over_budget_fails(self):
        doc = self.paired_doc(1000.0, 1.08)
        code, out = self.run_main(doc, doc)
        self.assertEqual(code, 1)
        self.assertIn("OVERHEAD", out)

    def test_paired_ratio_against_another_key_is_ignored(self):
        doc = self.paired_doc(1100.0, 1.0)
        doc["benchmarks"][1]["paired_with"] = "simulator_periods"
        code, out = self.run_main(doc, doc)
        self.assertEqual(code, 1)
        self.assertIn("engine_period_metrics_on / engine_period = 1.100", out)

    def test_check_overhead_skips_untimed_entries(self):
        benches = {"engine_period": {"name": "engine_period"},
                   "engine_period_metrics_on":
                       {"name": "engine_period_metrics_on",
                        "ns_per_op": 1100.0}}
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            failures = compare_bench.check_overhead(benches)
        self.assertEqual(failures, [])


if __name__ == "__main__":
    unittest.main()
