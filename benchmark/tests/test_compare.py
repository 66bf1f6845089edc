"""Unit tests for the run.py comparator, on synthetic run sets.

  python3 -m unittest discover -s benchmark/tests
"""

import contextlib
import importlib.util
import io
import tempfile
import unittest
from pathlib import Path
from unittest import mock

_SPEC = importlib.util.spec_from_file_location(
    "flatbench_run", Path(__file__).resolve().parent.parent / "run.py")
run = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(run)

SPEC = {"end_to_end": [
    {"name": "ops_per_s", "unit": "ops/s", "better": "higher", "bound": 0.1},
    {"name": "p50_us", "unit": "us", "better": "lower", "bound": 0.1},
    {"name": "page_reads_per_query", "unit": "reads", "better": "lower",
     "bound": 0.05},
]}
# As BENCHMARK.json has it: the timing metrics listed per layer, unbounded.
UNBOUNDED_SPEC = {"end_to_end": SPEC["end_to_end"][2:],
                  "per_layer": [{k: m[k] for k in ("name", "unit", "better")}
                                for m in SPEC["end_to_end"][:2]]}


def make_run(workload, seed, ops_per_s, p50_us, reads, failed=0):
    metric = lambda v, unit: {"value": v, "unit": unit}  # noqa: E731
    return {"workload": workload, "seed": seed, "attempted": 1000,
            "failed": failed,
            "end_to_end": {"ops_per_s": metric(ops_per_s, "ops/s"),
                           "p50_us": metric(p50_us, "us"),
                           "page_reads_per_query": metric(reads, "reads")}}


def runset(workload, ops, p50s, reads=None, seeds=None, failed=0):
    seeds = seeds or list(range(1, len(ops) + 1))
    reads = reads or [60.0] * len(ops)
    return [make_run(workload, s, o, p, r, failed)
            for s, o, p, r in zip(seeds, ops, p50s, reads)]


def verdicts(a, b):
    return {(r["workload"], r["metric"]): r["verdict"]
            for r in run.compare_runsets(a, b, SPEC)}


class BoundTest(unittest.TestCase):
    def test_same_numbers_are_ok_and_exact(self):
        a = runset("sn_single", [100, 101, 99, 100, 100], [50] * 5)
        v = verdicts(a, a)
        self.assertEqual(v[("sn_single", "ops_per_s")], "ok")
        self.assertEqual(v[("sn_single", "p50_us")], "ok")
        self.assertEqual(v[("sn_single", "page_reads_per_query")], "exact")
        self.assertEqual(v[("sn_single", "failed_ratio")], "ok")

    def test_drift_within_bound_is_ok(self):
        a = runset("sn_single", [100, 101, 99, 100, 100], [50] * 5)
        b = runset("sn_single", [95, 96, 94, 95, 95], [53, 53, 52, 53, 54])
        v = verdicts(a, b)
        self.assertEqual(v[("sn_single", "ops_per_s")], "ok")
        self.assertEqual(v[("sn_single", "p50_us")], "ok")

    def test_worse_than_bound_is_a_regression(self):
        a = runset("lss_batch", [100, 101, 99, 100, 100], [50] * 5)
        b = runset("lss_batch", [85, 86, 84, 85, 85], [60, 61, 60, 59, 60])
        v = verdicts(a, b)
        self.assertEqual(v[("lss_batch", "ops_per_s")], "REGRESSION")
        self.assertEqual(v[("lss_batch", "p50_us")], "REGRESSION")

    def test_improvement_beyond_bound_is_better(self):
        a = runset("sn_single", [100, 101, 99, 100, 100], [50] * 5)
        b = runset("sn_single", [130, 131, 129, 130, 130], [40] * 5)
        v = verdicts(a, b)
        self.assertEqual(v[("sn_single", "ops_per_s")], "better")
        self.assertEqual(v[("sn_single", "p50_us")], "better")

    def test_rising_failures_are_a_regression(self):
        a = runset("sn_single", [100] * 3, [50] * 3)
        b = runset("sn_single", [100] * 3, [50] * 3, failed=1)
        self.assertEqual(verdicts(a, b)[("sn_single", "failed_ratio")],
                         "REGRESSION")


class ExactMetricTest(unittest.TestCase):
    def test_one_read_more_on_a_shared_seed_is_a_mismatch(self):
        a = runset("sn_single", [100] * 3, [50] * 3, reads=[60.0, 61.5, 59.0])
        b = runset("sn_single", [100] * 3, [50] * 3,
                   reads=[60.0, 61.5, 59.0 + 1e-9])
        v = verdicts(a, b)
        self.assertEqual(v[("sn_single", "page_reads_per_query")], "MISMATCH")

    def test_churn_reads_are_not_exact(self):
        a = runset("churn_mixed", [100] * 3, [50] * 3,
                   reads=[14.10, 14.12, 14.14])
        b = runset("churn_mixed", [100] * 3, [50] * 3,
                   reads=[14.11, 14.12, 14.14])
        self.assertEqual(verdicts(a, b)[("churn_mixed", "page_reads_per_query")],
                         "ok")

    def test_churn_reads_use_their_measured_spread_as_bound(self):
        # 2% more reads is inside BENCHMARK.json's bound (5% here) but not
        # inside churn's bound from its measured spread.
        a = runset("churn_mixed", [100] * 3, [50] * 3,
                   reads=[14.10, 14.12, 14.14])
        b = runset("churn_mixed", [100] * 3, [50] * 3,
                   reads=[14.38, 14.40, 14.42])
        self.assertEqual(verdicts(a, b)[("churn_mixed", "page_reads_per_query")],
                         "REGRESSION")

    def test_without_shared_seeds_the_bound_applies(self):
        a = runset("sn_single", [100] * 3, [50] * 3, reads=[60.0] * 3,
                   seeds=[1, 2, 3])
        b = runset("sn_single", [100] * 3, [50] * 3, reads=[60.5] * 3,
                   seeds=[4, 5, 6])
        self.assertEqual(verdicts(a, b)[("sn_single", "page_reads_per_query")],
                         "ok")


class UnresolvedTest(unittest.TestCase):
    def test_spread_wider_than_bound_is_unresolved(self):
        a = runset("viewport_count", [70, 100, 130, 85, 115], [50] * 5)
        b = runset("viewport_count", [68, 98, 128, 83, 113], [50] * 5)
        self.assertEqual(verdicts(a, b)[("viewport_count", "ops_per_s")],
                         "unresolved")

    def test_noisy_but_every_change_run_better_is_resolved(self):
        a = runset("viewport_count", [70, 100, 130, 85, 115], [50] * 5)
        b = runset("viewport_count", [140, 170, 200, 150, 190], [50] * 5)
        self.assertEqual(verdicts(a, b)[("viewport_count", "ops_per_s")],
                         "better")

    def test_compare_exit_status(self):
        a = runset("sn_single", [100, 101, 99, 100, 100], [50] * 5)
        noisy = runset("sn_single", [60, 100, 140, 80, 120], [50] * 5)
        with contextlib.redirect_stdout(io.StringIO()):
            self.assertEqual(run.report_comparison(a, a, [], SPEC), 0)
            self.assertEqual(run.report_comparison(a, noisy, [], SPEC), 1)


class UnboundedMetricTest(unittest.TestCase):
    def test_unbounded_metrics_are_shown_without_a_verdict(self):
        a = runset("lss_batch", [100, 101, 99, 100, 100], [50] * 5)
        b = runset("lss_batch", [60, 100, 140, 80, 120], [80] * 5)
        rows = run.compare_runsets(a, b, UNBOUNDED_SPEC)
        by_metric = {r["metric"]: r for r in rows}
        self.assertEqual(by_metric["ops_per_s"]["verdict"], "no bound")
        self.assertIsNone(by_metric["p50_us"]["bound"])
        with contextlib.redirect_stdout(io.StringIO()):
            self.assertEqual(run.report_comparison(a, b, [], UNBOUNDED_SPEC), 0)

    def test_metrics_a_workload_does_not_measure_are_left_out(self):
        a = runset("lss_batch", [100] * 3, [0.0] * 3)
        metrics = {r["metric"] for r in run.compare_runsets(a, a, UNBOUNDED_SPEC)}
        self.assertIn("ops_per_s", metrics)
        self.assertNotIn("p50_us", metrics)

    def test_claims_may_name_an_unbounded_metric(self):
        a = runset("sn_single", [100 + i % 2 for i in range(10)], [50] * 10)
        b = runset("sn_single", [130 + i % 2 for i in range(10)], [50] * 10)
        (claim,) = run.claims_from_runsets(a, b, ["sn_single:ops_per_s"],
                                           UNBOUNDED_SPEC)
        self.assertTrue(claim["met"])


class ClaimRuleTest(unittest.TestCase):
    def test_nine_of_ten_wins_beyond_the_parent_iqr_is_met(self):
        pairs = [(100 + i % 3, 120 + i % 3) for i in range(9)] + [(101, 100)]
        result = run.evaluate_claim(pairs, "higher")
        self.assertEqual((result["wins"], result["losses"]), (9, 1))
        self.assertTrue(result["met"])

    def test_eight_of_ten_wins_is_not_met(self):
        pairs = [(100, 120)] * 8 + [(101, 100)] * 2
        self.assertFalse(run.evaluate_claim(pairs, "higher")["met"])

    def test_ties_count_for_neither_side(self):
        pairs = [(100, 120)] * 8 + [(100, 100)] * 2
        result = run.evaluate_claim(pairs, "higher")
        self.assertEqual((result["wins"], result["ties"]), (8, 2))
        self.assertFalse(result["met"])

    def test_win_smaller_than_parent_spread_is_not_met(self):
        parents = [80, 90, 100, 110, 120, 85, 95, 105, 115, 100]
        pairs = [(p, p + 1) for p in parents]
        result = run.evaluate_claim(pairs, "higher")
        self.assertEqual(result["wins"], 10)
        self.assertFalse(result["met"])

    def test_lower_is_better_direction(self):
        pairs = [(50.0 + i * 0.1, 40.0) for i in range(10)]
        self.assertTrue(run.evaluate_claim(pairs, "lower")["met"])
        self.assertFalse(run.evaluate_claim(pairs, "higher")["met"])

    def test_claims_pair_runs_by_workload_and_seed(self):
        a = runset("sn_single", [100 + i % 2 for i in range(10)], [50] * 10)
        b = runset("sn_single", [130 + i % 2 for i in range(10)], [50] * 10)
        (claim,) = run.claims_from_runsets(a, b, ["sn_single:ops_per_s"], SPEC)
        self.assertEqual(claim["pairs"], 10)
        self.assertTrue(claim["met"])

    def test_gain_does_not_count_when_more_operations_fail(self):
        pairs = [(100, 130)] * 10
        self.assertTrue(run.evaluate_claim(pairs, "higher", (0.0, 0.0))["met"])
        self.assertFalse(
            run.evaluate_claim(pairs, "higher", (0.0, 0.001))["met"])
        a = runset("sn_single", [100] * 10, [50] * 10)
        b = runset("sn_single", [130] * 10, [50] * 10, failed=1)
        (claim,) = run.claims_from_runsets(a, b, ["sn_single:ops_per_s"], SPEC)
        self.assertEqual(claim["wins"], 10)
        self.assertFalse(claim["met"])


class BuildTest(unittest.TestCase):
    """build() must never reuse a build directory configured for another
    library tree."""

    def commands(self, configured_root):
        with tempfile.TemporaryDirectory() as tmp:
            source = Path(tmp) / "src"
            source.mkdir()
            (source / "CMakeLists.txt").write_text("")
            build_dir = Path(tmp) / "build"
            if configured_root is not None:
                build_dir.mkdir()
                root = source if configured_root == "same" else Path(tmp)
                (build_dir / "CMakeCache.txt").write_text(
                    f"CMAKE_BUILD_TYPE:STRING=Release\n"
                    f"FLAT_ROOT:PATH={root.resolve()}\n")
            with mock.patch.object(run.subprocess, "run") as fake:
                run.build(source, build_dir)
            return [c.args[0][:2] for c in fake.call_args_list]

    def test_configures_a_new_build_directory(self):
        self.assertEqual(self.commands(None),
                         [["cmake", "-S"], ["cmake", "--build"]])

    def test_reconfigures_for_another_source_tree(self):
        self.assertEqual(self.commands("other"),
                         [["cmake", "-S"], ["cmake", "--build"]])

    def test_reuses_a_build_directory_of_the_same_tree(self):
        self.assertEqual(self.commands("same"), [["cmake", "--build"]])


if __name__ == "__main__":
    unittest.main()
