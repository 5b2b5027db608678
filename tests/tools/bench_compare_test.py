#!/usr/bin/env python3
"""Unit tests for tools/bench_compare (cdpd.bench schema v1/v2/v3).

Each test builds a baseline and a current artifact directory in a
tempdir, runs the comparator as a subprocess (the same way CI does),
and asserts on its exit status and report text: a wall-time regression
above the threshold fails, one below the --min-seconds noise floor
does not, a missing case is reported without failing, malformed JSON
is skipped with a warning, a schema-v2 memory regression fails on its
own even when the wall times are flat, and the schema-v3 throughput
columns (statements_per_sec, requests_per_sec; lower = regression)
gate independently.

Registered with ctest as `bench_compare_test` (see tests/CMakeLists.txt).
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      os.pardir, os.pardir, "tools", "bench_compare")


def report(bench, cases, schema_version=3):
    data = {
        "schema_version": schema_version,
        "kind": "cdpd.bench",
        "bench": bench,
        "git_sha": "test",
        "threads": 1,
        "rows": 1000,
        "unix_time": 0,
        "cases": cases,
    }
    if schema_version >= 2:
        data["rss_peak_bytes"] = 1 << 20
    return data


def case(name, wall_seconds, peak_bytes=None, cpu_seconds=0.0,
         relaxations_per_sec=None, statements_per_sec=None,
         requests_per_sec=None):
    c = {"name": name, "cpu_seconds": cpu_seconds, "metrics": {}}
    if wall_seconds is not None:
        c["wall_seconds"] = wall_seconds
    if peak_bytes is not None:
        c["peak_bytes"] = peak_bytes
    if relaxations_per_sec is not None:
        c["relaxations_per_sec"] = relaxations_per_sec
    if statements_per_sec is not None:
        c["statements_per_sec"] = statements_per_sec
    if requests_per_sec is not None:
        c["requests_per_sec"] = requests_per_sec
    return c


class BenchCompareTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.base_dir = os.path.join(self.tmp.name, "base")
        self.cur_dir = os.path.join(self.tmp.name, "cur")
        os.mkdir(self.base_dir)
        os.mkdir(self.cur_dir)

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, directory, data, filename=None):
        name = filename or f"BENCH_{data['bench']}.json"
        with open(os.path.join(directory, name), "w") as f:
            json.dump(data, f)

    def run_compare(self, *extra):
        return subprocess.run(
            [sys.executable, SCRIPT, self.base_dir, self.cur_dir, *extra],
            capture_output=True, text=True)

    def test_regression_above_noise_floor_fails(self):
        self.write(self.base_dir, report("b", [case("slow", 1.0)]))
        self.write(self.cur_dir, report("b", [case("slow", 2.0)]))
        result = self.run_compare()
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("REGRESSIONS", result.stdout)
        self.assertIn("b/slow", result.stdout)

    def test_regression_below_noise_floor_is_ignored(self):
        # 4x slower, but both sides are under the 5 ms default floor:
        # timer noise, not a regression.
        self.write(self.base_dir, report("b", [case("fast", 0.001)]))
        self.write(self.cur_dir, report("b", [case("fast", 0.004)]))
        result = self.run_compare()
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("no regressions", result.stdout)
        self.assertIn("below", result.stdout)

    def test_small_slowdown_within_threshold_passes(self):
        self.write(self.base_dir, report("b", [case("steady", 1.0)]))
        self.write(self.cur_dir, report("b", [case("steady", 1.1)]))
        result = self.run_compare()
        self.assertEqual(result.returncode, 0, result.stdout)

    def test_missing_case_is_reported_but_never_fails(self):
        self.write(self.base_dir,
                   report("b", [case("kept", 1.0), case("gone", 1.0)]))
        self.write(self.cur_dir, report("b", [case("kept", 1.0)]))
        result = self.run_compare()
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("[missing case] b/gone", result.stdout)

    def test_malformed_json_is_skipped_with_a_warning(self):
        with open(os.path.join(self.base_dir, "BENCH_bad.json"), "w") as f:
            f.write("{not json")
        self.write(self.base_dir, report("ok", [case("c", 1.0)]))
        self.write(self.cur_dir, report("ok", [case("c", 1.0)]))
        result = self.run_compare()
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("cannot read", result.stderr)

    def test_unknown_schema_version_is_skipped(self):
        self.write(self.base_dir, report("ok", [case("c", 1.0)]))
        self.write(self.base_dir,
                   report("future", [case("c", 1.0)], schema_version=99))
        self.write(self.cur_dir, report("ok", [case("c", 1.0)]))
        result = self.run_compare()
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("unknown schema_version", result.stderr)

    def test_v1_artifacts_still_compare_wall_time(self):
        self.write(self.base_dir,
                   report("old", [case("c", 1.0)], schema_version=1))
        self.write(self.cur_dir,
                   report("old", [case("c", 3.0)], schema_version=1))
        result = self.run_compare()
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("REGRESSIONS", result.stdout)

    def test_memory_regression_fails_even_with_flat_wall_time(self):
        self.write(self.base_dir,
                   report("m", [case("c", 1.0, peak_bytes=1 << 20)]))
        self.write(self.cur_dir,
                   report("m", [case("c", 1.0, peak_bytes=2 << 20)]))
        result = self.run_compare()
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("[mem]", result.stdout)

    def test_memory_below_min_bytes_is_ignored(self):
        # 4x more bytes, but both under --min-bytes: allocator rounding.
        self.write(self.base_dir,
                   report("m", [case("c", 1.0, peak_bytes=1024)]))
        self.write(self.cur_dir,
                   report("m", [case("c", 1.0, peak_bytes=4096)]))
        result = self.run_compare()
        self.assertEqual(result.returncode, 0, result.stdout)

    def test_v1_baseline_against_v2_run_has_no_memory_columns(self):
        self.write(self.base_dir,
                   report("m", [case("c", 1.0)], schema_version=1))
        self.write(self.cur_dir,
                   report("m", [case("c", 1.0, peak_bytes=1 << 30)]))
        result = self.run_compare()
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("0 with memory columns", result.stdout)

    def test_scaling_throughput_drop_fails(self):
        self.write(self.base_dir,
                   report("s", [case("n1M_m12", 1.0,
                                     statements_per_sec=1e6)]))
        self.write(self.cur_dir,
                   report("s", [case("n1M_m12", 1.0,
                                     statements_per_sec=5e5)]))
        result = self.run_compare()
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("[stmt]", result.stdout)

    def test_scaling_throughput_wobble_within_threshold_passes(self):
        self.write(self.base_dir,
                   report("s", [case("n1M_m12", 1.0,
                                     statements_per_sec=1e6)]))
        self.write(self.cur_dir,
                   report("s", [case("n1M_m12", 1.0,
                                     statements_per_sec=0.9e6)]))
        result = self.run_compare()
        self.assertEqual(result.returncode, 0, result.stdout)

    def test_serving_throughput_drop_fails(self):
        self.write(self.base_dir,
                   report("serving", [case("mixed", 1.0,
                                           requests_per_sec=6e4)]))
        self.write(self.cur_dir,
                   report("serving", [case("mixed", 1.0,
                                           requests_per_sec=3e4)]))
        result = self.run_compare()
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("[rps]", result.stdout)

    def test_serving_throughput_wobble_within_threshold_passes(self):
        self.write(self.base_dir,
                   report("serving", [case("mixed", 1.0,
                                           requests_per_sec=6e4)]))
        self.write(self.cur_dir,
                   report("serving", [case("mixed", 1.0,
                                           requests_per_sec=5e4)]))
        result = self.run_compare()
        self.assertEqual(result.returncode, 0, result.stdout)

    def test_missing_wall_seconds_is_skipped_not_crashed(self):
        self.write(self.base_dir,
                   report("b", [case("broken", None), case("ok", 1.0)]))
        self.write(self.cur_dir,
                   report("b", [case("broken", 1.0), case("ok", 1.0)]))
        result = self.run_compare()
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("[skip] b/broken", result.stdout)
        self.assertIn("missing wall_seconds", result.stdout)

    def test_unparsable_wall_seconds_is_skipped_not_crashed(self):
        self.write(self.base_dir, report("b", [case("broken", 1.0)]))
        self.write(self.cur_dir, report("b", [case("broken", "oops")]))
        result = self.run_compare()
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("[skip] b/broken", result.stdout)

    def test_zero_baseline_wall_time_is_skipped_not_infinite(self):
        # With the noise floor disabled a 0 s baseline used to divide
        # by zero into an infinite ratio (a spurious regression).
        self.write(self.base_dir, report("b", [case("zero", 0.0)]))
        self.write(self.cur_dir, report("b", [case("zero", 1.0)]))
        result = self.run_compare("--min-seconds", "0")
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("[skip] b/zero", result.stdout)
        self.assertIn("zero", result.stdout)

    def test_v2_baseline_against_v3_run_has_no_rate_columns(self):
        self.write(self.base_dir,
                   report("r", [case("c", 1.0)], schema_version=2))
        self.write(self.cur_dir,
                   report("r", [case("c", 1.0, statements_per_sec=1e6)]))
        result = self.run_compare()
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("0 with throughput columns", result.stdout)

    def test_warn_only_reports_but_exits_zero(self):
        self.write(self.base_dir, report("b", [case("slow", 1.0)]))
        self.write(self.cur_dir, report("b", [case("slow", 2.0)]))
        result = self.run_compare("--warn-only")
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("REGRESSIONS", result.stdout)

    def test_empty_current_directory_fails(self):
        self.write(self.base_dir, report("b", [case("c", 1.0)]))
        result = self.run_compare()
        self.assertEqual(result.returncode, 1)

    def test_empty_baseline_directory_passes(self):
        self.write(self.cur_dir, report("b", [case("c", 1.0)]))
        result = self.run_compare()
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("nothing to compare", result.stdout)


if __name__ == "__main__":
    unittest.main()
