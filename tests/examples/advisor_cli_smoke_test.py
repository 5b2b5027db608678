#!/usr/bin/env python3
"""Smoke tests for advisor_cli's argument handling.

Runs the built binary (path in $CDPD_ADVISOR_CLI, wired up by
tests/CMakeLists.txt via $<TARGET_FILE:advisor_cli>) and asserts on
exit codes and diagnostics only — every case here must be rejected
before any solving starts, so the whole suite is milliseconds.

Pins the flag-parsing contract: --help exits 0 with the usage text;
unknown flags, duplicated flags, malformed or missing values (both the
`--flag value` and `--flag=value` spellings), and stray positional
arguments all print a diagnostic plus the usage and exit 2.
"""

import os
import subprocess
import sys
import unittest

CLI = os.environ.get("CDPD_ADVISOR_CLI")


@unittest.skipIf(not CLI or not os.path.exists(CLI),
                 "CDPD_ADVISOR_CLI not set or binary missing")
class AdvisorCliSmokeTest(unittest.TestCase):
    def run_cli(self, *args):
        return subprocess.run([CLI, *args], capture_output=True, text=True,
                              timeout=60)

    def assert_usage_error(self, result, *needles):
        self.assertEqual(result.returncode, 2, result.stderr)
        self.assertIn("usage: advisor_cli", result.stderr)
        for needle in needles:
            self.assertIn(needle, result.stderr)

    def test_help_exits_zero_with_usage(self):
        result = self.run_cli("--help")
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("usage: advisor_cli", result.stdout)
        self.assertIn("--memory-limit-bytes", result.stdout)

    def test_unknown_flag_fails_with_usage(self):
        self.assert_usage_error(self.run_cli("--frobnicate"),
                                "unknown flag --frobnicate")
        # --session-reuse re-ran the solve through a cost cache that no
        # longer exists.
        self.assert_usage_error(self.run_cli("--session-reuse", "2"),
                                "unknown flag --session-reuse")

    def test_duplicate_flag_fails(self):
        self.assert_usage_error(self.run_cli("--k", "1", "--k", "2"),
                                "duplicate flag --k")

    def test_duplicate_flag_across_spellings_fails(self):
        self.assert_usage_error(
            self.run_cli("--segments", "4", "--segments=8"),
            "duplicate flag --segments")

    def test_malformed_segments_value_fails(self):
        self.assert_usage_error(self.run_cli("--segments=abc"),
                                "needs an integer", "'abc'")

    def test_empty_segments_value_fails(self):
        self.assert_usage_error(self.run_cli("--segments="),
                                "needs a non-empty value")

    def test_trailing_garbage_integer_fails(self):
        # atoll would have silently read this as 25.
        self.assert_usage_error(self.run_cli("--rows", "25O000"),
                                "needs an integer")

    def test_missing_value_fails(self):
        self.assert_usage_error(self.run_cli("--deadline-ms"),
                                "needs a value")

    def test_value_on_boolean_flag_fails(self):
        self.assert_usage_error(self.run_cli("--prune=yes"),
                                "takes no value")

    def test_second_positional_fails(self):
        self.assert_usage_error(self.run_cli("a.sql", "b.sql"),
                                "unexpected positional argument 'b.sql'")

    def test_negative_block_fails(self):
        self.assert_usage_error(self.run_cli("--block", "-3"))

    def test_counts_past_int_fail(self):
        # 2^32 + 1 used to wrap to 1 thread (or 1 checkpoint block).
        for flag in ("--threads", "--segments"):
            with self.subTest(flag=flag):
                self.assert_usage_error(self.run_cli(flag, "4294967297"))
        # A thread count past ThreadPool::kMaxThreads (1024) is
        # malformed too, so no pool of that size is ever built.
        for count in ("1025", "2147483647"):
            with self.subTest(threads=count):
                self.assert_usage_error(self.run_cli("--threads", count))


if __name__ == "__main__":
    unittest.main()
