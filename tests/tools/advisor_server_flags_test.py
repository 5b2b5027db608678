#!/usr/bin/env python3
"""Flag-parsing contract of advisor_server.

Runs the built binary (path in $CDPD_ADVISOR_SERVER, wired up by
tests/CMakeLists.txt via $<TARGET_FILE:advisor_server>) and asserts on
exit codes and diagnostics only — every case is rejected before a
socket is opened, so the suite never actually serves.

Pins the contract the PR 10 flags added: --slowlog-n must be a
positive integer; --record / --postmortem-dir need non-empty values;
--record-ring / --record-segment-bytes must be positive; unknown flags
and malformed values print the usage and exit 2; --help exits 0.
"""

import os
import subprocess
import unittest

SERVER = os.environ.get("CDPD_ADVISOR_SERVER")


@unittest.skipIf(not SERVER or not os.path.exists(SERVER),
                 "CDPD_ADVISOR_SERVER not set or binary missing")
class AdvisorServerFlagsTest(unittest.TestCase):
    def run_server(self, *args):
        return subprocess.run([SERVER, *args], capture_output=True,
                              text=True, timeout=60)

    def assert_usage_error(self, result):
        self.assertEqual(result.returncode, 2,
                         result.stdout + result.stderr)
        self.assertIn("usage: advisor_server", result.stderr)

    def test_help_exits_zero_with_usage(self):
        result = self.run_server("--help")
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("usage: advisor_server", result.stdout)
        self.assertIn("--slowlog-n", result.stdout)
        self.assertIn("--record PATH", result.stdout)
        self.assertIn("--postmortem-dir", result.stdout)

    def test_unknown_flag_fails(self):
        # --cache-max-bytes capped a cost cache that no longer exists.
        for args in (("--frobnicate",), ("--cache-max-bytes", "1024")):
            with self.subTest(flag=args[0]):
                result = self.run_server(*args)
                self.assert_usage_error(result)
                self.assertIn("unknown argument " + args[0], result.stderr)

    def test_slowlog_n_rejects_zero(self):
        self.assert_usage_error(self.run_server("--slowlog-n", "0"))

    def test_slowlog_n_rejects_negative(self):
        self.assert_usage_error(self.run_server("--slowlog-n", "-1"))

    def test_slowlog_n_rejects_garbage(self):
        self.assert_usage_error(self.run_server("--slowlog-n", "many"))

    def test_slowlog_n_rejects_missing_value(self):
        self.assert_usage_error(self.run_server("--slowlog-n"))

    def test_record_rejects_missing_value(self):
        self.assert_usage_error(self.run_server("--record"))

    def test_record_rejects_empty_value(self):
        self.assert_usage_error(self.run_server("--record", ""))

    def test_record_ring_rejects_zero(self):
        self.assert_usage_error(self.run_server("--record-ring", "0"))

    def test_record_segment_bytes_rejects_negative(self):
        self.assert_usage_error(
            self.run_server("--record-segment-bytes", "-5"))

    def test_postmortem_dir_rejects_missing_value(self):
        self.assert_usage_error(self.run_server("--postmortem-dir"))

    def test_port_rejects_out_of_range(self):
        self.assert_usage_error(self.run_server("--port", "70000"))

    def test_threads_rejects_counts_past_int(self):
        # 2^32 + 1 used to wrap to a one-thread pool; any count past
        # ThreadPool::kMaxThreads (1024) is malformed, so no pool of
        # that size is ever built.
        for count in ("4294967297", "2147483647", "1025"):
            with self.subTest(count=count):
                self.assert_usage_error(self.run_server("--threads", count))


if __name__ == "__main__":
    unittest.main()
