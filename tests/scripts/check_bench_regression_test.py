#!/usr/bin/env python3
"""Tests of scripts/check_bench_regression.py, the ±threshold gate on
wall-clock BENCH_*.json records, run on temporary files.

Usage:
  check_bench_regression_test.py [CheckBenchRegression.test_NAME ...]
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

SCRIPT = (Path(__file__).resolve().parents[2] / "scripts"
          / "check_bench_regression.py")


def record(rate, **meta):
    doc = {"bench": "test", "events_per_sec": rate,
           "rows": [{"name": "BM_Row", "items_per_second": rate}]}
    doc.update(meta)
    return doc


HOST = {"build": "optimized, NDEBUG", "compiler": "GNU 12.2.0",
        "hardware_threads": 4}


class CheckBenchRegression(unittest.TestCase):
    def check(self, baseline, fresh, *flags):
        """Run the gate on two records; return (exit code, output)."""
        with tempfile.TemporaryDirectory() as directory:
            paths = []
            for label, doc in (("baseline", baseline), ("fresh", fresh)):
                path = Path(directory) / f"BENCH_{label}.json"
                path.write_text(json.dumps(doc), encoding="utf-8")
                paths.append(str(path))
            run = subprocess.run(
                [sys.executable, str(SCRIPT), *paths, *flags],
                capture_output=True, text=True, check=False)
        return run.returncode, run.stdout + run.stderr

    def test_same_host_prints_no_warning(self):
        code, output = self.check(record(100.0, **HOST),
                                  record(99.0, **HOST), "--fail")
        self.assertEqual(code, 0, output)
        self.assertNotIn("cross-host", output)
        self.assertIn("no regressions beyond 30%", output)

    def test_cross_host_names_each_difference_and_keeps_the_status(self):
        # The baseline has no build field and 1 hardware thread; the
        # compilers agree.
        baseline = record(100.0, compiler="GNU 12.2.0", hardware_threads=1)
        for fresh_rate, flags, expected in ((99.0, ("--fail",), 0),
                                            (50.0, (), 0),
                                            (50.0, ("--fail",), 1)):
            code, output = self.check(baseline, record(fresh_rate, **HOST),
                                      *flags)
            self.assertEqual(code, expected, output)
            lines = [line for line in output.splitlines()
                     if "cross-host comparison" in line]
            self.assertEqual(lines, [
                "warning: cross-host comparison: build differs (baseline "
                "absent, fresh \"optimized, NDEBUG\")",
                "warning: cross-host comparison: hardware_threads differs "
                "(baseline 1, fresh 4)",
            ], output)


if __name__ == "__main__":
    unittest.main()
