#!/usr/bin/env python3
"""Tests of scripts/check_bench_exact.py, the exact gate on fixed-seed
BENCH_*.json records, run on temporary files.

Usage:
  check_bench_exact_test.py [CheckBenchExact.test_NAME ...]
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "check_bench_exact.py"

NAMED = [
    {"name": "hash/100", "location_ms_mean": 9.25, "queries": 4000,
     "threads": 1, "wall_seconds": 0.5},
    {"name": "centralized/100", "location_ms_mean": 27.5, "queries": 4000,
     "threads": 1, "wall_seconds": 0.7},
]
UNNAMED = [
    {"capacity": 0, "queries": 400, "elapsed_s": 2.0,
     "items_per_second": 200.0, "events_per_sec": 1e6},
    {"capacity": 1024, "queries": 400, "elapsed_s": 1.6,
     "items_per_second": 250.0, "events_per_sec": 1e6},
]


def record(rows):
    return {"bench": "test", "hardware_threads": 4, "rows": rows}


class CheckBenchExact(unittest.TestCase):
    def check(self, baseline, fresh):
        """Run the gate on two records; return (exit code, output)."""
        with tempfile.TemporaryDirectory() as directory:
            paths = []
            for label, doc in (("baseline", baseline), ("fresh", fresh)):
                path = Path(directory) / f"BENCH_{label}.json"
                path.write_text(json.dumps(doc), encoding="utf-8")
                paths.append(str(path))
            run = subprocess.run(
                [sys.executable, str(SCRIPT), *paths],
                capture_output=True, text=True, check=False)
        return run.returncode, run.stdout + run.stderr

    def test_identical_records_pass(self):
        for rows in (NAMED, UNNAMED):
            code, output = self.check(record(rows), record(rows))
            self.assertEqual(code, 0, output)
            self.assertIn("2 rows identical", output)

    def test_changed_simulated_field_fails(self):
        fresh = json.loads(json.dumps(NAMED))
        fresh[0]["location_ms_mean"] = 9.5
        code, output = self.check(record(NAMED), record(fresh))
        self.assertEqual(code, 1, output)
        self.assertIn("hash/100: location_ms_mean 9.25 -> 9.5", output)

    def test_missing_named_row_fails(self):
        code, output = self.check(record(NAMED), record(NAMED[:1]))
        self.assertEqual(code, 1, output)
        self.assertIn("centralized/100: missing from the fresh run", output)

    def test_changed_unnamed_row_count_fails(self):
        code, output = self.check(record(UNNAMED), record(UNNAMED[:1]))
        self.assertEqual(code, 1, output)
        self.assertIn("row count 2 -> 1", output)

    def test_mixed_named_and_unnamed_rows_fail(self):
        mixed = record([NAMED[0], UNNAMED[0]])
        for baseline, fresh in ((mixed, record(NAMED)), (record(NAMED), mixed)):
            code, output = self.check(baseline, fresh)
            self.assertEqual(code, 1, output)
            self.assertIn("mixes named and unnamed rows", output)

    def test_host_field_changes_pass(self):
        for rows in (NAMED, UNNAMED):
            fresh = json.loads(json.dumps(rows))
            for row in fresh:
                for field in ("threads", "wall_seconds", "events_per_sec",
                              "items_per_second"):
                    if field in row:
                        row[field] *= 3
            code, output = self.check(record(rows), record(fresh))
            self.assertEqual(code, 0, output)


if __name__ == "__main__":
    unittest.main()
