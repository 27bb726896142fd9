#!/usr/bin/env python3
"""Tests of scripts/perfbench_pairs.py, the paired perfbench runner, on
canned run outputs.

Each case builds two temporary checkouts whose perfbench/run.py replays a
list of canned records, one per call, and logs which side ran and with
which arguments.

Usage:
  perfbench_pairs_test.py [PerfbenchPairs.test_NAME ...]
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "perfbench_pairs.py"

SPEC = {
    "run_seconds": 30,
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mib", "unit": "MiB", "better": "lower",
         "bound": 0.1},
        {"name": "answered_ratio", "unit": "ratio", "better": "higher",
         "bound": 0.01},
    ],
    # Out of BENCHMARK.json's order on purpose: --trace-diff lists counts
    # and ratios first, then bytes, then times.
    "per_layer": [
        {"name": "sim.self_s", "unit": "s", "better": "lower"},
        {"name": "platform.bytes_per_agent", "unit": "bytes",
         "better": "lower"},
        {"name": "sim.events", "unit": "count", "better": "lower"},
        {"name": "core.first_try_ratio", "unit": "ratio",
         "better": "higher"},
    ],
}

# Replays canned[i] on the i-th call and appends this side's name to the
# shared order log.
FAKE_RUN = """\
import json, os, sys
here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
side = os.path.basename(here)
count_path = os.path.join(here, "count")
count = int(open(count_path).read()) if os.path.exists(count_path) else 0
open(count_path, "w").write(str(count + 1))
with open(os.path.join(os.path.dirname(here), "order.log"), "a") as log:
    log.write(side + "\\n")
with open(os.path.join(here, "args.log"), "a") as log:
    log.write(" ".join(sys.argv[1:]) + "\\n")
canned = json.load(open(os.path.join(here, "canned.json")))
if canned[count] is None:
    sys.exit(1)
print("perfbench: some progress line")
print(json.dumps(canned[count]))
"""


def run_record(setup_s, peak_rss_mib, answered_ratio=1.0, correct=True,
               failed=0):
    return {"correct": correct, "attempted": 1000, "failed": failed,
            "metrics": {
                "setup_s": {"value": setup_s, "unit": "s"},
                "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
                "answered_ratio": {"value": answered_ratio,
                                   "unit": "ratio"}}}


def traced_record(events=8335579, bytes_per_agent=96.5, self_s=1.5,
                  first_try_ratio=0.99):
    return {"correct": True, "attempted": 1000, "failed": 0, "metrics": {
        "sim.self_s": {"value": self_s, "unit": "s"},
        "platform.bytes_per_agent": {"value": bytes_per_agent,
                                     "unit": "bytes"},
        "sim.events": {"value": events, "unit": "count"},
        "core.first_try_ratio": {"value": first_try_ratio,
                                 "unit": "ratio"}}}


def parent_runs(pairs=10):
    return [run_record(10.0 + 0.1 * (i % 3), 400.0 + 0.01 * i)
            for i in range(pairs)]


class PerfbenchPairs(unittest.TestCase):
    def run_pairs(self, parent, change, pairs=None, mode=None):
        """Run the script on canned records; return (exit code, output,
        order of the sides' runs). `mode` replaces `--pairs N`, and the
        order then also lists each run's arguments."""
        with tempfile.TemporaryDirectory() as directory:
            root = Path(directory)
            for side, canned in (("parent", parent), ("change", change)):
                (root / side / "perfbench").mkdir(parents=True)
                (root / side / "perfbench" / "run.py").write_text(FAKE_RUN)
                (root / side / "canned.json").write_text(json.dumps(canned))
            (root / "parent" / "BENCHMARK.json").write_text(json.dumps(SPEC))
            run = subprocess.run(
                [sys.executable, str(SCRIPT), str(root / "parent"),
                 str(root / "change"), "--workload", "sim-scale", "--seed",
                 "7"] + (mode or ["--pairs", str(pairs or len(parent))]),
                capture_output=True, text=True, check=False)
            order_log = root / "order.log"
            order = (order_log.read_text().split()
                     if order_log.exists() else [])
            if mode:
                order = [(side, (root / side / "args.log").read_text())
                         for side in order]
        return run.returncode, run.stdout + run.stderr, order

    def verdict(self, output, metric):
        for line in output.splitlines():
            if line.startswith(metric + " ("):
                return line.split("  ")[-1].strip()
        self.fail("no row for %s in:\n%s" % (metric, output))

    def test_sides_alternate_which_runs_first(self):
        code, output, order = self.run_pairs(parent_runs(4), parent_runs(4))
        self.assertEqual(code, 0, output)
        self.assertEqual(order, ["parent", "change", "change", "parent",
                                 "parent", "change", "change", "parent"])

    def test_clear_win_beyond_parent_iqr_is_a_gain(self):
        change = [run_record(10.0 + 0.1 * (i % 3), 332.0 + 0.01 * i)
                  for i in range(10)]
        code, output, _ = self.run_pairs(parent_runs(), change)
        self.assertEqual(code, 0, output)
        self.assertEqual(self.verdict(output, "peak_rss_mib"), "gain")
        self.assertIn("10/10", output)
        self.assertEqual(self.verdict(output, "setup_s"), "within bound")
        self.assertEqual(self.verdict(output, "answered_ratio"),
                         "within bound")

    def test_eight_wins_of_ten_is_no_gain(self):
        change = [run_record(10.0, 332.0 if i < 8 else 401.0)
                  for i in range(10)]
        code, output, _ = self.run_pairs(parent_runs(), change)
        self.assertEqual(code, 0, output)
        self.assertIn("8/10", output)
        self.assertEqual(self.verdict(output, "peak_rss_mib"), "within bound")

    def test_slowdown_past_the_bound_is_worse(self):
        change = [run_record(13.0, 400.0) for _ in range(10)]
        code, output, _ = self.run_pairs(parent_runs(), change)
        self.assertEqual(code, 0, output)
        self.assertEqual(self.verdict(output, "setup_s"), "worse")

    def test_parent_spread_past_the_bound_is_unresolved(self):
        parent = [run_record(5.0 + 3.0 * (i % 4), 400.0) for i in range(10)]
        change = [run_record(5.0 + 3.0 * ((i + 1) % 4), 400.0)
                  for i in range(10)]
        code, output, _ = self.run_pairs(parent, change)
        self.assertEqual(code, 0, output)
        self.assertEqual(self.verdict(output, "setup_s"), "unresolved")

    def test_incorrect_runs_and_failed_ratio_are_flagged(self):
        change = parent_runs()
        change[2] = run_record(10.0, 400.0, answered_ratio=0.99,
                               correct=False, failed=10)
        code, output, _ = self.run_pairs(parent_runs(), change)
        self.assertEqual(code, 0, output)
        self.assertIn('FLAG: change run of pair 3 printed "correct": false',
                      output)
        self.assertIn("FLAG: failed ratio changed", output)

    def test_equal_traced_records_print_no_difference(self):
        code, output, order = self.run_pairs(
            [traced_record()], [traced_record(self_s=1.7)],
            mode=["--trace-diff"])
        self.assertEqual(code, 0, output)
        self.assertEqual([side for side, _ in order], ["parent", "change"])
        for _, args in order:
            self.assertIn("--trace 1", args)
            self.assertIn("--seconds 30", args)
        # Only the time moved.
        self.assertIn("1 per-layer metrics differ", output)
        self.assertIn("sim.self_s (s): 1.5 -> 1.7", output)

        code, output, _ = self.run_pairs(
            [traced_record()], [traced_record()], mode=["--trace-diff"])
        self.assertEqual(code, 0, output)
        self.assertIn("no per-layer metric differs", output)
        self.assertNotIn(" -> ", output)

    def test_moved_sim_events_is_listed_first(self):
        code, output, _ = self.run_pairs(
            [traced_record()],
            [traced_record(events=8335580, bytes_per_agent=90.0,
                           self_s=1.2)],
            mode=["--trace-diff"])
        self.assertEqual(code, 0, output)
        listed = [line.split()[0] for line in output.splitlines()
                  if " -> " in line]
        self.assertEqual(listed, ["sim.events", "platform.bytes_per_agent",
                                  "sim.self_s"])
        self.assertIn("sim.events (count): 8335579 -> 8335580 (+1,", output)

    def test_run_without_a_record_exits_1(self):
        change = parent_runs(2)
        change[0] = None
        code, output, _ = self.run_pairs(parent_runs(2), change)
        self.assertEqual(code, 1, output)
        self.assertIn("change run of pair 1 produced no record", output)


if __name__ == "__main__":
    unittest.main()
