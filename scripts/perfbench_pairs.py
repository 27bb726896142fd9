#!/usr/bin/env python3
"""Run perfbench on two checkouts in alternating pairs and compare them.

Usage:
  perfbench_pairs.py PARENT_DIR CHANGE_DIR --workload W --seed S --pairs N
  perfbench_pairs.py PARENT_DIR CHANGE_DIR --workload W --seed S --trace-diff

Each pair runs `python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0` once in each checkout, T being BENCHMARK.json's run_seconds. The
parent goes first in odd pairs and the change in even ones. For every
end-to-end metric in PARENT_DIR/BENCHMARK.json it prints each side's median
and quartiles, the delta of the medians, the change's wins (ties count for
neither), the parent's IQR as a share of its median, the bound, and one
verdict:

  gain          the change wins at least 9 of 10 pairs and the medians
                differ by more than the parent's IQR
  worse         the change's median is worse than the parent's by more
                than the bound
  unresolved    the parent's IQR exceeds the bound and not every change run
                beats every parent run
  within bound  otherwise

It also flags runs that print "correct": false and a change in the failed
ratio (failed / attempted over all runs of a side).

With --trace-diff it instead runs `perfbench/run.py ... --trace 1` once in
each checkout, parent first, and prints every per-layer metric whose value
differs: counts and ratios first, then bytes, then times, each group in
BENCHMARK.json's order. A change meant to move no simulated number should
list only its timing-driven metrics and the memory estimates it means to
move.

It is a measuring tool, not a gate: it exits 0 once every run has produced
a record, 1 if a run did not, and 2 on bad arguments.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def quartiles(values):
    """(q1, median, q3) of `values`, inclusive method; one value is its own
    quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def better(a, b, direction):
    """Whether value `a` is strictly better than `b`."""
    return a < b if direction == "lower" else a > b


def judge(parent, change, direction, bound):
    """Verdict and figures for one metric over paired runs."""
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if better(c, p, direction))
    iqr = p_q3 - p_q1
    allowed = abs(p_med) * bound
    delta = c_med - p_med
    worsening = delta if direction == "lower" else -delta
    if worsening > allowed:
        verdict = "worse"
    elif wins * 10 >= 9 * len(parent) and -worsening > iqr:
        verdict = "gain"
    elif iqr > allowed and not all(
            better(c, p, direction) for c in change for p in parent):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {"parent": (p_q1, p_med, p_q3), "change": (c_q1, c_med, c_q3),
            "delta": delta, "wins": wins, "iqr": iqr, "verdict": verdict}


def share(value, base):
    return "n/a" if base == 0 else "%.2f%%" % (100.0 * value / base)


def report(spec, runs, out=sys.stdout):
    """Print the comparison of `runs` ({side: [record, ...]}, pair order)."""
    pairs = len(runs["parent"])
    out.write("%d pairs\n" % pairs)
    header = ("metric", "parent median [q1, q3]", "change median [q1, q3]",
              "delta", "wins", "parent IQR", "bound", "verdict")
    rows = [header]
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in runs[side]]
                  for side in SIDES}
        got = judge(values["parent"], values["change"], metric["better"],
                    metric["bound"])
        p_q1, p_med, p_q3 = got["parent"]
        c_q1, c_med, c_q3 = got["change"]
        rows.append((
            "%s (%s)" % (name, metric["unit"]),
            "%.6g [%.6g, %.6g]" % (p_med, p_q1, p_q3),
            "%.6g [%.6g, %.6g]" % (c_med, c_q1, c_q3),
            "%+.6g (%s)" % (got["delta"], share(got["delta"], p_med)),
            "%d/%d" % (got["wins"], pairs),
            share(got["iqr"], p_med),
            "%g%%" % (100.0 * metric["bound"]),
            got["verdict"]))
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    for row in rows:
        out.write("  ".join(cell.ljust(width)
                            for cell, width in zip(row, widths)).rstrip())
        out.write("\n")

    out.write("runs, pair by pair (parent / change):\n")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        cells = ["%.6g/%.6g" % (p["metrics"][name]["value"],
                                c["metrics"][name]["value"])
                 for p, c in zip(runs["parent"], runs["change"])]
        out.write("  %s: %s\n" % (name, " ".join(cells)))

    ratios = {}
    for side in SIDES:
        for pair, record in enumerate(runs[side], start=1):
            if not record["correct"]:
                out.write("FLAG: %s run of pair %d printed \"correct\": "
                          "false\n" % (side, pair))
        attempted = sum(r["attempted"] for r in runs[side])
        failed = sum(r["failed"] for r in runs[side])
        ratios[side] = failed / attempted if attempted else 0.0
    if ratios["parent"] != ratios["change"]:
        out.write("FLAG: failed ratio changed: parent %.6g, change %.6g\n" %
                  (ratios["parent"], ratios["change"]))


# The groups --trace-diff lists, in order, and the group of each per-layer
# unit; any other unit is a time.
DIFF_GROUPS = ("counts and ratios", "bytes", "times")
UNIT_GROUP = {"count": 0, "ratio": 0, "bits": 0, "bytes": 1}


def trace_diff(spec, parent, change, out=sys.stdout):
    """Print every per-layer metric of BENCHMARK.json whose value differs
    between the traced records `parent` and `change`."""
    moved = []
    for order, metric in enumerate(spec["per_layer"]):
        name = metric["name"]
        values = [record["metrics"].get(name, {}).get("value")
                  for record in (parent, change)]
        if values[0] != values[1]:
            moved.append((UNIT_GROUP.get(metric["unit"], 2), order, metric,
                          values))
    moved.sort(key=lambda entry: entry[:2])
    for side, record in (("parent", parent), ("change", change)):
        if not record["correct"]:
            out.write("FLAG: %s run printed \"correct\": false\n" % side)
    for key in ("attempted", "failed"):
        if parent[key] != change[key]:
            out.write("FLAG: %s changed: parent %s, change %s\n" %
                      (key, parent[key], change[key]))
    if not moved:
        out.write("no per-layer metric differs\n")
        return
    out.write("%d per-layer metrics differ, parent to change:\n" %
              len(moved))
    group = None
    for index, _, metric, (before, after) in moved:
        if index != group:
            group = index
            out.write("%s:\n" % DIFF_GROUPS[index])
        line = "  %s (%s): %s -> %s" % (
            metric["name"], metric["unit"],
            "missing" if before is None else "%.10g" % before,
            "missing" if after is None else "%.10g" % after)
        if before is not None and after is not None:
            line += " (%+.6g, %s)" % (after - before,
                                      share(after - before, before))
        out.write(line + "\n")


def run_once(checkout, workload, seed, seconds, trace=0):
    """One `perfbench/run.py` run; its record, or None."""
    command = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE,
                          text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--pairs", type=int)
    mode.add_argument("--trace-diff", action="store_true")
    args = parser.parse_args()
    if not args.trace_diff and args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec_path = os.path.join(args.parent_dir, "BENCHMARK.json")
    try:
        with open(spec_path) as handle:
            spec = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        parser.error("cannot read %s: %s" % (spec_path, error))

    dirs = {"parent": args.parent_dir, "change": args.change_dir}
    if args.trace_diff:
        records = {}
        for side in SIDES:
            records[side] = run_once(dirs[side], args.workload, args.seed,
                                     spec["run_seconds"], trace=1)
            if records[side] is None:
                sys.stderr.write("perfbench_pairs: %s traced run produced "
                                 "no record\n" % side)
                return 1
        print("workload %s, seed %d, %d s traced runs" %
              (args.workload, args.seed, spec["run_seconds"]))
        trace_diff(spec, records["parent"], records["change"])
        return 0
    runs = {side: [] for side in SIDES}
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            record = run_once(dirs[side], args.workload, args.seed,
                              spec["run_seconds"])
            if record is None:
                sys.stderr.write("perfbench_pairs: %s run of pair %d "
                                 "produced no record\n" % (side, pair + 1))
                return 1
            runs[side].append(record)
            sys.stderr.write("pair %d %s done\n" % (pair + 1, side))
    print("workload %s, seed %d, %d s runs, parent first in odd pairs" %
          (args.workload, args.seed, spec["run_seconds"]))
    report(spec, runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
