#!/usr/bin/env python3
"""Check that a fresh fixed-seed BENCH_*.json equals the committed record.

For benches whose results are fixed by the seed (simulated time, event
counts, query answers), any change is a behaviour change, so the gate is
exact rather than a percentage threshold. Rows are matched by ``name`` when
every row has one, and by position when none has; every other field must be
equal, except the host-dependent ones listed in ``HOST_FIELDS``. The script
fails on a file that mixes named and unnamed rows, on a row missing from
either file (for unnamed rows: on a row-count mismatch), and on any field
that differs or exists in only one of the two rows. ``meta`` is not
compared: it carries host facts (``hardware_threads``) and sums of the row
values.

Usage:
  check_bench_exact.py BASELINE FRESH
"""

import argparse
import json
import sys

HOST_FIELDS = frozenset(
    {"threads", "wall_seconds", "events_per_sec", "items_per_second"}
)


def load_rows(path):
    """Return ({key: row}, named) for the rows of one BENCH file: keyed by
    ``name`` when every row has one, else by position ("row 0", ...)."""
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    rows = doc.get("rows", [])
    named = sum(1 for row in rows if "name" in row)
    if named == 0:
        return {f"row {index}": row for index, row in enumerate(rows)}, False
    if named != len(rows):
        raise ValueError(f"{path}: mixes named and unnamed rows")
    keyed = {}
    for row in rows:
        if row["name"] in keyed:
            raise ValueError(f"{path}: duplicate row name {row['name']}")
        keyed[row["name"]] = row
    return keyed, True


def compare(baseline, fresh):
    """Return one message per difference between the two row sets."""
    problems = []
    for name in sorted(baseline.keys() - fresh.keys()):
        problems.append(f"{name}: missing from the fresh run")
    for name in sorted(fresh.keys() - baseline.keys()):
        problems.append(f"{name}: not in the baseline")
    for name in sorted(baseline.keys() & fresh.keys()):
        old, new = baseline[name], fresh[name]
        for key in sorted((old.keys() | new.keys()) - HOST_FIELDS):
            if key not in old:
                problems.append(f"{name}: {key} not in the baseline")
            elif key not in new:
                problems.append(f"{name}: {key} missing from the fresh run")
            elif old[key] != new[key]:
                problems.append(f"{name}: {key} {old[key]!r} -> {new[key]!r}")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    args = parser.parse_args()

    try:
        baseline, baseline_named = load_rows(args.baseline)
        fresh, fresh_named = load_rows(args.fresh)
    except (OSError, ValueError) as error:
        print(error)
        return 1
    if not baseline:
        print(f"no rows in baseline {args.baseline}")
        return 1
    if fresh and baseline_named != fresh_named:
        print("one file names its rows and the other does not")
        return 1

    problems = []
    if not baseline_named and len(baseline) != len(fresh):
        problems.append(f"row count {len(baseline)} -> {len(fresh)}")
    problems += compare(baseline, fresh)
    for problem in problems:
        print(problem)
    if problems:
        print(
            f"\n{len(problems)} difference(s) against {args.baseline}; a "
            "fixed-seed result changed, so either the change is a bug or "
            "the record must be regenerated and the change explained"
        )
        return 1
    print(f"{len(baseline)} rows identical to {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
