#!/usr/bin/env python3
"""Compare a fresh BENCH_*.json against the committed reference.

Matches rows by ``name`` and compares throughput (``items_per_second``;
additionally the headline in ``meta`` when both files carry it:
``messages_per_sec`` for the platform microbench, ``events_per_sec`` for the
event-engine microbench). Memory watermarks (``bytes_per_agent``,
``peak_inbox_depth``, ``peak_resident_bytes``) — whether in ``meta`` or attached to individual
rows, as ``bench_scale`` does per cell — are compared in the opposite
direction: growing past the threshold is the regression. A metric regressing by more than the
threshold is reported; with
``--fail`` the script exits non-zero so CI can gate on it. Rows present only
in the fresh run (new benchmarks) or only in the baseline (removed ones) are
skipped — the gate watches throughput, not coverage. A missing baseline file
is a warning, not an error: a newly added benchmark has no committed
reference on the first run, and the gate should not block the PR that
introduces it. When the two records' ``meta`` differ in ``build``,
``compiler`` or ``hardware_threads`` (a field only one of them carries
counts as a difference), one warning line names each difference: the
numbers were then measured on different builds or hosts. The warning does
not change the exit status.

Usage:
  check_bench_regression.py BASELINE FRESH [--threshold-pct=30] [--fail]
"""

import argparse
import json
import sys


# Fields where *lower* is better: these are resource watermarks, so the
# regression direction is growth. Checked both in ``meta`` and per row.
LOWER_IS_BETTER_META = (
    "bytes_per_agent",
    "peak_inbox_depth",
    "peak_resident_bytes",
)
LOWER_IS_BETTER_ROW = ("bytes_per_agent", "peak_resident_bytes")

# Headline throughputs a bench may carry in ``meta`` (higher is better).
HEADLINES = ("messages_per_sec", "events_per_sec")

# ``meta`` fields that say what a wall-clock number was measured on.
HOST_FIELDS = ("build", "compiler", "hardware_threads")


def load_doc(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def host_differences(baseline_doc, fresh_doc):
    """Return one line per HOST_FIELDS entry the two records disagree on."""

    def field(doc, key):
        meta = doc.get("meta", doc)
        return meta.get(key) if isinstance(meta, dict) else None

    def shown(value):
        return "absent" if value is None else json.dumps(value)

    lines = []
    for key in HOST_FIELDS:
        base, fresh = field(baseline_doc, key), field(fresh_doc, key)
        if base != fresh:
            lines.append(
                f"warning: cross-host comparison: {key} differs "
                f"(baseline {shown(base)}, fresh {shown(fresh)})"
            )
    return lines


def load_rates(doc):
    """Return (higher_is_better, lower_is_better) metric dicts."""
    rates = {}
    lower = {}
    meta = doc.get("meta", doc)
    if isinstance(meta, dict):
        for key in HEADLINES:
            if key in meta:
                rates[f"meta:{key}"] = float(meta[key])
        for key in LOWER_IS_BETTER_META:
            if key in meta and float(meta[key]) > 0:
                lower[f"meta:{key}"] = float(meta[key])
    for row in doc.get("rows", []):
        name = row.get("name")
        if name is None:
            continue
        rate = row.get("items_per_second")
        if rate is not None:
            rates[name] = float(rate)
        for key in LOWER_IS_BETTER_ROW:
            if key in row and float(row[key]) > 0:
                lower[f"{name}:{key}"] = float(row[key])
    return rates, lower


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument("--threshold-pct", type=float, default=30.0)
    parser.add_argument(
        "--fail",
        action="store_true",
        help="exit 1 on regression (default: warn only)",
    )
    args = parser.parse_args()

    try:
        baseline_doc = load_doc(args.baseline)
    except FileNotFoundError:
        print(
            f"baseline {args.baseline} not found; skipping comparison "
            "(commit one from a fresh run to arm the gate)"
        )
        return 0
    fresh_doc = load_doc(args.fresh)
    for line in host_differences(baseline_doc, fresh_doc):
        print(line)
    baseline, baseline_lower = load_rates(baseline_doc)
    fresh, fresh_lower = load_rates(fresh_doc)
    if not baseline and not baseline_lower:
        print(f"no throughput entries in baseline {args.baseline}; skipping")
        return 0

    regressions = []
    for name, base_rate in sorted(baseline.items()):
        if name not in fresh or base_rate <= 0:
            continue  # removed/renamed row, or nothing to compare against
        new_rate = fresh[name]
        delta_pct = 100.0 * (new_rate - base_rate) / base_rate
        marker = ""
        if delta_pct < -args.threshold_pct:
            marker = "  << REGRESSION"
            regressions.append((name, delta_pct))
        print(
            f"{name}: {base_rate / 1e6:.2f}M -> {new_rate / 1e6:.2f}M items/s "
            f"({delta_pct:+.1f}%){marker}"
        )
    for name, base_value in sorted(baseline_lower.items()):
        if name not in fresh_lower or base_value <= 0:
            continue
        new_value = fresh_lower[name]
        delta_pct = 100.0 * (new_value - base_value) / base_value
        marker = ""
        if delta_pct > args.threshold_pct:
            marker = "  << REGRESSION (growth)"
            regressions.append((name, delta_pct))
        print(
            f"{name}: {base_value:.1f} -> {new_value:.1f} "
            f"({delta_pct:+.1f}%, lower is better){marker}"
        )

    if regressions:
        print(
            f"\n{len(regressions)} benchmark(s) regressed more than "
            f"{args.threshold_pct:.0f}% vs {args.baseline}"
        )
        if args.fail:
            return 1
        print("(warn-only mode: not failing the build)")
    else:
        print(f"\nno regressions beyond {args.threshold_pct:.0f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
