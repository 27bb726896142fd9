#!/usr/bin/env python3
"""Build and run the agentloc benchmark.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Builds perfbench/ (which compiles ../src) into .bench_build/perfbench with
an optimized CMake build, runs the benchmark binary, checks its result against
BENCHMARK.json, and prints as the last line of stdout one JSON object with
the keys correct, attempted, failed and metrics. With --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones (a metric of a
layer the workload does not exercise reads 0). Every run also writes its
record, stamped with the environment, under .bench_build/perfbench-out/<code>,
where <code> is a digest of the sources measured (src/ and perfbench/).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def source_digest(dirs):
    """sha256 over every file under `dirs`, so records and the stored
    determinism digests name the code measured, even in a checkout that is
    not a git repository."""
    digest = hashlib.sha256()
    for top in dirs:
        for base, subdirs, files in os.walk(top):
            subdirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_commit():
    # Never report the commit of a repository that merely encloses ROOT.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.SubprocessError) as error:
            fail("build step failed to run: %s" % error)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    src_dir = os.path.join(ROOT, "src")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found next to perfbench/")
    if not os.path.isfile(os.path.join(src_dir, "workload", "experiment.hpp")):
        fail("agentloc sources (src/) not found: nothing to build")
    with open(spec_path) as handle:
        spec = json.load(handle)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)

    # Outputs of one version of the code never meet another's: a change that
    # moves a deterministic counter on purpose starts a fresh digest set.
    code = source_digest([src_dir, HERE])
    build_root = os.path.join(ROOT, ".bench_build")
    build_dir = os.path.join(build_root, "perfbench")
    out_dir = os.path.join(build_root, "perfbench-out", code)
    os.makedirs(out_dir, exist_ok=True)
    build(build_dir)

    binary = os.path.join(build_dir, "agentloc_perfbench")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--out-dir", os.path.relpath(out_dir, ROOT)]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark binary exceeded %d s" % RUN_TIMEOUT_S, 1)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        fail("benchmark binary exited with %d" % done.returncode, 1)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    measured = result["metrics"]
    unknown = sorted(set(measured) - set(units))
    if unknown:
        fail("benchmark binary reported undeclared metrics: %s" %
             ", ".join(unknown), 1)
    metrics = {}
    for name, unit in units.items():
        if name not in measured:
            if not args.trace:
                fail("benchmark binary did not report %s" % name, 1)
            metrics[name] = {"value": 0, "unit": unit}
            continue
        if measured[name]["unit"] != unit:
            fail("%s reported in %s, declared %s" %
                 (name, measured[name]["unit"], unit), 1)
        metrics[name] = measured[name]
    record = {"correct": bool(result["correct"]),
              "attempted": int(result["attempted"]),
              "failed": int(result["failed"]),
              "metrics": metrics}

    stamp = {"git_commit": git_commit(),
             "source_sha256": code,
             "workload": args.workload, "seed": args.seed,
             "seconds": args.seconds, "trace": args.trace}
    for line in lines:
        if line.startswith("env "):
            stamp.update(json.loads(line[4:]))
    print("stamp " + json.dumps(stamp, sort_keys=True))
    path = os.path.join(out_dir, "record-%s-%d-trace%d.json" %
                        (args.workload, args.seed, args.trace))
    with open(path, "w") as handle:
        json.dump({"stamp": stamp, "result": record}, handle, indent=1)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
