#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

usage: python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
       python3 perfbench/run.py --self-test

Run from the root of a source tree. Builds the pp libraries and the
benchmark driver (perfbench/CMakeLists.txt) under $CARGO_TARGET_DIR (default
.bench_build), runs the workload, and prints as its last line one JSON
object with the keys correct, attempted, failed and metrics: every
end-to-end metric of BENCHMARK.json with --trace 0, every per-layer metric
with --trace 1. A per-layer metric the workload does not exercise reads 0.

Every run also writes a result record (host stamp, workload figures,
failures) under <build>/perfbench/results/, and a traced run writes its
spans next to it; perfbench/compare.py compares records.

Refuses to run when any PP_* environment variable is set: those variables
change what the program does.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(targets):
    """Configures and builds \\p targets; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no pp sources at %s/src; run from a source tree" % ROOT)
    out = build_dir()
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target"] + targets)
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=["0", "1"])
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    for name in sorted(os.environ):
        if name.startswith("PP_"):
            fail("refusing to run with %s set: PP_* variables change what "
                 "is measured" % name)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "config.json")) as f:
        config = json.load(f)

    if args.self_test:
        out = build(["perfbench_test"])
        sys.exit(subprocess.run([os.path.join(out, "perfbench_test")]).returncode)

    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error("unknown workload %r (have %s)" % (args.workload,
                                                        ", ".join(names)))

    out = build(["ppbench"])
    results = os.path.join(out, "results")
    os.makedirs(results, exist_ok=True)
    stem = "%s-seed%d-trace%s" % (args.workload, args.seed, args.trace)
    command = [os.path.join(out, "ppbench"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", repr(args.seconds),
               "--trace", args.trace,
               "--work-dir", os.path.join(out, "work", stem),
               "--record", os.path.join(results, stem + ".json"),
               "--spans", os.path.join(results, stem + ".spans.tsv"),
               "--upload-rate", str(config["fleet_ingest"]["upload_rate_per_s"]),
               "--query-rate", str(config["fleet_ingest"]["query_rate_per_s"])]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        fail("ppbench exited with %d" % proc.returncode)
    result = json.loads(lines[-1])

    # The metrics must be exactly BENCHMARK.json's for this mode; per-layer
    # metrics of layers this workload does not load read 0.
    kind = "per_layer" if args.trace == "1" else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[kind]}
    metrics = result["metrics"]
    unknown = sorted(set(metrics) - set(declared))
    if unknown:
        fail("metrics missing from BENCHMARK.json: " + ", ".join(unknown))
    for name, unit in declared.items():
        if name not in metrics:
            if kind == "end_to_end":
                fail("end-to-end metric %s not measured" % name)
            metrics[name] = {"value": 0, "unit": unit}
        elif metrics[name]["unit"] != unit:
            fail("metric %s has unit %s, BENCHMARK.json says %s"
                 % (name, metrics[name]["unit"], unit))
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
