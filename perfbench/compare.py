#!/usr/bin/env python3
"""Compares two sets of benchmark result records.

usage: python3 perfbench/compare.py BASE CHANGE

BASE and CHANGE are directories of result records written by run.py (or
single record files). For every workload and end-to-end metric present in
both, prints each side's median and quartiles and the change of the
median as a share of the base median, flagging a change worse than the
metric's bound in BENCHMARK.json. Untraced records only.

Refuses (exit 2) when any two records carry different host stamps
(cores, CPU model, compiler, build type): numbers from different hosts or
builds are not comparable. Exits 1 when a metric regressed beyond its
bound, 0 otherwise.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    files = [path] if os.path.isfile(path) else sorted(
        os.path.join(path, name) for name in os.listdir(path)
        if name.endswith(".json"))
    records = []
    for name in files:
        with open(name) as f:
            record = json.load(f)
        if record.get("trace") == 0:
            records.append(record)
    return records


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, change = load(argv[1]), load(argv[2])
    if not base or not change:
        print("compare: no untraced result records", file=sys.stderr)
        return 2
    stamps = {json.dumps(r["stamp"], sort_keys=True) for r in base + change}
    if len(stamps) != 1:
        print("compare: refusing to compare results from different hosts "
              "or builds:", file=sys.stderr)
        for stamp in sorted(stamps):
            print("  " + stamp, file=sys.stderr)
        return 2

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = {m["name"]: m for m in json.load(f)["end_to_end"]}
    regressed = False
    print("%-14s %-18s %28s %28s %8s" % ("workload", "metric", "base q1/med/q3",
                                         "change q1/med/q3", "delta"))
    for workload in sorted({r["workload"] for r in base}):
        for name, spec in metrics.items():
            sides = []
            for records in (base, change):
                values = [r["result"]["metrics"][name]["value"]
                          for r in records if r["workload"] == workload
                          and name in r["result"]["metrics"]]
                sides.append(values)
            if not sides[0] or not sides[1]:
                continue
            (b1, bm, b3), (c1, cm, c3) = quartiles(sides[0]), quartiles(sides[1])
            delta = (cm - bm) / bm if bm else 0.0
            worse = delta if spec["better"] == "lower" else -delta
            flag = " REGRESSED" if worse > spec["bound"] else ""
            regressed |= bool(flag)
            print("%-14s %-18s %9.4g/%8.4g/%8.4g %9.4g/%8.4g/%8.4g %+7.1f%%%s"
                  % (workload, name, b1, bm, b3, c1, cm, c3, 100 * delta, flag))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
