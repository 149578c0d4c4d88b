#!/usr/bin/env python3
"""Compares two sets of ledger results metric by metric.

    bench/ledger/compare.py A.jsonl B.jsonl

A and B are files of run records, one JSON object per line, as
`run.sh --record FILE` (or `ledger --record FILE`) appends them; A is the
baseline.  For every workload in both sets and every end-to-end metric in
BENCHMARK.json, it compares the medians of B against A under the metric's
bound and prints one verdict:

  worse       B's median is worse than A's by more than the bound
  improved    B's median is better than A's by more than the bound
  unchanged   the medians differ by no more than the bound
  unresolved  the run-to-run spread (quartile distance over the median, on
              either side) is wider than the bound, so the bound cannot
              tell a change from noise - unless every B run reads better
              than every A run, which counts as improved

Spread needs at least four runs a side; with fewer, only the medians are
compared.  Exits 1 when any metric is worse or B has failed operations that
A did not, else 0.
"""
import json
import os
import statistics
import sys


def load_records(path):
    runs = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                record = json.loads(line)
                runs.setdefault(record["workload"], []).append(record)
    return runs


def spread(values):
    if len(values) < 4:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(a, b, bound, lower_is_better):
    sign = 1.0 if lower_is_better else -1.0
    a_med, b_med = statistics.median(a), statistics.median(b)
    worse_by = sign * (b_med - a_med) / a_med
    spreads = [s for s in (spread(a), spread(b)) if s is not None]
    noisy = spreads and max(spreads) > bound
    all_better = (max(b) < min(a)) if lower_is_better else (min(b) > max(a))
    if noisy:
        return worse_by, ("improved" if all_better else "unresolved")
    if worse_by > bound:
        return worse_by, "worse"
    if -worse_by > bound:
        return worse_by, "improved"
    return worse_by, "unchanged"


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "..", "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    a_runs, b_runs = load_records(argv[1]), load_records(argv[2])
    status = 0
    print(f"{'workload':20} {'metric':14} {'A median':>12} {'B median':>12} "
          f"{'worse by':>9} {'bound':>6}  verdict")
    for workload in [w["name"] for w in benchmark["workloads"]]:
        a, b = a_runs.get(workload), b_runs.get(workload)
        if not a or not b:
            continue
        a_failed = sum(r["failed"] for r in a)
        b_failed = sum(r["failed"] for r in b)
        if b_failed > a_failed:
            print(f"{workload:20} failed operations: "
                  f"A {a_failed}, B {b_failed}")
            status = 1
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            av = [r["metrics"][name]["value"] for r in a
                  if name in r["metrics"]]
            bv = [r["metrics"][name]["value"] for r in b
                  if name in r["metrics"]]
            if not av or not bv:
                continue
            worse_by, result = verdict(av, bv, metric["bound"],
                                       metric["better"] == "lower")
            if result == "worse":
                status = 1
            print(f"{workload:20} {name:14} {statistics.median(av):12.6g} "
                  f"{statistics.median(bv):12.6g} {worse_by:+9.3f} "
                  f"{metric['bound']:6.2f}  {result}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
