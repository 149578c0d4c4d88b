#!/usr/bin/env python3
"""Gate a fast-vs-reference bench run against its committed baseline.

The hotpath and simulator benches measure the optimized and
retained-reference implementations in the same process, so their speedup
ratios are machine-relative and comparable across hosts (absolute
events/sec are not).  This script therefore checks ratios, not rates:

  * keys with an absolute floor must stay at or above it.  Floors come
    from the baseline file's "floors" object;
  * no speedup may regress more than --tolerance (default 20%) below
    the committed baseline's value for the same key.

Unfloored speedups are reported and regression-checked only: on small
CI boxes some ratios are noise-dominated.

Usage:
  tools/check_bench.py BENCH_hotpath.json --baseline bench/baseline/BENCH_hotpath.json
  tools/check_bench.py BENCH_sim.json --baseline bench/baseline/BENCH_sim.json
"""

import argparse
import json
import sys

def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except OSError as e:
        sys.exit(f"{path}: cannot read bench file: {e.strerror or e}")
    except json.JSONDecodeError as e:
        sys.exit(f"{path}: not valid JSON: {e}")
    if not isinstance(data, dict) or "speedups" not in data:
        sys.exit(f"{path}: no 'speedups' object (not a speedup bench file?)")
    speedups = data["speedups"]
    if not isinstance(speedups, dict):
        sys.exit(f"{path}: 'speedups' is not an object")
    for key, value in speedups.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            sys.exit(f"{path}: speedup '{key}' is not a number: {value!r}")
    floors = data.get("floors")
    if floors is not None:
        if not isinstance(floors, dict):
            sys.exit(f"{path}: 'floors' is not an object")
        for key, value in floors.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                sys.exit(f"{path}: floor '{key}' is not a number: {value!r}")
    return data


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("result", help="bench JSON from this run")
    ap.add_argument("--baseline", required=True,
                    help="committed baseline bench JSON")
    ap.add_argument("--tolerance", type=float, default=0.20,
                    help="allowed fractional regression vs baseline")
    args = ap.parse_args()

    result = load(args.result)
    baseline = load(args.baseline)
    floors = baseline.get("floors", {})

    failures = []
    for key, base in sorted(baseline["speedups"].items()):
        got = result["speedups"].get(key)
        if got is None:
            sys.exit(f"{args.result}: baseline key '{key}' missing from "
                     f"'speedups' (did the bench emit all keys?)")
        allowed = base * (1.0 - args.tolerance)
        verdict = "ok"
        if got < allowed:
            verdict = f"REGRESSION (>{args.tolerance:.0%} below baseline)"
            failures.append(f"{key}: {got:.2f}x < {allowed:.2f}x allowed "
                            f"(baseline {base:.2f}x)")
        floor = floors.get(key)
        if floor is not None and got < floor:
            verdict = f"BELOW FLOOR ({floor:.1f}x)"
            failures.append(f"{key}: {got:.2f}x < {floor:.1f}x floor")
        print(f"  {key:20s} {got:6.2f}x  (baseline {base:.2f}x) {verdict}")

    if failures:
        print("\nbench check FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    floors_desc = ", ".join(
        f"{k}>={v:.1f}x" for k, v in sorted(floors.items())) or "none"
    print("\nbench check passed "
          f"(tolerance {args.tolerance:.0%}; floors: {floors_desc})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
