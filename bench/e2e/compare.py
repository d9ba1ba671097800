#!/usr/bin/env python3
# Copyright 2026 The streambid Authors
"""Compares two result sets of the repo benchmark. Standard library only.

  python3 bench/e2e/compare.py PARENT.json CHANGE.json [--benchmark FILE]
  python3 bench/e2e/compare.py --self-test

PARENT and CHANGE are files written by run.py. Prints one row per
workload x end-to-end metric: each side's median [q1, q3], the pairs
the change won (runs paired by seed), and a verdict under the
choosing-metrics rule for a small sandbox:

  better      the change wins >= 9/10 of the pairs and the medians
              differ by more than the parent's own quartile spread,
              or the spread is wider than the bound but every change
              run beats every parent run;
  unresolved  the quartile spread of either side is wider than the
              metric's bound;
  worse       the change's median is worse than the parent's by more
              than the bound (a share of the parent's median);
  unchanged   otherwise.

failed_fraction = failed / attempted rides along with an absolute bound
of 0.001. Exits 1 if any row is worse or unresolved.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
FAILED_FRACTION_BOUND = 0.001


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound, absolute=False):
    """Returns (verdict, pairs won by the change, pairs)."""
    sign = 1.0 if better == "higher" else -1.0
    q1a, med_a, q3a = quartiles(parent)
    q1b, med_b, q3b = quartiles(change)
    pairs = list(zip(parent, change))
    won = sum(1 for a, b in pairs if sign * (b - a) > 0)
    gain = sign * (med_b - med_a)
    if pairs and won >= 0.9 * len(pairs) and gain > q3a - q1a:
        return "better", won, len(pairs)
    scale = 1.0 if absolute else abs(med_a)
    spread = max(q3a - q1a, q3b - q1b)
    if spread > bound * scale:
        every = (min(change) > max(parent) if sign > 0
                 else max(change) < min(parent))
        return ("better" if every else "unresolved"), won, len(pairs)
    if -gain > bound * scale:
        return "worse", won, len(pairs)
    return "unchanged", won, len(pairs)


def series(result_set, workload, name):
    """Values of one metric, ordered by seed."""
    runs = sorted(result_set["runs"].get(workload, []), key=lambda r: r["seed"])
    if name == "failed_fraction":
        return [r["failed"] / r["attempted"] for r in runs]
    return [r["metrics"][name]["value"] for r in runs
            if name in r["metrics"]]


def compare(parent, change, benchmark):
    """Yields one row dict per workload x end-to-end metric."""
    metrics = [(m["name"], m["unit"], m["better"], m["bound"], False)
               for m in benchmark["end_to_end"]]
    metrics.append(("failed_fraction", "ratio", "lower",
                    FAILED_FRACTION_BOUND, True))
    for workload in (w["name"] for w in benchmark["workloads"]):
        for name, unit, better, bound, absolute in metrics:
            a = series(parent, workload, name)
            b = series(change, workload, name)
            if not a or not b:
                continue
            n = min(len(a), len(b))
            outcome, won, pairs = verdict(a[:n], b[:n], better, bound,
                                          absolute)
            yield {"workload": workload, "metric": name, "unit": unit,
                   "parent": quartiles(a), "change": quartiles(b),
                   "won": won, "pairs": pairs, "verdict": outcome}


def print_rows(rows):
    print(f"{'workload':<14} {'metric':<22} {'parent median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'won':>6}  verdict")
    for row in rows:
        def fmt(q):
            return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"
        print(f"{row['workload']:<14} {row['metric']:<22} "
              f"{fmt(row['parent']):<34} {fmt(row['change']):<34} "
              f"{row['won']:>2}/{row['pairs']:<3}  {row['verdict']}")


def self_test():
    testdata = os.path.join(HERE, "testdata")

    def load(name):
        with open(os.path.join(testdata, name)) as f:
            return json.load(f)

    rows = list(compare(load("compare_parent.json"),
                        load("compare_change.json"),
                        load("compare_benchmark.json")))
    got = {row["metric"]: row["verdict"] for row in rows}
    expected = {
        "queries_per_s": "better",
        "period_ms_p50": "worse",
        "decision_ms_p99": "unresolved",
        "offer_us_p99": "better",
        "allocs_per_query": "unchanged",
        "failed_fraction": "worse",
    }
    print_rows(rows)
    if got != expected:
        print(f"self-test FAILED: got {got}, expected {expected}",
              file=sys.stderr)
        return 1
    print("self-test passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--benchmark",
                        default=os.path.join(ROOT, "BENCHMARK.json"))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        sys.exit(self_test())
    if not args.parent or not args.change:
        parser.error("PARENT and CHANGE result sets are required")
    with open(args.benchmark) as f:
        benchmark = json.load(f)
    with open(args.parent) as f:
        parent = json.load(f)
    with open(args.change) as f:
        change = json.load(f)
    rows = list(compare(parent, change, benchmark))
    print_rows(rows)
    blocking = [r for r in rows if r["verdict"] in ("worse", "unresolved")]
    sys.exit(1 if blocking else 0)


if __name__ == "__main__":
    main()
