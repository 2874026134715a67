#!/usr/bin/env python3
"""Summarize or compare ds_bench result sets against BENCHMARK.json.

  compare.py BASE_DIR [NEW_DIR] [--benchmark PATH]

A result set is a directory of run outputs saved by `run.sh --out DIR`:
files named <workload>.<i>.txt whose last line is ds_bench's JSON result.
For every (workload, metric) it prints the median, the quartiles
(statistics.quantiles, n=4) and the spread (quartile distance over the
median) of each set.  Given NEW_DIR, it adds the change of the medians
and a verdict, using the metric's direction and bound from BENCHMARK.json
(default: the one at the repo root):

  worse       NEW's median is worse than BASE's by more than the bound;
  better      NEW's median is better by more than BASE's spread, and NEW
              wins at least 9 of 10 pairs (run i of BASE against run i of
              NEW, ties counting for neither);
  unresolved  not worse, but BASE's spread is wider than the bound, and
              not every NEW run beats every BASE run (then: better);
  unchanged   otherwise.

Per-layer metrics have no bound, so they get no verdict.  Exits 1 when any
verdict is `worse` or a run failed a gate.  Python 3 standard library only.
"""

import argparse
import json
import os
import statistics
import sys


def load(directory):
    """{workload: {metric: [values in run order]}}, and gate failures."""
    runs, failures = {}, []
    def order(name):
        stem, _, index = name[:-len(".txt")].rpartition(".")
        return stem, int(index) if index.isdigit() else 0
    for name in sorted((n for n in os.listdir(directory)
                        if n.endswith(".txt")), key=order):
        workload = order(name)[0]
        with open(os.path.join(directory, name)) as f:
            lines = f.read().strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            failures.append(f"{directory}/{name}: no JSON result")
            continue
        if not result.get("correct") or result.get("failed"):
            failures.append(f"{directory}/{name}: correct="
                            f"{result.get('correct')} failed="
                            f"{result.get('failed')}")
        for metric, m in result["metrics"].items():
            runs.setdefault(workload, {}).setdefault(metric, []).append(
                m["value"])
    return runs, failures


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def verdict(base, new, lower_is_better, bound):
    sign = 1.0 if lower_is_better else -1.0
    b_med, n_med = quartiles(base)[1], quartiles(new)[1]
    worsening = sign * (n_med - b_med) / abs(b_med)  # > 0: worse

    def beats(x, y):
        return sign * (y - x) > 0

    if worsening > bound:
        return "worse"
    base_spread = spread(base)
    if base_spread > bound:
        if all(beats(n, b) for n in new for b in base):
            return "better"
        return "unresolved"
    wins = sum(beats(n, b) for b, n in zip(base, new))
    if -worsening > base_spread and wins >= 0.9 * min(len(base), len(new)):
        return "better"
    return "unchanged"


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("base")
    parser.add_argument("new", nargs="?")
    here = os.path.dirname(os.path.abspath(__file__))
    parser.add_argument("--benchmark", default=os.path.join(
        here, "..", "..", "BENCHMARK.json"))
    args = parser.parse_args()

    with open(args.benchmark) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, failures = load(args.base)
    new, new_failures = load(args.new) if args.new else ({}, [])
    failures += new_failures

    def cell(values):
        q1, q2, q3 = quartiles(values)
        return f"{q2:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}"

    any_worse = False
    for w in spec["workloads"]:
        workload = w["name"]
        for name, m in metrics.items():
            b = base.get(workload, {}).get(name)
            if not b:
                continue
            line = (f"{workload:12} {name:20} {m['unit']:6} "
                    f"base {cell(b)} spread {spread(b):.3f}")
            n = new.get(workload, {}).get(name)
            if n:
                change = (quartiles(n)[1] - quartiles(b)[1]) / abs(
                    quartiles(b)[1])
                line += f" | new {cell(n)} change {change:+.3f}"
                if "bound" in m:
                    v = verdict(b, n, m["better"] == "lower", m["bound"])
                    any_worse = any_worse or v == "worse"
                    line += f" {v} (bound {m['bound']})"
            print(line)
    for failure in failures:
        print(f"gate: {failure}")
    sys.exit(1 if any_worse or failures else 0)


if __name__ == "__main__":
    main()
