#!/usr/bin/env python3
"""A/B comparison of anc_bench runs on one machine.

    python3 anc_bench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds one JSON line per run, as `anc_bench --json=PATH` appends
them (each line names its workload). The i-th parent run of a workload is
paired with its i-th change run, so alternate the two builds while
collecting (see README.md). For every workload and metric this prints
each side's median and quartiles and how many pairs the change won, then
a verdict under the rules of BENCHMARK.json:

  gain        the change won at least 9/10 of the pairs (ties count for
              neither side) and the medians differ by more than the
              parent's interquartile range
  regression  the change's median is worse than the parent's by more than
              the metric's bound
  unresolved  a side's spread (IQR over median) exceeds the bound, and not
              every change run beats every parent run
  same        none of the above

Per-layer metrics have no bound, so they are only checked for a gain.
"""

import argparse
import json
import pathlib
import statistics
import sys

MIN_PAIRS = 10
GAIN_WIN_SHARE = 0.9


def load_runs(path):
    runs = {}
    for line in pathlib.Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        row = json.loads(line)
        runs.setdefault(row["workload"], []).append(row)
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def describe(values):
    q1, med, q3 = quartiles(values)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


def verdict(parent, change, better, bound):
    """Returns (wins, verdict) for paired samples of one metric."""
    sign = 1 if better == "higher" else -1
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    if len(pairs) < MIN_PAIRS:
        return wins, f"too few pairs (<{MIN_PAIRS})"
    if (wins >= GAIN_WIN_SHARE * len(pairs) and sign * (c_med - p_med) > 0
            and abs(c_med - p_med) > p_q3 - p_q1):
        return wins, "gain"
    if bound is None:
        return wins, "same"
    if p_med and sign * (c_med - p_med) < -bound * abs(p_med):
        return wins, "regression"
    spread = max((p_q3 - p_q1) / abs(p_med) if p_med else 0.0,
                 (c_q3 - c_q1) / abs(c_med) if c_med else 0.0)
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread > bound and not all_better:
        return wins, "unresolved"
    return wins, "same"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default=str(
        pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"))
    args = parser.parse_args()

    spec = json.loads(pathlib.Path(args.benchmark).read_text())
    direction, bounds = {}, {}
    for m in spec["end_to_end"]:
        direction[m["name"]] = m["better"]
        bounds[m["name"]] = m["bound"]
    for m in spec["per_layer"]:
        direction[m["name"]] = m["better"]

    parent, change = load_runs(args.parent), load_runs(args.change)
    print(f"{'workload':<14} {'metric':<32} {'parent median [q1, q3]':<38} "
          f"{'change median [q1, q3]':<38} {'wins':<7} verdict")
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        n = min(len(p_runs), len(c_runs))
        for metric in p_runs[0]["metrics"]:
            if metric not in direction:
                continue
            p = [r["metrics"][metric]["value"] for r in p_runs[:n]]
            c = [r["metrics"][metric]["value"] for r in c_runs[:n]]
            wins, word = verdict(p, c, direction[metric], bounds.get(metric))
            print(f"{workload:<14} {metric:<32} {describe(p):<38} "
                  f"{describe(c):<38} {f'{wins}/{n}':<7} {word}")
        failed = sum(r["failed"] for r in c_runs[:n])
        if failed:
            print(f"{workload:<14} change runs report {failed} failed ops")
    return 0


if __name__ == "__main__":
    sys.exit(main())
