#!/usr/bin/env python3
"""Compare two sets of benchmark runs, workload by workload.

  python3 bench/e2e/compare.py BASE_DIR CHANGE_DIR [--benchmark BENCHMARK.json]

Each directory is a useful_bench --out directory holding one file per run,
<dir>/<workload>/seed<N>-trace<T>.json. Runs of the two sides are paired
by seed; run the same seeds on both sides, alternating which side runs
first. For every number the report gives each side's median and quartiles,
the change's wins over the pairs (ties count for neither), and a verdict.

Gated metrics (the end_to_end list of BENCHMARK.json) carry a bound, a
share of the base median. They are labelled, in this order:

  improved    the change is better in at least 9 of every 10 pairs and
              the medians differ by more than the base side's
              interquartile distance;
  regressed   the change's median is worse than the base median by more
              than the bound, and either the change is worse in at least
              9 of every 10 pairs, every change run is worse than every
              base run, or the base side's interquartile distance is
              within the bound;
  unresolved  the base side's interquartile distance is wider than the
              bound, unless every change run is better than every base
              run;
  unchanged   otherwise.

The other numbers of a run (latency, capacity, and cost at trace 0; the
per-layer metrics at trace 1) carry no bound, because their run-to-run
spread on the calibration box is wider than any bound could be. They get
the same pair rule both ways: improved, worse, or unresolved.

A side with a failed or incorrect run is reported as such, not compared,
and makes the exit status 1, as does any regressed metric.
"""
import argparse
import glob
import json
import os
import re
import statistics
import sys


def load_runs(directory, trace):
    """{workload: {seed: result}} for one side and trace level."""
    runs = {}
    pattern = os.path.join(directory, "*", f"seed*-trace{trace}.json")
    for path in glob.glob(pattern):
        seed = int(re.search(r"seed(\d+)-trace", path).group(1))
        with open(path) as f:
            result = json.load(f)
        runs.setdefault(result["workload"], {})[seed] = result
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(lower, bound, base, change):
    """base, change: {seed: value}. bound None: an ungated number."""
    def better(x, y):
        return x < y if lower else x > y

    pairs = sorted(set(base) & set(change))
    wins = sum(1 for s in pairs if better(change[s], base[s]))
    losses = sum(1 for s in pairs if better(base[s], change[s]))
    b1, bm, b3 = quartiles(list(base.values()))
    c1, cm, c3 = quartiles(list(change.values()))
    apart = abs(cm - bm) > b3 - b1
    mostly_better = pairs and wins * 10 >= 9 * len(pairs)
    mostly_worse = pairs and losses * 10 >= 9 * len(pairs)
    if mostly_better and better(cm, bm) and apart:
        label = "improved"
    elif bound is None:
        label = "worse" if mostly_worse and better(bm, cm) and apart \
            else "unresolved"
    else:
        all_better = all(better(c, b) for c in change.values()
                         for b in base.values())
        all_worse = all(better(b, c) for c in change.values()
                        for b in base.values())
        wide = b3 - b1 > bound * abs(bm)
        beyond = (cm - bm if lower else bm - cm) > bound * abs(bm)
        if beyond and (mostly_worse or all_worse or not wide):
            label = "regressed"
        elif wide and not all_better:
            label = "unresolved"
        else:
            label = "unchanged"
    return (b1, bm, b3), (c1, cm, c3), wins, len(pairs), label


def fmt(q):
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def report(title, b_runs, c_runs, rows):
    """rows: (name, key, lower, bound, unit). Returns True on a regression
    or a failed run."""
    print(f"\n== {title}: {len(b_runs)} base runs, {len(c_runs)} change runs")
    if not b_runs or not c_runs:
        print("   missing runs; nothing to compare")
        return False
    bad = [f"{side} seed {s}"
           for side, runs in (("base", b_runs), ("change", c_runs))
           for s, r in runs.items() if not r["correct"] or r["failed"]]
    if bad:
        print("   FAILED runs: " + ", ".join(bad))
        return True
    print(f"   {'metric':30s} {'base median [q1, q3]':34s} "
          f"{'change median [q1, q3]':34s} {'wins':>7s}  verdict")
    regressed = False
    for name, key, lower, bound, unit in rows:
        b = {s: r[key][name]["value"] for s, r in b_runs.items()
             if name in r[key]}
        c = {s: r[key][name]["value"] for s, r in c_runs.items()
             if name in r[key]}
        if not b or not c:
            continue
        bq, cq, wins, pairs, label = verdict(lower, bound, b, c)
        regressed |= label == "regressed"
        print(f"   {name:30s} {fmt(bq):34s} {fmt(cq):34s} "
              f"{wins:>3d}/{pairs:<3d}  {label}  {unit}")
    return regressed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default="BENCHMARK.json")
    args = parser.parse_args()
    with open(args.benchmark) as f:
        spec = json.load(f)

    failed = False
    for trace in (0, 1):
        base = load_runs(args.base, trace)
        change = load_runs(args.change, trace)
        for workload in (w["name"] for w in spec["workloads"]):
            b_runs, c_runs = base.get(workload, {}), change.get(workload, {})
            if not b_runs and not c_runs:
                continue
            if trace == 0:
                rows = [(m["name"], "metrics", m["better"] == "lower",
                         m["bound"], m["unit"]) for m in spec["end_to_end"]]
                # The run's other numbers, with the direction it stored.
                sample = next(iter((b_runs or c_runs).values()))
                rows += [(name, "info", m["better"] == "lower", None,
                          m["unit"]) for name, m in sample["info"].items()]
            else:
                rows = [(m["name"], "metrics", m["better"] == "lower", None,
                         m["unit"]) for m in spec["per_layer"]]
            failed |= report(f"{workload}, trace {trace}", b_runs, c_runs,
                             rows)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
