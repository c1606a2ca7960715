#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each set is a runs.jsonl written by run.py (one record per run); the bounds
come from the repository's BENCHMARK.json.  For every workload and
end-to-end metric the table shows each side's median and quartiles, the
pairs the change wins (a pair is the two sides' runs of one seed; ties count
for neither side; runs whose seed the other side lacks, or repeats, stay
unpaired and are counted), and a verdict:

  unresolved  the spread (quartile distance over median) of either side
              exceeds the metric's bound, unless every change run beats
              every base run;
  +x% / -x%   the medians differ by more than the bound (the sign says
              better or worse);
  ~           within the bound.

Exact counters are compared for every workload and seed present in both
sets: any difference is listed, because those counts must repeat exactly.
"""
import argparse
import json
import os
import statistics
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "BENCHMARK.json")


def load_runs(path, trace=0):
    if os.path.isdir(path):
        path = os.path.join(path, "runs.jsonl")
    runs = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line:
                rec = json.loads(line)
                if rec.get("trace", 0) == trace:
                    runs.append(rec)
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def better(a, b, direction):
    """1 if b is better than a, -1 if worse, 0 on a tie."""
    if a == b:
        return 0
    return 1 if (b < a) == (direction == "lower") else -1


def values(runs, name):
    return [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]


def by_seed(runs, name):
    """{seed: value} of one metric; a seed that occurs more than once maps to
    None, since it cannot be paired."""
    out = {}
    for r in runs:
        if name in r["metrics"]:
            out[r["seed"]] = None if r["seed"] in out else r["metrics"][name]["value"]
    return out


def compare(base, change, spec):
    rows = []
    workloads = sorted({r["workload"] for r in base} & {r["workload"] for r in change})
    for w in workloads:
        a_runs = [r for r in base if r["workload"] == w]
        b_runs = [r for r in change if r["workload"] == w]
        for m in spec["end_to_end"]:
            name, bound, direction = m["name"], m["bound"], m["better"]
            a, b = values(a_runs, name), values(b_runs, name)
            if not a or not b:
                continue
            a_seed, b_seed = by_seed(a_runs, name), by_seed(b_runs, name)
            pairs = [(a_seed[s], b_seed[s]) for s in sorted(a_seed.keys() & b_seed.keys())
                     if a_seed[s] is not None and b_seed[s] is not None]
            unpaired = len(a) + len(b) - 2 * len(pairs)
            wins = sum(1 for x, y in pairs if better(x, y, direction) > 0)
            qa, qb = quartiles(a), quartiles(b)
            delta = (qb[1] - qa[1]) / qa[1] if qa[1] else float("inf")
            dominates = all(better(x, y, direction) > 0 for x in a for y in b)
            if (spread(a) > bound or spread(b) > bound) and not dominates:
                verdict = "unresolved"
            elif abs(delta) > bound:
                gain = (delta < 0) == (direction == "lower")
                verdict = "%+.1f%% %s" % (100 * delta, "better" if gain else "WORSE")
            else:
                verdict = "~"
            rows.append((w, name, m["unit"], qa, qb, wins, len(pairs), unpaired, spread(a),
                          spread(b), bound, verdict))
    return rows


def exact_mismatches(base, change):
    out = []
    index = {(r["workload"], r["seed"]): r for r in base}
    for r in change:
        other = index.get((r["workload"], r["seed"]))
        if other is None:
            continue
        for k in sorted(set(other["exact"]) | set(r["exact"])):
            if other["exact"].get(k) != r["exact"].get(k):
                out.append("%s seed %d %s: %s -> %s" % (r["workload"], r["seed"], k,
                                                      other["exact"].get(k), r["exact"].get(k)))
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("change")
    args = ap.parse_args(argv)
    with open(BENCHMARK, encoding="utf-8") as f:
        spec = json.load(f)
    base, change = load_runs(args.base), load_runs(args.change)

    print("%-14s %-17s %-5s %32s %32s %7s %8s %13s  %s" % (
        "workload", "metric", "unit", "base q1/median/q3", "change q1/median/q3", "won",
        "unpaired", "spread a/b", "verdict"))
    for w, name, unit, qa, qb, wins, n, unpaired, sa, sb, bound, verdict in compare(
            base, change, spec):
        print("%-14s %-17s %-5s %10.4g %10.4g %10.4g %10.4g %10.4g %10.4g %3d/%-3d %8d "
              "%6.3f/%-6.3f  %s" % (w, name, unit, qa[0], qa[1], qa[2], qb[0], qb[1], qb[2],
                                    wins, n, unpaired, sa, sb, verdict))
    mismatches = exact_mismatches(base, change)
    for line in mismatches:
        print("EXACT MISMATCH " + line)
    if not mismatches:
        print("exact counters: identical for every workload and seed in both sets")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
