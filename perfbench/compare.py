#!/usr/bin/env python3
"""Summarise one result set, or compare two, per (workload, metric).

Usage, from the repository root:

    python3 perfbench/compare.py BASE.jsonl [CHANGE.jsonl] [--bench BENCHMARK.json]

Each file holds result objects appended by `perfbench/run.py --out`. For
every (workload, metric) the report gives each side's median and
quartiles (`statistics.quantiles(n=4)`) and the spread, the distance
between the quartiles as a share of the median. With two sets, runs are
paired by seed (in file order when seeds differ) and the report counts
the pairs the change won, ties counting for neither side, and a verdict
on end-to-end metrics:

- `regression`: the change's median is worse than the base's by more than
  the bound (when the base's spread exceeds the bound, only if every
  change run is worse than every base run);
- `gain`: the change won at least nine tenths of the pairs and the medians
  differ by more than the base's quartile distance;
- `better`: every change run beats every base run, short of a gain;
- `unresolved`: the base's spread is wider than the metric's bound;
- `same`: none of these.

Per-layer metrics have no bound and get no verdict.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict


def load(path):
    runs = defaultdict(list)  # (workload, trace) -> [result]
    with open(path) as f:
        for line in f:
            if line.strip():
                r = json.loads(line)
                runs[(r["workload"], r["trace"])].append(r)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def summary(values):
    q1, q2, q3 = quartiles(values)
    return f"{q2:.6g} [{q1:.6g}, {q3:.6g}]"


def pairs(base, change):
    by_seed = {r["seed"]: r for r in change}
    if all(r["seed"] in by_seed for r in base):
        return [(r, by_seed[r["seed"]]) for r in base]
    return list(zip(base, change))


def verdict(b, c, better, bound, won, n_pairs):
    lower = better == "lower"
    q1, med_b, q3 = quartiles(b)
    med_c = statistics.median(c)
    worse = (med_c - med_b) / abs(med_b) if lower else (med_b - med_c) / abs(med_b)
    all_better = max(c) < min(b) if lower else min(c) > max(b)
    all_worse = min(c) > max(b) if lower else max(c) < min(b)
    noisy = spread(b) > bound
    if worse > bound and (not noisy or all_worse):
        return "regression"
    if n_pairs and won >= 0.9 * n_pairs and abs(med_c - med_b) > (q3 - q1):
        return "gain"
    if all_better:
        return "better"
    return "unresolved" if noisy else "same"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("change", nargs="?")
    ap.add_argument("--bench", default="BENCHMARK.json")
    args = ap.parse_args()
    with open(args.bench) as f:
        bench = json.load(f)
    meta = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}

    base = load(args.base)
    change = load(args.change) if args.change else None
    head = f"{'workload':<18} {'metric':<26} {'base median [q1, q3]':<36} {'spread':>7}"
    if change is not None:
        head += f"  {'change median [q1, q3]':<36} {'spread':>7} {'won':>7}  verdict"
    print(head)
    for (workload, trace), runs in sorted(base.items()):
        other = change.get((workload, trace), []) if change is not None else []
        for name in runs[0]["metrics"]:
            b = [r["metrics"][name]["value"] for r in runs]
            line = f"{workload:<18} {name:<26} {summary(b):<36} {spread(b):>7.3f}"
            if other:
                c = [r["metrics"][name]["value"] for r in other]
                m = meta.get(name, {})
                better = m.get("better", "lower")
                won = sum(
                    1
                    for rb, rc in pairs(runs, other)
                    if (vb := rb["metrics"][name]["value"]) != (vc := rc["metrics"][name]["value"])
                    and (vc < vb) == (better == "lower")
                )
                n = len(pairs(runs, other))
                v = verdict(b, c, better, m["bound"], won, n) if "bound" in m else "-"
                line += f"  {summary(c):<36} {spread(c):>7.3f} {won:>3}/{n:<3}  {v}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
