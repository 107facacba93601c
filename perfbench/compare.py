#!/usr/bin/env python3
"""Summarises benchmark result sets and compares two of them.

Usage:
  python3 perfbench/compare.py BASE.jsonl [CHANGE.jsonl]

Each file holds the lines `perfbench/run.py --out FILE` appends: one result
per run, tagged with its workload, seed and trace mode. For every workload
and metric this prints the median and quartiles of each set (Python's
statistics.quantiles, n=4) and the spread: the interquartile distance as a
share of the median. With two sets it also prints the change of the
medians, signed so that a positive number is worse, and flags:

  WORSE  the change's median is worse than the base's by more than the
         metric's bound in BENCHMARK.json;
  NOISY  a set's spread exceeds the bound, so a difference of that size
         cannot be told from run-to-run noise (report it as unresolved).

Per-layer metrics have no bound; they are listed for explanation only.
Exits 1 if any end-to-end metric is flagged WORSE.
"""
import json
import os
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    metrics.update({m["name"]: m for m in spec["per_layer"]})
    return metrics


def load(path):
    """{(workload, trace): {metric: [values]}} plus op counts."""
    sets = defaultdict(lambda: defaultdict(list))
    ops = defaultdict(list)
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            key = (rec["workload"], rec["trace"])
            ops[key].append(rec["result"]["attempted"])
            for name, m in rec["result"]["metrics"].items():
                sets[key][name].append(m["value"])
    return sets, ops


def summary(values):
    """(median, q1, q3, spread) of a list of runs."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return med, q1, q3, spread


def worse_by(base, change, better):
    """Relative change of the medians, positive when `change` is worse."""
    if base == 0:
        return 0.0 if change == 0 else float("inf")
    rel = (change - base) / abs(base)
    return rel if better == "lower" else -rel


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    spec = load_spec()
    base, base_ops = load(argv[1])
    change, change_ops = load(argv[2]) if len(argv) == 3 else ({}, {})
    regressed = False
    for key in sorted(base):
        workload, trace = key
        print("== %s (%s)  runs=%d  ops/run median=%d" % (
            workload, "per-layer" if trace else "end-to-end",
            len(base_ops[key]), statistics.median(base_ops[key])))
        for name in sorted(base[key]):
            m = spec.get(name, {})
            bound = m.get("bound")
            bmed, bq1, bq3, bspread = summary(base[key][name])
            line = "  %-28s %-6s %12.6g [%-10.6g %10.6g] spread %6.1f%%" % (
                name, m.get("unit", "?"), bmed, bq1, bq3, 100 * bspread)
            flags = []
            if bound is not None:
                line += "  bound %4.1f%%" % (100 * bound)
                if bspread > bound:
                    flags.append("NOISY")
            if key in change and name in change[key]:
                cmed, cq1, cq3, cspread = summary(change[key][name])
                delta = worse_by(bmed, cmed, m.get("better", "lower"))
                line += "  | %12.6g [%-10.6g %10.6g] spread %6.1f%%  worse %+6.1f%%" % (
                    cmed, cq1, cq3, 100 * cspread, 100 * delta)
                if bound is not None:
                    if cspread > bound:
                        flags.append("NOISY")
                    if delta > bound:
                        flags.append("WORSE")
                        regressed = True
            print(line + ("  " + " ".join(sorted(set(flags))) if flags else ""))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
