"""Compare two sets of benchmark runs (A/A, or parent A against change B).

    python3 genbench/compare.py DIR_A DIR_B

Each directory holds the run records that run.py writes (--out DIR), one
<workload>.s<seed>.t0.json per run. For every workload and end-to-end
metric the table gives each side's median and quartiles (Python's
statistics.quantiles, n=4), the spread of A (quartile distance over
median), B's paired wins (runs paired by seed where both sides have it,
else in seed order), the gap of B's median against A's, signed so that a
positive gap is worse, and whether that gap stays within the metric's
bound from BENCHMARK.json. It also compares each side's share of failed
operations. Exits 1 if any gap is outside its bound or the shares differ.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory):
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.t0.json"))):
        with open(path, encoding="utf-8") as f:
            rec = json.load(f)
        runs.setdefault(rec["workload"], []).append(rec)
    for recs in runs.values():
        recs.sort(key=lambda r: r["seed"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def pairs(a, b):
    by_seed = {r["seed"]: r for r in b}
    common = [r for r in a if r["seed"] in by_seed]
    if common:
        return [(r, by_seed[r["seed"]]) for r in common]
    return list(zip(a, b))


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        metrics = json.load(f)["end_to_end"]
    side_a, side_b = load(argv[0]), load(argv[1])
    ok = True
    header = (f"{'workload':<17} {'metric':<13} {'n':>5} {'median A':>12} "
              f"{'q1..q3 A':>23} {'spread A':>8} {'median B':>12} "
              f"{'q1..q3 B':>23} {'B wins':>7} {'gap':>7} {'bound':>5}  ok")
    print(header)
    for workload in sorted(set(side_a) | set(side_b)):
        a, b = side_a.get(workload, []), side_b.get(workload, [])
        if not a or not b:
            print(f"{workload:<17} missing on side {'A' if not a else 'B'}")
            ok = False
            continue
        for m in metrics:
            name, bound = m["name"], m["bound"]
            lower = m["better"] == "lower"
            va = [r["metrics"][name]["value"] for r in a]
            vb = [r["metrics"][name]["value"] for r in b]
            med_a, med_b = statistics.median(va), statistics.median(vb)
            qa, qb = quartiles(va), quartiles(vb)
            spread = (qa[1] - qa[0]) / med_a if med_a else 0.0
            wins = sum((y < x) if lower else (y > x)
                       for x, y in ((ra["metrics"][name]["value"],
                                     rb["metrics"][name]["value"])
                                    for ra, rb in pairs(a, b)))
            gap = (med_b - med_a) / med_a if med_a else 0.0
            worse = gap if lower else -gap
            within = worse <= bound
            ok &= within
            print(f"{workload:<17} {name:<13} {len(va):>2}/{len(vb):<2} "
                  f"{med_a:>12.6g} {qa[0]:>11.5g}..{qa[1]:<11.5g} "
                  f"{spread:>8.2%} {med_b:>12.6g} "
                  f"{qb[0]:>11.5g}..{qb[1]:<11.5g} "
                  f"{wins:>3}/{len(pairs(a, b)):<3} {worse:>+7.2%} "
                  f"{bound:>5.2f}  {'yes' if within else 'NO'}")
        share_a = {Fraction(r["failed"], r["attempted"]) for r in a}
        share_b = {Fraction(r["failed"], r["attempted"]) for r in b}
        same = share_a == share_b and len(share_a) == 1
        ok &= same
        print(f"{workload:<17} failed share A {sorted(map(str, share_a))} "
              f"B {sorted(map(str, share_b))}  "
              f"{'same' if same else 'DIFFERENT'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
