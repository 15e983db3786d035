#!/usr/bin/env python3
"""Summarises or compares benchmark result sets written by perfbench/sweep.py.

    python3 perfbench/diff.py A.jsonl            # one set: median, quartiles, spread
    python3 perfbench/diff.py A.jsonl B.jsonl    # parent A against change B

For each workload and metric it prints each side's median and quartiles
(statistics.quantiles, n=4) and the spread, the interquartile range as a share
of the median.  Comparing two sets, runs are paired by seed and each
end-to-end metric gets a verdict against its bound in BENCHMARK.json:

  FAILED      either side has a run that was not correct or printed no
              result, or one side has fewer runs than the other: the
              comparison is not made on a subset of the runs;
  unresolved  either side's spread exceeds the bound, unless every run of B
              reads better than every run of A;
  worse       B's median is worse than A's by more than the bound;
  better      B wins at least nine tenths of the paired runs (ties count for
              neither) and the medians differ by more than A's interquartile
              range;
  same        none of the above: within the bound.

Per-layer metrics have no bound and get no verdict.  Metrics named count.* are
exact counts: for them the tool reports whether every seed gave the same value
on both sides.
"""

import json
import statistics
import sys
from collections import defaultdict


class ResultSet:
    """One JSONL file: per (workload, trace), the values of each metric by
    seed, the seeds run, and the runs that were not correct."""

    def __init__(self, path):
        self.values = defaultdict(lambda: defaultdict(dict))
        self.seeds = defaultdict(set)
        self.failed = defaultdict(int)
        for line in open(path):
            if not line.strip():
                continue
            rec = json.loads(line)
            key = (rec["workload"], rec["trace"])
            self.seeds[key].add(rec["seed"])
            res = rec.get("result")
            if res is None or not res["correct"] or res["failed"]:
                self.failed[key] += 1
            if res is None:
                continue
            for name, m in res["metrics"].items():
                self.values[key][name][rec["seed"]] = m["value"]


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def failure(key, a, b):
    """Why sets a and b cannot be compared on `key`, or None."""
    why = [f"set {i} has {s.failed[key]} run(s) not correct"
           for i, s in ((1, a), (2, b)) if s.failed[key]]
    if len(a.seeds[key]) != len(b.seeds[key]):
        why.append(f"{len(a.seeds[key])} runs against {len(b.seeds[key])}")
    return "; ".join(why) or None


def verdict(a, b, bound, higher_better):
    sign = 1 if higher_better else -1
    a_vals, b_vals = list(a.values()), list(b.values())
    all_better = (min(b_vals) > max(a_vals)) if higher_better else (max(b_vals) < min(a_vals))
    if max(spread(a_vals), spread(b_vals)) > bound and not all_better:
        return "unresolved"
    ma, mb = statistics.median(a_vals), statistics.median(b_vals)
    if sign * (mb - ma) < -bound * abs(ma):
        return "worse"
    pairs = [s for s in a if s in b]
    wins = sum(1 for s in pairs if sign * (b[s] - a[s]) > 0)
    q1, _, q3 = quartiles(a_vals)
    if pairs and wins >= 0.9 * len(pairs) and abs(mb - ma) > (q3 - q1):
        return "better"
    return "same"


def fmt(v):
    return f"{v:.6g}"


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    bench = json.load(open("BENCHMARK.json"))
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    sets = [ResultSet(p) for p in sys.argv[1:]]
    keys = sorted(set().union(*(s.seeds.keys() for s in sets)))
    for key in keys:
        workload, trace = key
        print(f"== {workload} ({'traced' if trace else 'end-to-end'})")
        for i, s in enumerate(sets):
            if s.failed[key]:
                print(f"   set {i + 1}: {s.failed[key]} of {len(s.seeds[key])} run(s) not correct")
        broken = failure(key, *sets) if len(sets) == 2 else None
        names = list(dict.fromkeys(n for s in sets for n in s.values[key]))
        if len(sets) == 2 and not trace:
            names += [n for n in e2e if n not in names]
        for name in names:
            row = [f"   {name:<34}"]
            sides = [s.values[key].get(name, {}) for s in sets]
            for side in sides:
                if not side:
                    row.append("no runs")
                    continue
                q1, q2, q3 = quartiles(list(side.values()))
                sp = f"{spread(list(side.values())):.1%}" if q2 else "-"
                row.append(f"{fmt(q2)} [{fmt(q1)}, {fmt(q3)}] spread {sp}")
            if len(sides) == 2:
                a, b = sides
                if name in e2e and not trace:
                    if broken or not a or not b:
                        row.append(f"FAILED: {broken or 'a side has no value'}")
                    else:
                        m = e2e[name]
                        row.append(verdict(a, b, m["bound"], m["better"] == "higher"))
                elif name.startswith("count."):
                    common = [s for s in a if s in b]
                    if not common:
                        row.append("no common seeds")
                    else:
                        row.append("exact" if all(a[s] == b[s] for s in common) else "DIFFERS")
            elif name.startswith("count.") and len(set(sides[0].values())) > 1 and len(sides[0]) > 1:
                row.append("(differs across seeds)")
            print("  ".join(row))


if __name__ == "__main__":
    main()
