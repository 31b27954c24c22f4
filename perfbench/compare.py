#!/usr/bin/env python3
"""Compares two sets of benchmark run records, e.g. a parent and a change.

    python3 perfbench/compare.py BASE_RUNS_DIR NEW_RUNS_DIR

Each directory holds the <workload>-seed<N>-trace<T>.json records run.py
leaves under <build dir>/perfbench/runs. Records are paired by (workload,
seed, trace). If any pair has different input fingerprints the inputs are
not the same graph and nothing is compared (exit 1). Otherwise prints, per
workload and metric, the median of each side, their quartile spreads and
the relative change of the medians.
"""

import glob
import json
import os
import statistics
import sys


def load(d):
    out = {}
    for p in glob.glob(os.path.join(d, "*-seed*-trace*.json")):
        if p.endswith(".spans.json"):
            continue
        with open(p) as fh:
            rec = json.load(fh)
        out[(rec["workload"], rec["seed"], rec["trace"])] = rec
    return out


def spread(vals):
    if len(vals) < 2:
        return float("nan")
    q = statistics.quantiles(vals, n=4)
    return (q[2] - q[0]) / statistics.median(vals)


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    keys = sorted(set(base) & set(new))
    if not keys:
        sys.exit("no (workload, seed, trace) present in both directories")
    bad = [k for k in keys if base[k]["fingerprint"] != new[k]["fingerprint"]]
    for k in bad:
        print(f"input differs for {k}: {base[k]['fingerprint']} vs {new[k]['fingerprint']}", file=sys.stderr)
    if bad:
        sys.exit(1)
    for w in sorted({k[0] for k in keys}):
        for trace in sorted({k[2] for k in keys if k[0] == w}):
            ks = [k for k in keys if k[0] == w and k[2] == trace]
            fails = sum(base[k]["failed"] + new[k]["failed"] for k in ks)
            print(f"{w} (trace {int(trace)}): {len(ks)} paired runs, {fails} failed calls")
            for m in base[ks[0]]["metrics"]:
                b = [base[k]["metrics"][m]["value"] for k in ks if m in base[k]["metrics"]]
                n = [new[k]["metrics"][m]["value"] for k in ks if m in new[k]["metrics"]]
                if not b or not n:
                    continue
                mb, mn = statistics.median(b), statistics.median(n)
                change = (mn - mb) / mb if mb else float("nan")
                unit = base[ks[0]]["metrics"][m]["unit"]
                print(f"  {m:30s} {mb:14.4f} -> {mn:14.4f} {unit:8s} {change:+8.2%}"
                      f"   spread {spread(b):.3f} / {spread(n):.3f}")


if __name__ == "__main__":
    main()
