#!/usr/bin/env python3
"""Compare two directories of bench_e2e runs against BENCHMARK.json's bounds.

    python3 bench/e2e/agree.py BASE_DIR NEW_DIR

Each directory holds the reports bench/e2e/run.py keeps with
`--repeat N --out DIR` (one JSON file per run). For every workload x
end-to-end metric the script pools the runs' values in each directory and
prints both medians and quartiles (statistics.quantiles, n=4) and a verdict:

  ok          NEW is not worse than BASE by more than the metric's bound
  worse       NEW is worse than BASE by more than the bound
  unresolved  either directory's spread, (p75 - p25) / median, exceeds the
              bound, so the comparison cannot be trusted

Exit status is 0 only when every pair is ok. Python standard library only.
"""
import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def load_runs(directory):
    """{workload: {metric: [values...]}} from every report in `directory`."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            report = json.load(f)
        per = runs.setdefault(report["workload"], {})
        for name, m in report["metrics"].items():
            per.setdefault(name, []).append(m["value"])
    return runs


def summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q = statistics.quantiles(values, n=4)
    return med, q[0], q[2]


def spread(med, p25, p75):
    return (p75 - p25) / abs(med) if med else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("base")
    ap.add_argument("new")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    base = load_runs(args.base)
    new = load_runs(args.new)
    if not base or not new:
        print("agree.py: no reports in %s" % (args.base if not base else args.new),
              file=sys.stderr)
        return 2

    status = 0
    header = "%-12s %-16s %12s %23s %12s %23s  %s" % (
        "workload", "metric", "base", "base p25..p75", "new", "new p25..p75",
        "verdict")
    print(header)
    for workload in sorted(set(base) | set(new)):
        b_metrics = base.get(workload, {})
        n_metrics = new.get(workload, {})
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            if name not in b_metrics or name not in n_metrics:
                print("%-12s %-16s missing in %s" % (
                    workload, name, "base" if name not in b_metrics else "new"))
                status = 1
                continue
            bm, b25, b75 = summary(b_metrics[name])
            nm, n25, n75 = summary(n_metrics[name])
            change = (nm - bm) / bm if bm else 0.0
            worse_by = -change if m["better"] == "higher" else change
            if max(spread(bm, b25, b75), spread(nm, n25, n75)) > bound:
                verdict = "unresolved"
            elif worse_by > bound:
                verdict = "worse"
            else:
                verdict = "ok"
            status = status if verdict == "ok" else 1
            print("%-12s %-16s %12.5g %11.5g..%-11.5g %12.5g %11.5g..%-11.5g  "
                  "%s (%+.1f%%, bound %.0f%%)" % (
                      workload, name, bm, b25, b75, nm, n25, n75, verdict,
                      100 * change, 100 * bound))
    return status


if __name__ == "__main__":
    sys.exit(main())
