#!/usr/bin/env python3
"""Compare two result sets of the repository benchmark (parent vs change).

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR [--trace]

Each directory holds one file per run: the stdout of
`python3 perfbench/run.py ...` (detail line, then the result line).  Runs
pair up by (workload, seed); run at least ten pairs per workload,
alternating which side runs first.  One row per (workload, metric):

  * each side's median and quartiles (statistics.quantiles, n=4);
  * the change as a share of the parent's median (the base is printed);
  * pairs won by the change, ties counting for neither side;
  * a verdict, following the choosing-metrics rules:
      better      the change wins >= 9/10 of the pairs and the medians
                  differ by more than the parent's own quartile spread;
      worse       the change's median is worse than the parent's by more
                  than the metric's bound (end-to-end metrics only);
      unresolved  the parent's spread is wider than the bound and the
                  change does not read better on every run, or (per-layer
                  metrics, which have no bound) no gain could be shown;
      same        none of the above: no regression beyond the bound.
"""
import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(directory, trace):
    """{(workload, seed): {metric: value}} for runs of the given mode."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        with open(path) as f:
            lines = [l for l in f.read().splitlines() if l.strip()]
        detail = result = None
        for line in lines:
            try:
                doc = json.loads(line)
            except ValueError:
                continue
            if "perfbench" in doc:
                detail = doc["perfbench"]
            elif "metrics" in doc:
                result = doc
        if detail is None or result is None or bool(detail["trace"]) != trace:
            continue
        if result["failed"]:
            print("note: %s has %d failed jobs" % (name, result["failed"]),
                  file=sys.stderr)
        runs[(detail["workload"], detail["seed"])] = {
            k: v["value"] for k, v in result["metrics"].items()}
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, pairs, better_dir, bound):
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    sign = 1.0 if better_dir == "higher" else -1.0
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    spread = p_q3 - p_q1
    gain = sign * (c_med - p_med)
    if pairs and wins >= 0.9 * len(pairs) and gain > spread:
        return "better", wins, losses
    if bound is None:
        return "unresolved", wins, losses
    base = abs(p_med) if p_med else 1.0
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if spread / base > bound and not all_better:
        return "unresolved", wins, losses
    if -gain / base > bound:
        return "worse", wins, losses
    return "same", wins, losses


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--trace", action="store_true",
                        help="compare traced (per-layer) runs")
    parser.add_argument("--spec", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args()

    with open(args.spec) as f:
        spec = json.load(f)
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    parent = load_runs(args.parent, args.trace)
    change = load_runs(args.change, args.trace)
    workloads = sorted({w for w, _ in parent} | {w for w, _ in change})

    header = ("workload", "metric", "parent median [q1, q3]",
              "change median [q1, q3]", "change vs parent median",
              "pairs won", "verdict")
    rows = [header]
    for workload in workloads:
        seeds = sorted({s for w, s in parent if w == workload} &
                       {s for w, s in change if w == workload})
        if not seeds:
            continue
        for m in metrics:
            name = m["name"]
            p = [parent[(workload, s)][name] for s in seeds]
            c = [change[(workload, s)][name] for s in seeds]
            pq1, pmed, pq3 = quartiles(p)
            cq1, cmed, cq3 = quartiles(c)
            v, wins, losses = verdict(p, c, list(zip(p, c)), m["better"],
                                      m.get("bound"))
            delta = ("%+.1f%% of %.4g %s" % (100.0 * (cmed - pmed) / pmed,
                                             pmed, m["unit"])
                     if pmed else "parent median is 0")
            rows.append((workload, name,
                         "%.4g [%.4g, %.4g]" % (pmed, pq1, pq3),
                         "%.4g [%.4g, %.4g]" % (cmed, cq1, cq3), delta,
                         "%d/%d (lost %d)" % (wins, len(seeds), losses), v))
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    for r in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())


if __name__ == "__main__":
    main()
