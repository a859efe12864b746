#!/usr/bin/env python3
"""A/B comparison of two sets of bench_e2e runs.

    python3 bench/e2e/compare.py PARENT_DIR CHANGE_DIR

Each directory holds untraced results written by `run.py --out DIR`, one
file per (workload, seed). Run the parent and the change checkouts on the
same seeds, alternating which side goes first, at least ten pairs per
workload:

    for s in $(seq 1 10); do
      for side in parent change; do   # swap the order on odd seeds
        (cd $side && python3 bench/e2e/run.py --workload all --seed $s \\
            --out /tmp/ab/$side)
      done
    done

For every workload x metric this prints each side's median and quartiles,
the change's win fraction over the pairs (ties count for neither), and a
verdict:

  improved       the change wins at least 9/10 of the pairs and the medians
                 differ by more than the parent's interquartile range
  regressed      the change's median is worse than the parent's by more
                 than the metric's bound
  unresolved     the parent's own spread (IQR / median) exceeds the bound,
                 so "within bound" cannot be claimed, unless every change
                 run beats every parent run
  within bound   otherwise

Bounds and directions come from BENCHMARK.json's end_to_end metrics, plus
the workload-specific metrics below that BENCHMARK.json cannot carry
because they are not measured on every workload.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

# name: (better, bound, absolute?) for metrics outside BENCHMARK.json.
EXTRA_METRICS = {
    "error_rate": ("lower", 0.001, True),
    "commit_p50_ms": ("lower", 0.10, False),
    "commit_p99_ms": ("lower", 0.10, False),
}
MIN_PAIRS = 10


def load(directory):
    runs = {}
    for path in sorted(Path(directory).glob("*.trace0.seed*.json")):
        result = json.loads(path.read_text())
        runs[(result["workload"], result["seed"])] = result["metrics"]
    return runs


def verdict(parent, change, better, bound, absolute):
    sign = 1 if better == "higher" else -1
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, _, p_q3 = statistics.quantiles(parent, n=4)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    win_frac = wins / len(parent)
    allowed = bound if absolute else bound * abs(p_med)
    spread = (p_q3 - p_q1) if absolute else (p_q3 - p_q1) / abs(p_med or 1)
    worse_by = sign * (p_med - c_med)
    if win_frac >= 0.9 and abs(c_med - p_med) > p_q3 - p_q1:
        return "improved", win_frac
    if worse_by > allowed:
        return "regressed", win_frac
    if spread > bound:
        if min(sign * c for c in change) > max(sign * p for p in parent):
            return "within bound", win_frac
        return "unresolved", win_frac
    return "within bound", win_frac


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: (m["better"], m["bound"], False)
               for m in spec["end_to_end"]}
    metrics.update(EXTRA_METRICS)

    parent, change = load(args.parent), load(args.change)
    keys = sorted(set(parent) & set(change))
    if not keys:
        sys.exit("no (workload, seed) pairs in common")
    workloads = sorted({w for w, _ in keys})
    worst = 0
    print(f"{'workload':18} {'metric':16} {'parent med [q1,q3]':>32} "
          f"{'change med [q1,q3]':>32} {'wins':>6}  verdict")
    for workload in workloads:
        seeds = [s for w, s in keys if w == workload]
        if len(seeds) < MIN_PAIRS:
            print(f"{workload}: only {len(seeds)} pairs; "
                  f"{MIN_PAIRS} are needed for a verdict")
        for name, (better, bound, absolute) in metrics.items():
            if not all(name in parent[(workload, s)] and
                       name in change[(workload, s)] for s in seeds):
                continue
            p = [parent[(workload, s)][name]["value"] for s in seeds]
            c = [change[(workload, s)][name]["value"] for s in seeds]
            if len(seeds) < 2:
                continue
            result, win_frac = verdict(p, c, better, bound, absolute)
            if len(seeds) < MIN_PAIRS:
                result = "unresolved"
            worst = max(worst, result == "regressed")
            pq, cq = statistics.quantiles(p, n=4), statistics.quantiles(c, n=4)
            print(f"{workload:18} {name:16} "
                  f"{statistics.median(p):12.5g} [{pq[0]:.4g},{pq[2]:.4g}] "
                  f"{statistics.median(c):12.5g} [{cq[0]:.4g},{cq[2]:.4g}] "
                  f"{win_frac:6.0%}  {result}")
    sys.exit(worst)


if __name__ == "__main__":
    main()
