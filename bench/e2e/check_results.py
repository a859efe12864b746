#!/usr/bin/env python3
"""Smoke check of bench_e2e results.

    python3 bench/e2e/check_results.py --run DIR   # run every workload, then check
    python3 bench/e2e/check_results.py DIR         # check results already in DIR

--run first runs every workload for 1 s, untraced and traced, through
run.py --out DIR. The check then asserts, for every result file in DIR:

  * every metric BENCHMARK.json names for the file's mode is present,
    finite, and carries its unit;
  * the run was correct and no op failed; untraced, error_rate == 0;
  * traced, obs.trace_dropped == 0;
  * every workload has a result in each mode that was run.

Exits 1 and lists every failed assertion otherwise.
"""

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def check(out_dir, spec):
    problems = []
    seen = {}
    for path in sorted(out_dir.glob("*.trace[01].seed*.json")):
        result = json.loads(path.read_text())
        trace = ".trace1." in path.name
        seen.setdefault(trace, set()).add(result["workload"])
        where = path.name
        if not result["correct"] or result["failed"] != 0:
            problems.append(f"{where}: correct={result['correct']} "
                            f"failed={result['failed']}")
        metrics = result["metrics"]
        for metric in spec["per_layer" if trace else "end_to_end"]:
            got = metrics.get(metric["name"])
            if got is None:
                problems.append(f"{where}: missing {metric['name']}")
            elif not math.isfinite(got["value"]):
                problems.append(f"{where}: {metric['name']} is not finite")
            elif got["unit"] != metric["unit"]:
                problems.append(f"{where}: {metric['name']} unit "
                                f"{got['unit']} != {metric['unit']}")
        if not trace and metrics.get("error_rate", {}).get("value") != 0:
            problems.append(f"{where}: error_rate is not 0")
        if trace and metrics.get("obs.trace_dropped", {}).get("value") != 0:
            problems.append(f"{where}: obs.trace_dropped is not 0")
    if not seen:
        problems.append(f"no results in {out_dir}")
    names = {w["name"] for w in spec["workloads"]}
    for trace, workloads in seen.items():
        for workload in sorted(names - workloads):
            problems.append(f"no trace{int(trace)} result for {workload}")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("dir", type=Path)
    parser.add_argument("--run", action="store_true",
                        help="run every workload for 1 s first")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.run:
        for trace in ("0", "1"):
            # run.py exits 1 on an incorrect run; the check below reports it.
            subprocess.run([sys.executable, str(HERE / "run.py"),
                            "--workload", "all", "--seconds", "1",
                            "--trace", trace, "--out", str(args.dir)],
                           stdout=subprocess.DEVNULL)
    problems = check(args.dir, spec)
    for p in problems:
        print(f"FAIL {p}")
    print("ok" if not problems else f"{len(problems)} problem(s)")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
