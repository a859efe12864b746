#!/usr/bin/env python3
"""Build bench_e2e from source and run one workload (or all of them).

    python3 bench/e2e/run.py --workload read_hot_8 --seed 1 --seconds 20 --trace 0

Run from anywhere inside a source checkout. The binary is built with CMake
from bench/e2e/CMakeLists.txt into $CARGO_TARGET_DIR (default .bench_build
at the checkout root). Each workload runs in its own process, from the
checkout root, so BENCH_e2e*.json land there.

The last line of stdout is one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's `end_to_end` metrics; with
--trace 1 its `per_layer` metrics. The exit code is 0 only when the run
built, finished, and every correctness check passed. --out DIR also keeps
each run's full result (every metric the binary printed) as
DIR/<workload>.trace<0|1>.seed<N>.json, the input of check_results.py and
compare.py. --workload all runs every workload in turn.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no sources under {ROOT / 'src'}; run inside a full checkout")
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(build_dir), "--target",
                       "bench_e2e", "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir / "bench_e2e"


def run_one(binary, workload, seed, seconds, trace):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--duration", str(seconds)]
    if trace:
        cmd.append("--traced")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail(f"{workload}: bench_e2e exited {proc.returncode} without a result")
    if proc.returncode not in (0, 1):
        fail(f"{workload}: bench_e2e exited {proc.returncode}")
    return result


def contract_metrics(result, spec):
    """The BENCHMARK.json metrics of this mode, checked for name and unit."""
    out = {}
    for metric in spec:
        got = result["metrics"].get(metric["name"])
        if got is None or not math.isfinite(got["value"]):
            fail(f"{result['workload']}: metric {metric['name']} missing")
        if got["unit"] != metric["unit"]:
            fail(f"{result['workload']}: metric {metric['name']} has unit "
                 f"{got['unit']}, BENCHMARK.json says {metric['unit']}")
        out[metric["name"]] = got
    return out


def load_spec():
    bench_json = ROOT / "BENCHMARK.json"
    if not bench_json.is_file():
        fail(f"missing {bench_json}")
    return json.loads(bench_json.read_text())


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", type=Path,
                        help="directory that keeps each run's full result")
    args = parser.parse_args()

    seconds = args.seconds or spec["run_seconds"]
    binary = build()
    mode = "per_layer" if args.trace else "end_to_end"

    workloads = names if args.workload == "all" else [args.workload]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        result = run_one(binary, workload, args.seed, seconds, args.trace)
        if args.out:
            args.out.mkdir(parents=True, exist_ok=True)
            name = f"{workload}.trace{args.trace}.seed{args.seed}.json"
            (args.out / name).write_text(json.dumps(result) + "\n")
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        metrics = contract_metrics(result, spec[mode])
        if len(workloads) == 1:
            summary["metrics"] = metrics
        else:
            summary["metrics"].update(
                {f"{workload}.{k}": v for k, v in metrics.items()})
    print(json.dumps(summary))
    sys.exit(0 if summary["correct"] else 1)


if __name__ == "__main__":
    main()
