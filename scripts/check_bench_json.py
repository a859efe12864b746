#!/usr/bin/env python3
"""Validates BENCH_*.json files emitted by the benchmark binaries.

Checks that a file is well-formed google-benchmark JSON output, that the
benchmark names it contains match what the caller expects, and that the
expected per-benchmark counters (attached via tabular::bench::CounterDeltas)
are present and finite.

Usage:
  check_bench_json.py --json BENCH_fig4_group.json \
      --expect BM_GroupByRegionOnSold --expect-counter ta_rows_in

  # Run a bench binary first (it writes its default BENCH_*.json into the
  # current directory), then validate:
  check_bench_json.py --json BENCH_fig4_group.json \
      --expect BM_GroupByRegionOnSold --expect-counter ta_rows_in \
      --run ./bench/bench_fig4_group --benchmark_min_time=0.01s

  # Enforce a floor on a counter (acceptance gates, e.g. the server bench
  # must reach 64 connections with a >=90% cache hit rate):
  check_bench_json.py --json BENCH_server.json \
      --min-counter ta_connections=64 --min-counter ta_cache_hit_rate=0.9

  # Enforce a ceiling (latency regression gates — every entry carrying the
  # counter must stay at or below the bound):
  check_bench_json.py --json BENCH_server.json --max-counter ta_p99_ms=10

Exit status 0 when every check passes, 1 otherwise.
"""

import argparse
import json
import math
import subprocess
import sys


def fail(msg):
    print(f"check_bench_json: FAIL: {msg}", file=sys.stderr)
    return 1


def parse_key_value(flag):
    def parse(spec):
        key, sep, value = spec.partition("=")
        if not sep or not key:
            raise argparse.ArgumentTypeError(
                f"{flag} expects KEY=VALUE, got {spec!r}")
        try:
            return key, float(value)
        except ValueError as e:
            raise argparse.ArgumentTypeError(f"{flag} {spec!r}: {e}") from e
    return parse


def check_file(path, expects, expect_counters, min_counters, max_counters):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except FileNotFoundError:
        return fail(f"{path}: not found")
    except json.JSONDecodeError as e:
        return fail(f"{path}: invalid JSON: {e}")

    if "context" not in doc:
        return fail(f"{path}: missing 'context' (not google-benchmark output?)")
    benchmarks = doc.get("benchmarks")
    if not isinstance(benchmarks, list) or not benchmarks:
        return fail(f"{path}: no 'benchmarks' array")

    names = []
    for b in benchmarks:
        name = b.get("name")
        if not isinstance(name, str) or not name:
            return fail(f"{path}: benchmark entry without a name")
        names.append(name)
        if b.get("error_occurred"):
            return fail(f"{path}: {name}: error_occurred: "
                        f"{b.get('error_message', '?')}")
        for key in ("real_time", "cpu_time"):
            v = b.get(key)
            if not isinstance(v, (int, float)) or not math.isfinite(v) or v < 0:
                return fail(f"{path}: {name}: bad {key}: {v!r}")

    for want in expects:
        if not any(want in n for n in names):
            return fail(f"{path}: no benchmark name contains '{want}' "
                        f"(names: {names[:5]}...)")

    for key in expect_counters:
        holders = [b for b in benchmarks if key in b]
        if not holders:
            return fail(f"{path}: counter '{key}' missing from every "
                        f"benchmark entry")
        for b in holders:
            v = b[key]
            if not isinstance(v, (int, float)) or not math.isfinite(v):
                return fail(f"{path}: {b['name']}: counter '{key}' not a "
                            f"finite number: {v!r}")

    for key, floor in min_counters:
        holders = [b for b in benchmarks if key in b]
        if not holders:
            return fail(f"{path}: counter '{key}' missing from every "
                        f"benchmark entry (--min-counter {key}={floor})")
        best = max(float(b[key]) for b in holders)
        if not math.isfinite(best) or best < floor:
            return fail(f"{path}: counter '{key}' max {best} is below the "
                        f"required floor {floor}")

    for key, ceiling in max_counters:
        holders = [b for b in benchmarks if key in b]
        if not holders:
            return fail(f"{path}: counter '{key}' missing from every "
                        f"benchmark entry (--max-counter {key}={ceiling})")
        # A ceiling is a regression gate: every run configuration (e.g.
        # every connection count) must stay under it, so check the worst.
        worst = max(float(b[key]) for b in holders)
        if not math.isfinite(worst) or worst > ceiling:
            return fail(f"{path}: counter '{key}' max {worst} exceeds the "
                        f"allowed ceiling {ceiling}")

    print(f"check_bench_json: OK: {path}: {len(benchmarks)} benchmarks, "
          f"{len(expect_counters)} expected counters present, "
          f"{len(min_counters)} counter floors met, "
          f"{len(max_counters)} counter ceilings met")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", action="append", default=[], required=True,
                        help="BENCH_*.json file to validate (repeatable)")
    parser.add_argument("--expect", action="append", default=[],
                        help="substring required among benchmark names")
    parser.add_argument("--expect-counter", action="append", default=[],
                        help="counter key required on at least one benchmark")
    parser.add_argument("--min-counter", action="append", default=[],
                        type=parse_key_value("--min-counter"),
                        metavar="KEY=VALUE",
                        help="require some benchmark entry's counter KEY to "
                             "be >= VALUE")
    parser.add_argument("--max-counter", action="append", default=[],
                        type=parse_key_value("--max-counter"),
                        metavar="KEY=VALUE",
                        help="require every benchmark entry carrying counter "
                             "KEY to be <= VALUE")
    parser.add_argument("--run", nargs=argparse.REMAINDER, default=None,
                        help="bench command to execute before validating")
    args = parser.parse_args()

    if args.run:
        proc = subprocess.run(args.run)
        if proc.returncode != 0:
            return fail(f"bench command exited {proc.returncode}: "
                        f"{' '.join(args.run)}")

    status = 0
    for path in args.json:
        status |= check_file(path, args.expect, args.expect_counter,
                             args.min_counter, args.max_counter)
    return status


if __name__ == "__main__":
    sys.exit(main())
