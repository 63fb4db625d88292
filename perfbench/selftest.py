#!/usr/bin/env python3
"""Smoke-size self-test of the repo benchmark.

    python3 perfbench/selftest.py        # from the root of a source checkout

Runs every workload of BENCHMARK.json at a tenth of its population scale,
untraced and traced, and checks that
  - each run exits 0 and passes its output checks;
  - the metric names and units it prints are exactly BENCHMARK.json's
    end_to_end (untraced) and per_layer (traced) lists;
  - the traced layer self times account for the traced wall time;
  - a deliberately wrong digest pin comes back as counted failures in a
    well-formed result, not as a crash.
Exits 0 when every check holds.
"""

import json
import os
import subprocess
import sys

SCALE_FACTOR = "0.1"
SEED = "7"
WRONG_DIGEST = "0123456789abcdef"


def bench(workload, trace, *extra):
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", SEED, "--seconds", "1", "--trace", str(trace),
         "--scale-factor", SCALE_FACTOR, *extra],
        stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def expect(condition, message, problems):
    if not condition:
        problems.append(message)
        print("FAIL: " + message)


def main():
    with open("BENCHMARK.json") as source:
        spec = json.load(source)
    units = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            result = bench(workload, trace)
            label = f"{workload} trace={trace}"
            expect(result["correct"] and result["failed"] == 0,
                   f"{label}: output checks failed", problems)
            printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
            expect(printed == units[trace],
                   f"{label}: printed metrics differ from BENCHMARK.json: "
                   f"{sorted(set(printed) ^ set(units[trace]))}", problems)
            if trace == 1 and printed == units[trace]:
                wall = result["metrics"]["trace.wall_s"]["value"]
                unaccounted = result["metrics"]["trace.unaccounted_s"]["value"]
                expect(abs(unaccounted) < 0.01 * wall,
                       f"{label}: layer self times leave {unaccounted:.6f} s of "
                       f"{wall:.6f} s unaccounted", problems)
            print(f"ok: {label} ({result['attempted']} runs)")

    first = spec["workloads"][0]["name"]
    result = bench(first, 0, "--pin-digest", WRONG_DIGEST)
    expect(not result["correct"] and 1 <= result["failed"] <= result["attempted"],
           f"{first}: a wrong digest pin was not counted as failures: {result}", problems)
    print(f"ok: wrong digest pin counted as {result['failed']} of "
          f"{result['attempted']} runs failed")

    if problems:
        print(f"selftest: {len(problems)} problem(s)")
        return 1
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
