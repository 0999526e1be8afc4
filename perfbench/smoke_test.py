#!/usr/bin/env python3
"""Smoke test of the Betty training benchmark.

Usage (from the root of a source checkout):

    python3 perfbench/smoke_test.py

Runs every workload in BENCHMARK.json for a few steps, untraced and
traced, through perfbench/run.py. Asserts that each run's checks pass
with no failed step, that every metric BENCHMARK.json names is printed
by name with its unit (in the report lines and in the JSON result),
and that the cache and multi-device counters are nonzero on the
multi-device workload only. Exits non-zero on the first failure.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STEPS = 6
MULTI_DEVICE_WORKLOAD = "reddit_4dev_cache"
MULTI_DEVICE_ONLY = ["cache.hit_ratio", "cache.bytes_saved_per_step",
                     "multi.allreduce_ms_per_step",
                     "multi.interconnect_bytes_per_step",
                     "multi.duplication_factor"]


def run(workload, trace):
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", "1", "--seconds", "1",
               "--trace", str(trace), "--max-steps", str(STEPS)]
    out = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                         cwd=ROOT, check=True).stdout
    lines = out.rstrip("\n").splitlines()
    return lines[:-1], json.loads(lines[-1])


def check(condition, message):
    if not condition:
        sys.exit(f"smoke_test: FAILED: {message}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, expected in ((0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            report, result = run(workload, trace)
            where = f"{workload} --trace {trace}"
            check(result["correct"], f"{where}: checks failed")
            check(result["failed"] == 0, f"{where}: failed steps")
            check(result["attempted"] >= STEPS, f"{where}: too few steps")
            metrics = result["metrics"]
            check(set(metrics) == {m["name"] for m in expected},
                  f"{where}: metric names differ from BENCHMARK.json")
            for m in expected:
                name, unit = m["name"], m["unit"]
                check(metrics[name]["unit"] == unit,
                      f"{where}: {name} unit is not {unit}")
                check(any(line.split()[:1] == [name] and
                          line.split()[-1] == unit for line in report),
                      f"{where}: {name} not printed with its unit")
            if trace == 1:
                multi = workload == MULTI_DEVICE_WORKLOAD
                for name in MULTI_DEVICE_ONLY:
                    check((metrics[name]["value"] != 0) == multi,
                          f"{where}: {name} is "
                          f"{metrics[name]['value']}")
            print(f"smoke_test: {where}: ok")
    print("smoke_test: all workloads ok")


if __name__ == "__main__":
    main()
