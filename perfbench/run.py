#!/usr/bin/env python3
"""Build and run the Betty training benchmark.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload products_tight --seed 1 \
        --seconds 20 --trace 0

Configures perfbench/CMakeLists.txt as a Release build under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench, relative
to the checkout root), builds the betty_perf binary incrementally, runs
it with the given arguments and forwards its report. The last line of
standard output is the benchmark's JSON result; any failure exits
non-zero without printing one. Build output goes to standard error.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
RUN_TIMEOUT_S = 170


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(out):
    """Configure and build incrementally; returns the binary."""
    subprocess.run(
        ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
         "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(out), "-j4", "--target", "betty_perf"],
        check=True, stdout=sys.stderr)
    return out / "betty_perf"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--max-steps", type=int,
                        help="cap the step count (smoke tests)")
    args = parser.parse_args()

    try:
        binary = build(build_dir())
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"run.py: build failed: {error}", file=sys.stderr)
        return 1

    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace]
    if args.max_steps:
        command += ["--max-steps", str(args.max_steps)]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        # subprocess.run kills and reaps the child before raising.
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    lines = run.stdout.rstrip("\n").splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        print(f"run.py: benchmark exited with {run.returncode}",
              file=sys.stderr)
        return run.returncode or 1
    try:
        json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(run.stdout)
        print("run.py: last line is not a JSON result", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
