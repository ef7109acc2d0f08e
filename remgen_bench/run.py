#!/usr/bin/env python3
"""Builds remgen-bench from the checkout it sits in and runs one workload.

    python3 remgen_bench/run.py --workload cold|hot --seed N --seconds S --trace 0|1

Run it from the root of a remgen checkout. The first call configures and
compiles the remgen libraries plus remgen-bench into .bench_build/ (a few
minutes); later calls only re-check the build. remgen-bench's last stdout
line is the JSON result. A remgen-bench that exits non-zero or dies by a signal after
printing its result still fails the run: its result is re-printed with the
crash counted as one more failed operation, and this script exits 1.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "remgen_bench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "remgen_bench")
BINARY = os.path.join(BUILD_DIR, "remgen-bench")
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures once, then (re)builds remgen-bench. Returns True on success."""
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "remgen_bench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("error: the remgen sources (src/) are not in this checkout")
        return 2
    if not build():
        log("error: building remgen-bench failed")
        return 2

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        trace_dir = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"error: remgen-bench ran longer than {RUN_TIMEOUT_S} s")
        return 1

    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    for line in lines[:-1] if result is not None else lines:
        print(line)
    if result is None:
        log(f"error: remgen-bench printed no result (exit status {proc.returncode})")
        return proc.returncode if proc.returncode > 0 else 1
    if proc.returncode != 0:
        how = (f"signal {-proc.returncode}" if proc.returncode < 0
               else f"exit status {proc.returncode}")
        log(f"error: remgen-bench ended with {how}")
        result["attempted"] += 1
        result["failed"] += 1
    print(json.dumps(result), flush=True)
    return 0 if proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
