#!/usr/bin/env python3
"""Build the benchmark driver from this checkout, run one workload, relay its report.

Usage (from the checkout root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The driver is built with CMake into $CARGO_TARGET_DIR (default .bench_build)
on first use. Its report goes to stdout; the last line is the JSON result,
whose metric names are checked against BENCHMARK.json before it is printed.
Exits non-zero, printing no result, when the library sources are missing,
the build fails, or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    return parser.parse_args()


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace == "1" else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def build(build_dir, env):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench", "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the report.
        if subprocess.run(step, stdout=sys.stderr, env=env).returncode != 0:
            fail("build failed: " + " ".join(step))
    return build_dir / "perfbench"


def main():
    args = parse_args()
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT} (need src/ and CMakeLists.txt)")
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    tmp_dir = build_dir / "tmp"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp_dir))

    exe = build(build_dir, env)
    command = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    report, last = lines[:-1], (lines[-1] if lines else "")
    print("\n".join(report), flush=True)
    if proc.returncode != 0:
        fail(f"run exited with status {proc.returncode}")

    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        fail(f"last line is not a JSON result: {last!r}")
    want = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        fail(f"metrics {sorted(got.items())} differ from BENCHMARK.json {sorted(want.items())}")
    print(last)


if __name__ == "__main__":
    main()
