#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <train|serve|sweep> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the root of a source checkout. The build goes to .bench_build/
(CMake + Ninja, Release, the repo's own top-level build with only the
targets the benchmark links); later runs rebuild incrementally. Build
output goes to stderr, so the last line of stdout stays the benchmark's
JSON result. Any flag is passed on to the perfbench binary.
"""

import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
# A run measures for --seconds (at most 60) plus set-up and checks.
RUN_TIMEOUT_S = 175


def build():
    source = os.path.relpath(BENCH_DIR)
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(os.cpu_count() or 1)
    steps = [
        ["cmake", "-S", source, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        + generator,
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
    ]
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(step))
            return False
    return True


def main():
    if not build():
        return 1
    binary = os.path.join(BUILD_DIR, "perfbench")
    try:
        result = subprocess.run([binary] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
