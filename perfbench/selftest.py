#!/usr/bin/env python3
"""The benchmark's own tests. Run from the root of a source checkout:

    python3 perfbench/selftest.py

1. A corrupted recorded value makes the command fail: one golden key per
   checked workload (train, sweep) is altered in a scratch copy of
   perfbench/expected.json, and the run that checks it must exit non-zero
   with "correct": false.
2. Without the repository around it (only BENCHMARK.json and the benchmark
   directory), the command exits non-zero and prints no result.
3. Two back-to-back sets of 10 runs (each run a different seed) agree
   within the recorded bounds: for every end-to-end metric and workload,
   the two sets' medians differ by no more than the metric's bound, and
   the quartile spread of each set stays within the bound.

Scratch files go under .bench_build/selftest/. Exit code 0 when every test
passes.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.getcwd()
SCRATCH = os.path.join(".bench_build", "selftest")
TIMEOUT_S = 900  # The first run may build.
RUNS = 10


def load_config():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run(config, workload, seed, seconds, trace="0", extra=(), cwd=ROOT):
    command = config["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", trace] + list(extra)
    result = subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                            timeout=TIMEOUT_S)
    lines = result.stdout.strip().splitlines()
    report = None
    if lines:
        try:
            report = json.loads(lines[-1])
        except ValueError:
            report = None
    return result.returncode, report, result.stderr


def test_corrupted_values(config):
    with open(os.path.join("perfbench", "expected.json")) as f:
        expected = json.load(f)
    os.makedirs(SCRATCH, exist_ok=True)
    ok = True
    cases = [("train", "train.golden_checksum"),
             ("sweep", "sweep.golden_apv.PPN")]
    for workload, key in cases:
        corrupt = dict(expected)
        # Flip the last hex digit: still well-formed, no longer the bits.
        value = corrupt[key]
        corrupt[key] = value[:-1] + ("0" if value[-1] != "0" else "1")
        path = os.path.join(SCRATCH, "expected.corrupt.json")
        with open(path, "w") as f:
            json.dump(corrupt, f)
        code, report, _ = run(config, workload, 1, 1,
                              extra=["--expected", path])
        passed = code != 0 and report is not None and not report["correct"]
        print("corrupted %-28s -> exit %d, correct=%s: %s" % (
            key, code, report and report["correct"],
            "PASS" if passed else "FAIL"))
        ok = ok and passed
    return ok


def test_outside_repo(config):
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    for path in config["paths"]:
        shutil.copytree(path, os.path.join(bare, path))
    code, report, _ = run(config, config["workloads"][0]["name"], 1, 1,
                          cwd=bare)
    passed = code != 0 and report is None
    print("outside the repository -> exit %d, result printed: %s: %s" % (
        code, report is not None, "PASS" if passed else "FAIL"))
    shutil.rmtree(bare, ignore_errors=True)
    return passed


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def test_repeat(config):
    ok = True
    seconds = config["run_seconds"]
    for workload in [w["name"] for w in config["workloads"]]:
        sets = []
        for attempt in range(2):
            values = {}
            for i in range(RUNS):
                code, report, stderr = run(config, workload, 100 + i, seconds)
                if code != 0 or report is None or not report["correct"]:
                    print("%s seed %d failed:\n%s" % (workload, 100 + i,
                                                      stderr))
                    return False
                for name, metric in report["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
            sets.append(values)
        for metric in config["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first, second = sets[0][name], sets[1][name]
            m1, m2 = statistics.median(first), statistics.median(second)
            change = (m2 - m1) / m1
            spreads = [spread(first), spread(second)]
            passed = abs(change) <= bound and max(spreads) <= bound
            print("%-6s %-18s median %.6g -> %.6g (%+.2f%%), spreads "
                  "%.3f/%.3f, bound %.2f: %s" % (
                      workload, name, m1, m2, 100 * change, spreads[0],
                      spreads[1], bound, "PASS" if passed else "FAIL"))
            ok = ok and passed
    return ok


def main():
    config = load_config()
    ok = test_corrupted_values(config)
    ok = test_outside_repo(config) and ok
    ok = test_repeat(config) and ok
    print("selftest:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
