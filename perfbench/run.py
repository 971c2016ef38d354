#!/usr/bin/env python3
"""Build and run the psdserv benchmark harness on one workload.

    python3 perfbench/run.py --workload serve_highrate --seed 1 \
        --seconds 10 --trace 0

Run from the root of a psdserv checkout.  The first call configures and
builds the library and the harness into .bench_build/ (later calls rebuild
incrementally); spans of traced runs go to .bench_out/.  The harness's
output is passed through; its last line, a JSON object with the keys
correct, attempted, failed and metrics, is checked against BENCHMARK.json
before it is printed.  Exits non-zero, without a result line, when the
build fails or the result does not match the declared metrics.
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "psd_perfbench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then build incrementally; logs go to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "psd_perfbench"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    entries = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in entries}


def validate(result, declared, trace):
    """Return a list of reasons the result line breaks the contract."""
    errors = []
    if not isinstance(result, dict):
        return ["result is not a JSON object"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append("result keys are %s" % sorted(result))
        return errors
    if not isinstance(result["correct"], bool):
        errors.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            errors.append("%s is not a whole number" % key)
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        errors.append("attempted is below 1")
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        return errors + ["metrics is not an object"]
    if set(metrics) != set(declared):
        missing = sorted(set(declared) - set(metrics))
        extra = sorted(set(metrics) - set(declared))
        errors.append("metric names differ: missing %s, undeclared %s"
                      % (missing, extra))
    for name, entry in metrics.items():
        if not isinstance(entry, dict) or set(entry) != {"value", "unit"}:
            errors.append("%s is not {value, unit}" % name)
            continue
        if name in declared and entry["unit"] != declared[name]:
            errors.append("%s has unit %r, declared %r"
                          % (name, entry["unit"], declared[name]))
        value = entry["value"]
        if not isinstance(value, (int, float)) or isinstance(value, bool) \
                or not math.isfinite(value):
            errors.append("%s is not a finite number" % name)
        elif not trace and value <= 0:
            errors.append("end-to-end metric %s is %r, not positive"
                          % (name, value))
    return errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    declared = declared_metrics(args.trace)
    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("harness exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("harness exited %d without a result line" % proc.returncode)
    errors = validate(result, declared, args.trace)
    if errors:
        fail("result rejected: " + "; ".join(errors))
    print(lines[-1])
    sys.stdout.flush()
    if result["correct"] is not True and proc.returncode == 0:
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
