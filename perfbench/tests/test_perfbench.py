#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/tests/test_perfbench.py

Run from the root of a psdserv checkout; the harness is built into
.bench_build/ on first use (as perfbench/run.py does).  The runs here use
--seconds 1, so the whole file takes about a minute.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402  (perfbench/run.py)

WORKLOADS = ("sim_paper", "serve_highrate", "serve_overload")


def harness(*args):
    return subprocess.run([run.BINARY] + list(args), stdout=subprocess.PIPE,
                          text=True, timeout=170)


def digest(proc):
    for line in proc.stdout.splitlines():
        if "digest" in line:
            return line.rsplit("digest", 1)[1].strip()
    raise AssertionError("no digest line in:\n" + proc.stdout)


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_declared_workloads_are_the_harness_workloads(self):
        self.assertEqual(sorted(w["name"] for w in self.spec["workloads"]),
                         sorted(WORKLOADS))

    def test_checks_fail_on_broken_input(self):
        proc = harness("--selftest")
        self.assertEqual(proc.returncode, 0, proc.stdout)
        cases = [l for l in proc.stdout.splitlines()
                 if l.startswith("selftest")]
        self.assertGreaterEqual(len(cases), 10)
        for line in cases:
            self.assertIn(" ok", line)
        # Every check is exercised with a broken input that it rejects.
        for check in ("conservation", "identical", "overload"):
            self.assertTrue(any(l.split()[1].startswith(check) and "(" in l
                                for l in cases), check)

    def test_deterministic_phase_is_bit_identical_across_invocations(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                args = ["--workload", workload, "--seed", "7",
                        "--seconds", "1", "--trace", "0"]
                a, b = harness(*args), harness(*args)
                self.assertEqual(a.returncode, 0, a.stdout)
                self.assertEqual(b.returncode, 0, b.stdout)
                self.assertEqual(digest(a), digest(b))
                other = harness("--workload", workload, "--seed", "8",
                                "--seconds", "1", "--trace", "0")
                self.assertNotEqual(digest(a), digest(other))

    def test_emitted_names_and_units_match_benchmark_json(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in self.spec[key]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    proc = subprocess.run(
                        [sys.executable, os.path.join(BENCH, "run.py"),
                         "--workload", workload, "--seed", "3",
                         "--seconds", "1", "--trace", str(trace)],
                        cwd=ROOT, stdout=subprocess.PIPE, text=True,
                        timeout=300)
                    self.assertEqual(proc.returncode, 0, proc.stdout)
                    result = json.loads(proc.stdout.splitlines()[-1])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    emitted = {k: v["unit"]
                               for k, v in result["metrics"].items()}
                    self.assertEqual(emitted, declared)

    def test_validate_rejects_a_wrong_result(self):
        declared = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        good = {"correct": True, "attempted": 5, "failed": 0,
                "metrics": {k: {"value": 1.5, "unit": u}
                            for k, u in declared.items()}}
        self.assertEqual(run.validate(good, declared, 0), [])
        renamed = json.loads(json.dumps(good))
        renamed["metrics"]["latency"] = renamed["metrics"].pop("setup_s")
        self.assertTrue(run.validate(renamed, declared, 0))
        wrong_unit = json.loads(json.dumps(good))
        wrong_unit["metrics"]["setup_s"]["unit"] = "ms"
        self.assertTrue(run.validate(wrong_unit, declared, 0))
        zero = json.loads(json.dumps(good))
        zero["metrics"]["setup_s"]["value"] = 0.0
        self.assertTrue(run.validate(zero, declared, 0))
        extra_key = dict(good, note="x")
        self.assertTrue(run.validate(extra_key, declared, 0))

    def test_fails_without_the_library_sources(self):
        # A directory holding only BENCHMARK.json and perfbench/ cannot
        # build; the command must fail without printing a result.
        os.makedirs(run.OUT_DIR, exist_ok=True)
        scratch = tempfile.mkdtemp(dir=run.OUT_DIR)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
            shutil.copytree(BENCH, os.path.join(scratch, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "serve_highrate", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=scratch, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, text=True, timeout=170)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(scratch)


if __name__ == "__main__":
    unittest.main()
