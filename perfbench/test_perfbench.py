#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

  python3 perfbench/test_perfbench.py

They build the driver (as run.py does) and check that the op streams are
seed-determined, that the traced run accounts for op latency, that every
printed metric is declared in BENCHMARK.json, and that the benchmark
refuses to run without the library sources.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run as bench  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
BINARY = None


def binary():
    global BINARY
    if BINARY is None:
        BINARY = bench.build()
    return BINARY


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_driver(*args):
    proc = subprocess.run([binary()] + list(args), capture_output=True,
                          text=True, timeout=170, check=True)
    return proc.stdout


def short_run(workload, trace):
    out = run_driver("--workload", workload, "--seed", "7", "--seconds",
                     "1", "--trace", str(trace))
    return json.loads(out.strip().splitlines()[-1])


class OpStreamTest(unittest.TestCase):
    def dump(self, workload, seed):
        return run_driver("--workload", workload, "--seed", str(seed),
                          "--dump-ops")

    def test_seed_determines_the_stream(self):
        for w in bench.WORKLOADS:
            with self.subTest(workload=w):
                a = self.dump(w, 11)
                self.assertTrue(a)
                self.assertEqual(a, self.dump(w, 11))
                self.assertNotEqual(a, self.dump(w, 12))


class ResultTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.results = {(w, t): short_run(w, t)
                       for w in bench.WORKLOADS for t in (0, 1)}

    def test_result_shape(self):
        for (w, t), r in self.results.items():
            with self.subTest(workload=w, trace=t):
                self.assertEqual(set(r),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertGreaterEqual(r["attempted"], 1)
                self.assertTrue(r["correct"])

    def test_metric_names_match_benchmark_json(self):
        s = spec()
        declared = {0: {m["name"]: m["unit"] for m in s["end_to_end"]},
                    1: {m["name"]: m["unit"] for m in s["per_layer"]}}
        for (w, t), r in self.results.items():
            with self.subTest(workload=w, trace=t):
                printed = r["metrics"]
                self.assertEqual(set(printed), set(declared[t]))
                for name, m in printed.items():
                    self.assertRegex(name, NAME_RE)
                    self.assertEqual(m["unit"], declared[t][name])

    def test_unaccounted_time_is_bounded(self):
        # Op latency minus the layers the benchmark times must stay a small
        # share of the op: a large remainder means a layer went unmeasured.
        for w in bench.WORKLOADS:
            with self.subTest(workload=w):
                m = self.results[(w, 1)]["metrics"]
                latency = m["trace.latency_p50_ms"]["value"]
                unaccounted = m["engine.unaccounted_ms"]["value"]
                self.assertGreater(latency, 0)
                self.assertLessEqual(abs(unaccounted), 0.25 * latency)

    def test_known_defect_stays_visible(self):
        # IC5's optimized plan returns wrong rows at this commit; ok_frac
        # must show it rather than read 1.0.
        m = self.results[("ic_serve", 0)]["metrics"]
        self.assertLess(m["ok_frac"]["value"], 1.0)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_names(self):
        s = spec()
        names = ([w["name"] for w in s["workloads"]] +
                 [m["name"] for m in s["end_to_end"] + s["per_layer"]])
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, NAME_RE)
            self.assertLessEqual(len(n), 64)
        listed = [w["name"] for w in s["workloads"]]
        self.assertTrue(set(listed) <= set(bench.WORKLOADS))
        for w in s["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)

    def test_fails_without_library_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "ic_serve",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=170)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
