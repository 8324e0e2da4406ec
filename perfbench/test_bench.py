#!/usr/bin/env python3
"""Self-tests of the end-to-end benchmark, on its small (2^12-vertex) input.

Run from the repository root:

    python3 perfbench/test_bench.py

They check that every workload prints each of its named metrics with its
unit, that the result line carries exactly the metrics BENCHMARK.json lists,
that a corrupted result (one flipped CC label) is counted as a failed op and
fails the run, and that a stray BPART_* variable stops the run before it
measures anything.
"""
import json
import os
import re
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")

# Named end-to-end metrics each workload prints, with their units.
COMMON = {"setup_s": "s", "job_s": "s", "work_s": "s", "peak_rss_mb": "MiB",
          "failed_ops_ratio": "ratio"}
QUALITY = {"edge_cut_ratio": "ratio", "vertex_bias": "ratio",
           "edge_bias": "ratio"}
NAMED = {
    "etl-cold": {**COMMON, **QUALITY, "cc_s": "s"},
    "analytics-warm": {**COMMON, **QUALITY, "pagerank_s": "s", "cc_s": "s",
                       "sssp_s": "s", "walk_s": "s"},
    "vertex-cut": {**COMMON, "pagerank_s": "s", "cc_s": "s",
                   "edge_bias": "ratio",
                   "replication_factor": "copies/vertex"},
    "dynamic-serve": {**COMMON, **QUALITY, "update_edges_per_s": "edges/s",
                      "update_p50_ms": "ms", "update_p95_ms": "ms",
                      "lookups_per_s": "lookups/s"},
}


def clean_env(**extra):
    env = {k: v for k, v in os.environ.items() if not k.startswith("BPART_")}
    env.update(extra)
    return env


def run(workload, trace=0, fault=None, env=None):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--small"]
    if fault:
        cmd += ["--inject-fault", fault]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          env=env or clean_env(), timeout=900)


def result_line(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def printed_metrics(proc):
    """name -> unit of the 'name value unit' lines before the result."""
    out = {}
    for line in proc.stdout.splitlines()[:-1]:
        m = re.fullmatch(r"(\S+)\s+(\S+)\s+(\S+)", line.strip())
        if m and not line.startswith("#"):
            float(m.group(2))
            out[m.group(1)] = m.group(3)
    return out


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check_result(self, res, section):
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        want = {m["name"]: m["unit"] for m in self.spec[section]}
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        self.assertEqual(got, want)

    def test_every_workload_prints_its_metrics(self):
        for w in self.spec_workloads():
            with self.subTest(workload=w):
                proc = run(w)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                res = result_line(proc)
                self.assertTrue(res["correct"])
                self.assertGreater(res["attempted"], 0)
                self.assertEqual(res["failed"], 0)
                self.check_result(res, "end_to_end")
                for v in res["metrics"].values():
                    self.assertGreater(v["value"], 0)
                printed = printed_metrics(proc)
                for name, unit in NAMED[w].items():
                    self.assertEqual(printed.get(name), unit, name)

    def test_traced_run_prints_per_layer_metrics(self):
        for w in self.spec_workloads():
            with self.subTest(workload=w):
                proc = run(w, trace=1)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                res = result_line(proc)
                self.assertTrue(res["correct"])
                self.check_result(res, "per_layer")
                self.assertGreater(res["metrics"]["trace.job_s"]["value"], 0)

    def test_flipped_cc_label_is_a_failed_op(self):
        for w in ("etl-cold", "vertex-cut"):
            with self.subTest(workload=w):
                proc = run(w, fault="cc-label")
                self.assertNotEqual(proc.returncode, 0)
                res = result_line(proc)
                self.assertFalse(res["correct"])
                self.assertGreaterEqual(res["failed"], 1)
                self.assertIn("CC equals the union-find", proc.stderr)
                printed = printed_metrics(proc)
                self.assertGreater(float(re.search(
                    r"failed_ops_ratio\s+(\S+)", proc.stdout).group(1)), 0)
                self.assertIn("failed_ops_ratio", printed)

    def test_stray_bpart_variable_is_refused(self):
        proc = run("etl-cold", env=clean_env(BPART_REORDER="bfs"))
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)
        self.assertIn("BPART_REORDER", proc.stderr)

    def spec_workloads(self):
        names = [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(set(names), set(NAMED))
        return names


if __name__ == "__main__":
    unittest.main()
