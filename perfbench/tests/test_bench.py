"""Tests of the benchmark's own code.

    python3 -m unittest discover -s perfbench/tests

The analysis tests are pure and fast. The ladder test builds and runs the C++
self-test; the seed test builds the driver and runs every workload on two
seeds (about two minutes on a 4-core machine).
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
import analysis  # noqa: E402
import run  # noqa: E402


class PercentileRuleTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 1001))
        self.assertEqual(analysis.nearest_rank(values, 50), 500)
        self.assertEqual(analysis.nearest_rank(values, 99.9), 999)
        self.assertEqual(analysis.nearest_rank(values, 100), 1000)
        self.assertEqual(analysis.nearest_rank(values, 0), 1)

    def test_needs_ten_samples_beyond(self):
        self.assertTrue(analysis.reportable(20, 50))
        self.assertFalse(analysis.reportable(19, 50))
        self.assertTrue(analysis.reportable(100, 90))
        self.assertFalse(analysis.reportable(99, 90))
        self.assertTrue(analysis.reportable(10000, 99.9))
        self.assertFalse(analysis.reportable(9999, 99.9))

    def test_highest_reportable(self):
        self.assertIsNone(analysis.highest_reportable(11))
        self.assertEqual(analysis.highest_reportable(22), 50)
        self.assertEqual(analysis.highest_reportable(300), 90)
        self.assertEqual(analysis.highest_reportable(1000), 99)
        self.assertEqual(analysis.highest_reportable(50000), 99.9)
        self.assertEqual(analysis.highest_reportable(150000), 99.99)

    def test_percentile_refuses_thin_tails(self):
        # Two w2v-reloc reps give 22 stages: p50 yes, p90 no.
        steps = [float(i) for i in range(22)]
        self.assertEqual(analysis.percentile(steps, 50), (10.0, 22))
        self.assertEqual(analysis.percentile(steps, 90), (None, 22))
        self.assertEqual(analysis.percentile([], 50), (None, 0))


def span(tid, depth, cat, name, begin, dur):
    return analysis.Span(tid, depth, cat, name, begin, dur)


class SelfTimeTest(unittest.TestCase):
    def spans(self):
        return [
            # Coordinator thread: root > stage; the stage waits on tasks
            # running elsewhere, then the driver zips.
            span(0, 1, "perfbench", "measured", 0, 1000),
            span(0, 2, "dataflow", "stage:s", 0, 600),
            span(0, 2, "dcv", "zip", 650, 300),
            span(0, 3, "ps.client", "zip", 660, 250),
            span(0, 4, "ps.server", "zip", 670, 200),
            # Pool thread: task > dcv > client exchange > server handler.
            span(1, 1, "dataflow", "task:0", 10, 500),
            span(1, 2, "dcv", "pull_sparse", 20, 100),
            span(1, 3, "ps.client", "pull_sparse", 30, 80),
            span(1, 4, "ps.server", "pull_sparse", 40, 50),
            # A span opening at the same instant as its parent.
            span(1, 2, "dcv", "add", 200, 100),
            span(1, 3, "ps.client", "push_sparse", 200, 90),
            # Cross-thread async completion: a wait, nested in nothing.
            span(2, 0, "ps.client.async", "pull_sparse", 15, 400),
        ]

    def test_self_time_subtracts_direct_children_only(self):
        spans = analysis.assign_self_time(self.spans())
        self_of = {(s.tid, s.name, s.cat): s.self_time for s in spans}
        self.assertEqual(self_of[(0, "measured", "perfbench")], 100)
        self.assertEqual(self_of[(0, "stage:s", "dataflow")], 600)
        self.assertEqual(self_of[(0, "zip", "dcv")], 50)
        self.assertEqual(self_of[(0, "zip", "ps.client")], 50)
        self.assertEqual(self_of[(1, "task:0", "dataflow")], 300)
        self.assertEqual(self_of[(1, "pull_sparse", "dcv")], 20)
        self.assertEqual(self_of[(1, "pull_sparse", "ps.client")], 30)
        self.assertEqual(self_of[(1, "pull_sparse", "ps.server")], 50)
        self.assertEqual(self_of[(1, "add", "dcv")], 10)
        self.assertEqual(self_of[(2, "pull_sparse", "ps.client.async")], 400)

    def test_layer_breakdown(self):
        b = analysis.layer_breakdown(analysis.assign_self_time(self.spans()))
        self.assertAlmostEqual(b["self_ms"]["ml"], 0.3)
        self.assertAlmostEqual(b["self_ms"]["dataflow"], 0.6)
        self.assertAlmostEqual(b["self_ms"]["coordinator"], 0.1)
        self.assertAlmostEqual(b["self_ms"]["ps.server"], 0.25)
        self.assertAlmostEqual(b["self_ms"]["ps.client"], 0.17)
        self.assertAlmostEqual(b["self_ms"]["dcv"], 0.08)
        self.assertAlmostEqual(b["async_wait_ms"], 0.4)
        self.assertAlmostEqual(sum(b["shares"].values()), 1.0)
        self.assertEqual(b["by_op"][("ps.client", "pull_sparse")][0], 1)
        self.assertAlmostEqual(b["task_ms"], 0.5)
        self.assertAlmostEqual(b["stage_ms"], 0.6)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_matches_run_py(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(run.PER_LAYER))
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))

    def test_fails_without_the_repo_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(BENCH.parent / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "lr-wide",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)


class DriverTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.build = run.build_dir()
        run.build(cls.build)

    def test_ladder_selftest(self):
        subprocess.run(["cmake", "--build", str(self.build), "--target",
                        "ps2perf_selftest"], check=True,
                       stdout=subprocess.DEVNULL)
        done = subprocess.run([str(self.build / "ps2perf_selftest")],
                              capture_output=True, text=True)
        self.assertEqual(done.returncode, 0, done.stderr)

    def test_seeds_change_inputs_and_every_workload_passes(self):
        for workload in run.WORKLOADS:
            digests = set()
            for seed in (1, 2):
                done = subprocess.run(
                    [str(self.build / "ps2perf"), "--workload", workload,
                     "--seed", str(seed), "--seconds", "0"],
                    capture_output=True, text=True, timeout=170, check=True)
                raw = json.loads(done.stdout.strip().splitlines()[-1])
                failed = [k for k, ok in raw["checks"].items() if not ok]
                self.assertEqual(failed, [], f"{workload} seed {seed}")
                self.assertEqual(raw["failed"], 0, f"{workload} seed {seed}")
                digests.add(raw["input_digest"])
            self.assertEqual(len(digests), 2, f"{workload}: seeds collide")

    def test_traced_run_attributes_every_layer(self):
        with tempfile.TemporaryDirectory() as tmp:
            trace = Path(tmp) / "trace.json"
            done = subprocess.run(
                [str(self.build / "ps2perf"), "--workload", "lr-wide",
                 "--seed", "1", "--seconds", "0", "--trace", "1",
                 "--trace-file", str(trace)],
                capture_output=True, text=True, timeout=170, check=True)
            raw = json.loads(done.stdout.strip().splitlines()[-1])
            self.assertTrue(raw["checks"]["trace_written"])
            self.assertTrue(raw["checks"]["trace_no_drops"])
            events = json.loads(trace.read_text())["traceEvents"]
        spans = analysis.assign_self_time(analysis.spans_from_trace(events))
        shares = analysis.layer_breakdown(spans)["shares"]
        for layer in ("dataflow", "ml", "dcv", "ps.client", "ps.server",
                      "coordinator"):
            self.assertGreater(shares[layer], 0.0, layer)


if __name__ == "__main__":
    unittest.main()
