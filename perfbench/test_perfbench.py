"""Self-test of the benchmark: tiny quick-mode runs of every workload.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The first test builds dspaddr (about a minute); the rest reuse the build.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# serve-replay is not gated by BENCHMARK.json but runs the same way.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["serve-replay"]


def run(workload, trace, *extra):
    result = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--quick",
         *extra], cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = result.stdout.strip().splitlines()
    return result.returncode, lines, json.loads(lines[-1]) if lines else None


class QuickRuns(unittest.TestCase):

    def check_metrics(self, lines, record, declared):
        self.assertEqual(set(record), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertEqual(set(record["metrics"]), {m["name"] for m in declared})
        text = "\n".join(lines[:-1])
        for metric in declared:
            entry = record["metrics"][metric["name"]]
            self.assertEqual(entry["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(entry["value"], (int, float))
            # Printed for people too, with its unit on the same line.
            line = [l for l in text.splitlines()
                    if l.split() and l.split()[0] == metric["name"]]
            self.assertEqual(len(line), 1, metric["name"])
            self.assertIn(" %s " % metric["unit"], line[0] + " ")

    def test_end_to_end_metrics_printed(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, lines, record = run(workload, 0)
                self.assertEqual(code, 0, "\n".join(lines[-10:]))
                self.assertTrue(record["correct"])
                self.assertEqual(record["failed"], 0)
                self.assertGreater(record["attempted"], 0)
                self.check_metrics(lines, record, SPEC["end_to_end"])
                for metric in SPEC["end_to_end"]:
                    self.assertGreater(record["metrics"][metric["name"]]
                                       ["value"], 0, metric["name"])

    def test_per_layer_metrics_printed(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, lines, record = run(workload, 1)
                self.assertEqual(code, 0, "\n".join(lines[-10:]))
                self.assertTrue(record["correct"])
                self.check_metrics(lines, record, SPEC["per_layer"])

    def test_corrupted_answer_fails(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, lines, record = run(workload, 0, "--inject-fault")
                self.assertNotEqual(code, 0)
                self.assertFalse(record["correct"])
                self.assertGreaterEqual(record["failed"], 1)
                self.assertTrue(any("FAILED" in l for l in lines))


class Generators(unittest.TestCase):

    def test_same_seed_same_inputs(self):
        self.assertEqual(wl.replay_corpus(5, 300), wl.replay_corpus(5, 300))
        first, second = wl.compile_stream(5, 100), wl.compile_stream(5, 100)
        self.assertEqual([next(first) for _ in range(300)],
                         [next(second) for _ in range(300)])

    def test_yardstick_is_seed_independent(self):
        first, second = wl.compile_stream(5, 100), wl.compile_stream(6, 100)
        self.assertEqual([next(first) for _ in range(100)],
                         [next(second) for _ in range(100)])
        self.assertNotEqual(next(first), next(second))
        self.assertEqual(wl.hard_set(5), wl.hard_set(5))

    def test_stream_never_repeats(self):
        # Longer than a 30-second run at the fastest rate seen, so no kind
        # of request runs out of distinct draws.
        def unnamed(request):
            kernel = {k: v for k, v in request["kernel"].items()
                      if k != "name"}
            return wl.dumps(dict(request, kernel=kernel))

        stream = wl.compile_stream(2, 1000)
        seen = {hash(unnamed(next(stream))) for _ in range(50000)}
        self.assertEqual(len(seen), 50000)

    def test_corpus_is_distinct(self):
        corpus = [wl.dumps(r) for r in wl.replay_corpus(2, 2000)]
        self.assertEqual(len(set(corpus)), len(corpus))


if __name__ == "__main__":
    unittest.main()
