#!/usr/bin/env python3
"""Tests of tools/diff_answers.py, run as a program on temporary files.

    python3 -m unittest discover -s tools -p 'test_*.py'

It must exit 0 when the answers differ only in the allocate stage's
phase-2 node counts, 1 on any other difference and 2 on a usage or
read error.
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

TOOL = Path(__file__).resolve().parent / "diff_answers.py"

# One answer shaped like a `dspaddr serve` line, members in serve's order.
ANSWER = ('{"id":1,"kernel":{"name":"k","accesses":3},"stages":{"allocate":'
          '{"k_tilde":2,"cost":1,"phase2":{"exact":true,"proven":true,'
          '"gap":0,"nodes":958,"window_widths":[20,30]}}}}')
STATS = '{"id":2,"stats":{"hits":0,"phase2":{"proven":1,"nodes":958}}}'


def edited(line, old, new):
    assert old in line, old
    return line.replace(old, new, 1)


class DiffAnswersTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def write(self, name, lines):
        path = Path(self.dir.name) / name
        path.write_text("".join(line + "\n" for line in lines),
                        encoding="utf-8")
        return str(path)

    def run_tool(self, *args):
        return subprocess.run([sys.executable, str(TOOL), *args],
                              capture_output=True, text=True, check=False)

    def diff(self, lines_a, lines_b):
        return self.run_tool(self.write("a.jsonl", lines_a),
                             self.write("b.jsonl", lines_b))

    def assertVerdict(self, result, code, text):
        self.assertEqual(result.returncode, code,
                         result.stdout + result.stderr)
        self.assertIn(text, result.stdout + result.stderr)

    def test_identical_files_are_the_same(self):
        self.assertVerdict(self.diff([ANSWER, STATS], [ANSWER, STATS]), 0,
                           "same answers: 2 lines, 0 phase-2 node count(s)")

    def test_allocate_node_counts_alone_may_differ(self):
        other = edited(ANSWER, '"nodes":958', '"nodes":579')
        self.assertVerdict(self.diff([ANSWER, ANSWER], [other, ANSWER]), 0,
                           "same answers: 2 lines, 1 phase-2 node count(s)")

    def test_every_other_member_counts(self):
        cases = {
            "cost": edited(ANSWER, '"cost":1', '"cost":2'),
            "nested nodes": edited(STATS, '"nodes":958', '"nodes":579'),
            "array element": edited(ANSWER, "[20,30]", "[20,31]"),
            "null": edited(ANSWER, '"k_tilde":2', '"k_tilde":null'),
            "boolean": edited(ANSWER, '"proven":true', '"proven":false'),
        }
        for name, other in cases.items():
            with self.subTest(name):
                base = STATS if name == "nested nodes" else ANSWER
                self.assertVerdict(self.diff([base], [other]), 1, "DIFFERENT")

    def test_member_order_counts(self):
        answer = json.loads(ANSWER)
        reordered = dict(reversed(list(answer.items())))
        other = json.dumps(reordered, separators=(",", ":"))
        self.assertVerdict(self.diff([ANSWER], [other]), 1, "members")

    def test_numbers_compare_as_written(self):
        other = edited(ANSWER, '"cost":1', '"cost":1.0')
        self.assertVerdict(self.diff([ANSWER], [other]), 1, "1 != 1.0")

    def test_a_missing_line_counts(self):
        self.assertVerdict(self.diff([ANSWER, ANSWER], [ANSWER]), 1,
                           "2 lines != 1 lines")

    def test_an_unparsable_line_counts(self):
        self.assertVerdict(self.diff([ANSWER], [ANSWER[:-1]]), 1,
                           "unparsed line")

    def test_usage_and_read_errors_exit_two(self):
        present = self.write("a.jsonl", [ANSWER])
        missing = str(Path(self.dir.name) / "missing.jsonl")
        self.assertVerdict(self.run_tool(present), 2, "usage")
        self.assertVerdict(self.run_tool(present, present, present), 2,
                           "usage")
        self.assertVerdict(self.run_tool(present, missing), 2, "error")
        undecodable = Path(self.dir.name) / "bytes.jsonl"
        undecodable.write_bytes(b"\xff\xfe\n")
        self.assertVerdict(self.run_tool(present, str(undecodable)), 2,
                           "error")


if __name__ == "__main__":
    unittest.main()
