#!/usr/bin/env python3
"""The dspaddr benchmark: one command, three workloads, one JSON line.

    python3 perfbench/run.py --workload compile-stream --seed 1 --seconds 45 --trace 0

Builds `dspaddr` (and the tracer) from source into .bench_build, makes
the workload's requests from --seed, drives `dspaddr serve` as a child
process from one closed-loop client, checks every answer, and prints
the end-to-end metrics (--trace 0) or the per-layer metrics of the
traced in-process replay (--trace 1). The last stdout line is the JSON
result; everything before it is for people. A failed output check makes
the command exit non-zero. See perfbench/README.md.
"""

import argparse
import collections
import json
import math
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import workloads as wl  # noqa: E402

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

END_TO_END = [
    ("setup_s", "s"),
    ("cpu_us_per_req", "us"),
    ("solve_s", "s"),
    ("proven_share", "ratio"),
    ("code_cycles", "cycles"),
    ("code_words", "words"),
    ("peak_rss_mb", "MiB"),
]

# Printed with the end-to-end metrics but left out of the result line:
# wall-clock figures of the closed loop, which on a shared host swing
# with other tenants' load far more than any bound could allow (see
# README.md).
UNGATED = [
    ("throughput_rps", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
]

# (metric, unit, end-to-end metric it should move, workloads it is on)
PER_LAYER = [
    ("cli.transport_us", "us", "latency_p99_us",
     "compile-stream, serve-replay"),
    ("support.json_parse_us", "us", "cpu_us_per_req",
     "compile-stream, serve-replay"),
    ("engine.render_us", "us", "cpu_us_per_req, throughput_rps",
     "compile-stream, serve-replay"),
    ("engine.response_bytes", "bytes", "cpu_us_per_req, throughput_rps",
     "compile-stream, serve-replay"),
    ("ir.lower_us", "us", "latency_p50_us", "compile-stream, serve-replay"),
    ("engine.fingerprint_us", "us", "latency_p50_us",
     "compile-stream, serve-replay"),
    ("engine.ram_hit_us", "us", "cpu_us_per_req, throughput_rps",
     "serve-replay"),
    ("runtime.ram_hit_share", "ratio", "cpu_us_per_req, throughput_rps",
     "serve-replay"),
    ("engine.store_hit_us", "us", "latency_p50_us",
     "compile-stream, serve-replay"),
    ("store.get_us", "us", "latency_p50_us", "compile-stream, serve-replay"),
    ("engine.decode_us", "us", "latency_p50_us",
     "compile-stream, serve-replay"),
    ("store.open_s", "s", "setup_s", "compile-stream"),
    ("engine.encode_us", "us", "cpu_us_per_req, throughput_rps",
     "compile-stream"),
    ("store.append_us", "us", "cpu_us_per_req, throughput_rps",
     "compile-stream"),
    ("engine.cold_us", "us", "cpu_us_per_req, solve_s, latency_p99_us",
     "compile-stream"),
    ("core.allocate_us", "us", "cpu_us_per_req, solve_s, latency_p99_us",
     "compile-stream"),
    ("core.tiled_us", "us", "latency_p99_us", "compile-stream"),
    ("engine.race_us", "us", "latency_p99_us", "compile-stream"),
    ("core.plan_us", "us", "cpu_us_per_req, throughput_rps", "compile-stream"),
    ("agu.codegen_us", "us", "cpu_us_per_req, throughput_rps",
     "compile-stream"),
    ("agu.simulate_us", "us", "cpu_us_per_req, throughput_rps",
     "compile-stream"),
    ("agu.compare_us", "us", "cpu_us_per_req, throughput_rps",
     "compile-stream"),
    ("core.exact_nodes", "count", "solve_s, latency_p99_us",
     "solve-hard, compile-stream"),
    ("core.solve_us", "us", "solve_s, proven_share", "solve-hard"),
    ("core.nodes_per_s", "1/s", "solve_s", "solve-hard"),
    ("core.table_cap_hits", "count", "proven_share", "solve-hard"),
    ("runtime.steal_speedup", "ratio", "none (probe)", "solve-hard"),
    ("runtime.steal_idle_share", "ratio", "none (probe)", "solve-hard"),
    ("runtime.steal_cost_match", "ratio", "none (probe)", "solve-hard"),
    ("trace.overhead_share", "ratio", "none (tracing cost)", "all"),
]

# Span name -> per-layer metric (median inclusive time of the span).
SPAN_METRICS = {
    "support.json_parse": "support.json_parse_us",
    "engine.render": "engine.render_us",
    "ir.lower": "ir.lower_us",
    "engine.fingerprint": "engine.fingerprint_us",
    "engine.ram_hit": "engine.ram_hit_us",
    "engine.store_hit": "engine.store_hit_us",
    "store.get": "store.get_us",
    "engine.decode": "engine.decode_us",
    "engine.encode": "engine.encode_us",
    "store.append": "store.append_us",
    "engine.cold": "engine.cold_us",
    "core.allocate": "core.allocate_us",
    "core.tiled": "core.tiled_us",
    "engine.race": "engine.race_us",
    "core.plan": "core.plan_us",
    "agu.codegen": "agu.codegen_us",
    "agu.simulate": "agu.simulate_us",
    "agu.compare": "agu.compare_us",
    "core.solve": "core.solve_us",
}


class Sizes:
    """Workload sizes; --quick shrinks them for the self-test."""

    def __init__(self, quick):
        self.corpus = 200 if quick else 3000
        self.cache_capacity = 32 if quick else 256
        self.warmup_draws = 100 if quick else 2000
        self.sample_checks = 8 if quick else 64
        self.yardstick = 50 if quick else 1000
        self.jobs_prefix = 30 if quick else 300
        self.trace_draws = 200 if quick else 4000
        self.trace_stream = 60 if quick else 1500
        self.setups = 3 if quick else 10
        # Slices of the timed loop: long enough for 1000 latencies each,
        # so every slice has ten samples beyond its p99.
        self.slice_replay = 0.2 if quick else 1.0
        self.slice_stream = 0.5 if quick else 3.0
        self.quick = quick


class CheckFailure(Exception):
    pass


# ------------------------------------------------------------------- build

def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return path if path.is_absolute() else ROOT / path


def build():
    """Configures and builds the CLI and the tracer; returns their paths."""
    out = build_dir()
    cmake = shutil.which("cmake")
    if cmake is None:
        raise CheckFailure("cmake not found")
    if not (out / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run([cmake, "-S", str(HERE), "-B", str(out), *generator,
                        "-DCMAKE_BUILD_TYPE=Release"], check=True,
                       stdout=sys.stderr, stderr=sys.stderr, timeout=600)
    subprocess.run([cmake, "--build", str(out), "--target", "dspaddr_cli",
                    "perfbench_trace", "-j", str(min(4, os.cpu_count() or 1))],
                   check=True, stdout=sys.stderr, stderr=sys.stderr,
                   timeout=900)
    return out / "dspaddr" / "dspaddr", out / "perfbench_trace"


# ------------------------------------------------------------------- serve

class Serve:
    """One `dspaddr serve` child process on pipes."""

    def __init__(self, binary, args, log):
        self.started = time.perf_counter()
        with open(log, "ab") as err:
            self.proc = subprocess.Popen(
                [str(binary), "serve", *args], cwd=ROOT, stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, stderr=err, bufsize=0)
        self.out = open(self.proc.stdout.fileno(), "rb", closefd=False)

    def send(self, line):
        self.proc.stdin.write(line + b"\n")

    def recv(self):
        line = self.out.readline()
        if not line:
            raise CheckFailure("dspaddr serve exited early (see serve.log)")
        return line

    def ask(self, line):
        self.send(line)
        return self.recv()

    def cpu_s(self):
        """On-CPU time of the process's live threads (ns resolution)."""
        total = 0
        for task in Path("/proc/%d/task" % self.proc.pid).iterdir():
            try:
                total += int((task / "schedstat").read_text().split()[0])
            except (OSError, IndexError, ValueError):
                pass  # a thread that just exited
        return total / 1e9

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def close(self):
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=60)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.out.close()


def setup_times(binary, args, log, count):
    """Times `count` servers in turn, each from spawn to its answer to a
    first stats line, and closes each."""
    times = []
    for _ in range(count):
        server = Serve(binary, args(), log)
        try:
            json.loads(server.ask(b'{"stats":true}'))
            times.append(time.perf_counter() - server.started)
        finally:
            server.close()
    return times


def start_serve(binary, args, log, setups):
    """Times `setups` spawns after one untimed spawn, which pays for
    loading the binary after a build, then starts the server the run
    uses. Returns that server and the times."""
    times = setup_times(binary, args, log, setups + 1)[1:]
    return Serve(binary, args(), log), times


def allocate_s(server):
    """Seconds the server has spent in the allocate stage so far, from
    its own stage timer (`engine.stage_us.allocate`)."""
    metrics = json.loads(server.ask(b'{"metrics":true}'))["metrics"]
    return metrics["histograms"]["engine.stage_us.allocate"]["sum_us"] / 1e6


class Slice:
    """One stretch of a timed loop: answers, latencies and server CPU."""

    def __init__(self, server, now):
        self.start, self.cpu0 = now, server.cpu_s()
        self.latencies = []

    def close(self, server, now):
        self.seconds = now - self.start
        self.cpu = server.cpu_s() - self.cpu0


def closed_loop(server, next_line, outstanding, seconds, on_answer,
                slice_s=math.inf):
    """Keeps `outstanding` requests in flight until `seconds` pass or
    `next_line` returns None, then drains. Latency runs from writing a
    line to reading its answer. The loop is cut into `slice_s` slices;
    answers drained after the deadline belong to none, and a loop shorter
    than one slice is one slice. Returns (slices, answers)."""
    pending = collections.deque()
    start = time.perf_counter()
    deadline = start + seconds
    current, slices = Slice(server, start), []
    answers = 0

    def send():
        item = next_line()
        if item is not None:
            pending.append((item[0], time.perf_counter()))
            server.send(item[1])

    for _ in range(outstanding):
        send()
    while pending:
        answer = server.recv()
        now = time.perf_counter()
        tag, sent = pending.popleft()
        answers += 1
        on_answer(tag, answer)
        if now < deadline:
            current.latencies.append(now - sent)
            if now - current.start >= slice_s:
                current.close(server, now)
                slices.append(current)
                current = Slice(server, now)
            send()
    if not slices:
        current.close(server, time.perf_counter())
        slices.append(current)
    return slices, answers


def fixed_loop(server, tagged_lines, outstanding, on_answer):
    """Latencies, in request order, of a closed loop over a fixed list of
    (tag, line)."""
    lines = iter(enumerate(tagged_lines))

    def next_line():
        position, (tag, line) = next(lines, (None, (None, None)))
        return None if line is None else (tag, with_id(position, line))

    slices, _ = closed_loop(server, next_line, outstanding, math.inf,
                            on_answer)
    return slices[0].latencies


class Timing:
    """The numbers behind the end-to-end timing metrics."""

    def __init__(self, throughput, p50_us, p99_us, cpu_us, note, samples):
        self.throughput = throughput
        self.p50_us = p50_us
        self.p99_us = p99_us
        self.cpu_us = cpu_us
        self.note = note
        self.samples = samples

    @staticmethod
    def from_slices(slices):
        """Each metric is the median over the timed loop's slices of that
        slice's own figure, so a burst of load from other tenants of a
        shared host moves a few slices and not the result."""

        def each(f):
            return statistics.median(f(k) for k in slices)

        def pct(k, p):
            return percentile(sorted(k.latencies), p) * 1e6

        return Timing(
            each(lambda k: len(k.latencies) / k.seconds),
            each(lambda k: pct(k, 50)), each(lambda k: pct(k, 99)),
            each(lambda k: k.cpu / len(k.latencies) * 1e6),
            "%d samples in %d slices of %.1f s; p50 and p99 are medians of "
            "the slices' own, each over %d samples or more"
            % (sum(len(k.latencies) for k in slices), len(slices),
               slices[0].seconds, min(len(k.latencies) for k in slices)),
            [{"seconds": k.seconds, "answers": len(k.latencies),
              "p50_us": pct(k, 50), "p99_us": pct(k, 99), "cpu_s": k.cpu}
             for k in slices])


def pipelined(server, lines, window):
    """Answers for `lines`, with up to `window` in flight."""
    answers = []
    sent = 0
    while len(answers) < len(lines):
        while sent < len(lines) and sent - len(answers) < window:
            server.send(lines[sent])
            sent += 1
        answers.append(server.recv())
    return answers


# ------------------------------------------------------------------ checks

ID_PREFIX = re.compile(rb'^\{"id":\d+,')


def strip_id(answer):
    return ID_PREFIX.sub(b"{", answer.rstrip(b"\n"), count=1)


def with_id(index, request):
    return ('{"id":%d,' % index).encode() + request[1:]


class Checks:
    """Counts output checks; a failure is named, counted and fatal at
    the end of the run."""

    def __init__(self, inject_fault):
        self.failed = 0
        self.messages = []
        self.inject_fault = inject_fault

    def fail(self, message):
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(message)

    def answer(self, answer, where):
        """Every answer: no error, simulate.verified true."""
        if self.inject_fault:
            self.inject_fault = False
            answer = answer.replace(b'"verified":true', b'"verified":false')
        if b'"error"' in answer or answer.count(b'"verified":true') != 1:
            self.fail("%s: answer failed (error or not verified): %s"
                      % (where, answer[:160]))
            return False
        return True


def quality(answers):
    """The exact-repeat metrics of parsed answers."""
    totals = {"code_cycles": 0, "code_words": 0, "proven": 0, "gap_sum": 0,
              "core.exact_nodes": 0, "answers": len(answers)}
    for answer in answers:
        stages = answer["stages"]
        phase2 = stages["allocate"]["phase2"]
        totals["code_cycles"] += stages["metrics"]["optimized_cycles"]
        totals["code_words"] += stages["metrics"]["optimized_size_words"]
        totals["proven"] += 1 if phase2["proven"] else 0
        totals["gap_sum"] += phase2["gap"]
        totals["core.exact_nodes"] += phase2["nodes"]
    totals["proven_share"] = totals["proven"] / max(1, len(answers))
    return totals


REPEATED = ("code_cycles", "code_words", "proven_share", "gap_sum",
            "core.exact_nodes")


def compare_repeat(label, runs, checks, report):
    """Exact-repeat check over the quality of several runs of the same
    requests: names every metric that differs instead of averaging it."""
    differing = [n for n in REPEATED if len({q[n] for q in runs}) > 1]
    for name in differing:
        checks.fail("exact repeat %s: %s differs: %s"
                    % (label, name, [q[name] for q in runs]))
    report.append("exact repeat %s: %s" % (
        label, "MISMATCH in " + ", ".join(differing) if differing else
        "identical " + ", ".join("%s=%s" % (n, runs[0][n]) for n in REPEATED)))


# ---------------------------------------------------------------- metrics

def percentile(sorted_values, p):
    """Nearest-rank percentile (integer `p`) of an ascending list."""
    rank = max(1, (p * len(sorted_values) + 99) // 100)
    return sorted_values[rank - 1]


class Run:
    """State of one benchmark invocation."""

    def __init__(self, args, dspaddr, tracer):
        self.args = args
        self.sizes = Sizes(args.quick)
        self.dspaddr = dspaddr
        self.tracer = tracer
        self.work = build_dir() / "runs" / ("%s-s%d-t%d" % (
            args.workload, args.seed, args.trace))
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.log = self.work / "serve.log"
        self.checks = Checks(args.inject_fault)
        self.report = []
        self.attempted = 0
        self.metrics = {}
        self.notes = []
        self.samples = []

    # ------------------------------------------------------ seeded store

    def seed_store(self):
        """Seeds a log with the whole serve-replay corpus (cold, four
        workers). Returns the corpus lines, their answers and the seconds
        the seeding server spent in the allocate stage."""
        corpus = [wl.dumps(r).encode()
                  for r in wl.replay_corpus(self.args.seed, self.sizes.corpus)]
        self.seed_log = self.work / "seed.log"
        server = Serve(self.dspaddr, ["--jobs", "4", "--cache-capacity", "0",
                                      "--store", str(self.seed_log)], self.log)
        try:
            answers = pipelined(server, [with_id(i, line)
                                         for i, line in enumerate(corpus)], 16)
            allocate = allocate_s(server)
        finally:
            server.close()
        expected = []
        for i, answer in enumerate(answers):
            self.checks.answer(answer, "seeding corpus[%d]" % i)
            expected.append(strip_id(answer))
        return corpus, expected, allocate

    def store_copy(self):
        path = self.work / "store.log"
        shutil.copyfile(self.seed_log, path)
        return str(path)

    # ------------------------------------------------------- workloads

    def serve_replay(self, seconds):
        s = self.sizes
        corpus, expected, seed_allocate = self.seed_store()
        draws = wl.ZipfDraws(self.args.seed, len(corpus))
        args = lambda: ["--jobs", "2", "--cache-capacity",  # noqa: E731
                        str(s.cache_capacity), "--store", self.store_copy()]
        server, setups = start_serve(self.dspaddr, args, self.log, s.setups)
        sequence = [0]

        def next_line():
            index = draws.next()
            sequence[0] += 1
            return index, with_id(sequence[0], corpus[index])

        def on_answer(index, answer):
            if strip_id(answer) != expected[index]:
                self.checks.fail("serve-replay: answer for corpus[%d] differs "
                                 "from its seeding answer" % index)

        try:
            if self.args.trace:
                picks = [draws.next() for _ in range(s.trace_draws)]
                latencies = fixed_loop(
                    server, [(i, corpus[i]) for i in picks], 8, on_answer)
            else:
                warm = [draws.next() for _ in range(s.warmup_draws)]
                fixed_loop(server, [(i, corpus[i]) for i in warm], 8,
                           on_answer)
                slices, answers = closed_loop(server, next_line, 8, seconds,
                                              on_answer, s.slice_replay)
                rss = server.peak_rss_mb()
                store = json.loads(server.ask(b'{"stats":true}'))["stats"]["store"]
                if store["misses"] or store["appended_records"]:
                    self.checks.fail("serve-replay: %d requests missed the store "
                                     "and were computed" % store["misses"])
        finally:
            server.close()
        if self.args.trace:
            self.attempted = len(picks)
            return self.traced([corpus[i] for i in picks], corpus, latencies,
                               s.cache_capacity, str(self.seed_log))
        self.attempted = answers
        # Sampled byte-identity against a storeless, cacheless engine.
        rng = random.Random("sample/%d" % self.args.seed)
        sample = rng.sample(range(len(corpus)), s.sample_checks)
        plain = Serve(self.dspaddr, ["--jobs", "1", "--cache-capacity", "0"],
                      self.log)
        try:
            for index in sample:
                if strip_id(plain.ask(with_id(0, corpus[index]))) != \
                        expected[index]:
                    self.checks.fail("serve-replay: corpus[%d] differs from a "
                                     "storeless, cacheless engine" % index)
        finally:
            plain.close()
        q = quality([json.loads(a) for a in expected])
        self.report.append("every replayed answer byte-compared with its "
                           "seeding answer; %d sampled against a storeless, "
                           "cacheless engine" % len(sample))
        self.end_to_end(self.setup_s(setups, args), Timing.from_slices(slices),
                        rss, q, seed_allocate)
        self.notes.append("quality sums and solve_s over the %d-request "
                          "corpus as the seeding server computed it; "
                          "peak_rss_mb after the timed loop" % len(corpus))

    def compile_stream(self, seconds):
        s = self.sizes
        self.seed_store()
        stream = wl.compile_stream(self.args.seed, s.yardstick)
        args = lambda: ["--jobs", "1", "--cache-capacity",  # noqa: E731
                        str(s.cache_capacity), "--store", self.store_copy()]
        server, setups = start_serve(self.dspaddr, args, self.log, s.setups)
        if self.args.trace:
            lines = [wl.dumps(next(stream)).encode()
                     for _ in range(s.trace_stream)]
            try:
                latencies = fixed_loop(
                    server, list(enumerate(lines)), 1,
                    lambda i, a: self.checks.answer(a, "stream[%d]" % i))
            finally:
                server.close()
            self.attempted = len(lines)
            return self.traced(lines, lines, latencies, s.cache_capacity,
                               str(self.seed_log))
        # The yardstick, the same for every seed, is answered before the
        # timed loop; the quality sums and peak_rss_mb come from it, so
        # they repeat exactly (RSS nearly) from seed to seed.
        yardstick = [wl.dumps(next(stream)).encode()
                     for _ in range(s.yardstick)]
        sequence = [len(yardstick) - 1]

        def next_line():
            sequence[0] += 1
            return sequence[0], with_id(sequence[0],
                                        wl.dumps(next(stream)).encode())

        try:
            answers = pipelined(server, [with_id(i, line) for i, line in
                                         enumerate(yardstick)], 1)
            rss = server.peak_rss_mb()
            allocate = allocate_s(server)
            slices, answered = closed_loop(
                server, next_line, 1, seconds,
                lambda i, a: self.checks.answer(a, "stream[%d]" % i),
                s.slice_stream)
            allocate = allocate_s(server) - allocate
        finally:
            server.close()
        self.attempted = len(yardstick) + answered
        ok = [self.checks.answer(a, "yardstick[%d]" % i)
              for i, a in enumerate(answers)]
        # Exact repeat: the start of the yardstick again on `serve --jobs 2`.
        jobs2 = Serve(self.dspaddr, ["--jobs", "2", "--cache-capacity",
                                     str(s.cache_capacity), "--store",
                                     self.store_copy()], self.log)
        try:
            again = pipelined(jobs2, [with_id(i, line) for i, line in
                                      enumerate(yardstick[:s.jobs_prefix])], 1)
        finally:
            jobs2.close()
        both = [i for i, a in enumerate(again)
                if ok[i] and self.checks.answer(a, "jobs-2 yardstick[%d]" % i)]
        compare_repeat("of the first %d requests, serve --jobs 1 vs --jobs 2"
                       % len(again),
                       [quality([json.loads(answers[i]) for i in both]),
                        quality([json.loads(again[i]) for i in both])],
                       self.checks, self.report)
        for i in both:
            if strip_id(again[i]) != strip_id(answers[i]):
                self.checks.fail("compile-stream: yardstick[%d] differs "
                                 "between --jobs 1 and --jobs 2" % i)
        self.end_to_end(self.setup_s(setups, args), Timing.from_slices(slices),
                        rss, quality([json.loads(a) for a, good in
                                 zip(answers, ok) if good]),
                        allocate / answered * 1000)
        self.notes.append("quality sums and peak_rss_mb over the %d-request "
                          "yardstick that opens every stream; solve_s per "
                          "1000 requests of the timed loop" % len(yardstick))

    def solve_hard(self, seconds):
        s = self.sizes
        instances = [(label, wl.dumps(r).encode())
                     for label, r in wl.hard_set(self.args.seed, s.quick)]
        args = lambda: ["--jobs", "1", "--cache-capacity", "0"]  # noqa: E731
        server, setups = start_serve(self.dspaddr, args, self.log, s.setups)
        try:
            # lower_bound <= cost <= the two-phase heuristic's cost.
            heuristic = {}
            for label, line in instances:
                request = json.loads(line)
                request["phase2"] = "heuristic"
                answer = json.loads(server.ask(wl.dumps(request).encode()))
                heuristic[label] = answer["stages"]["allocate"]["cost"]
            if self.args.trace:
                latencies = fixed_loop(
                    server, instances, 1,
                    lambda label, a: self.checks.answer(a, label))
            else:
                passes, solves = self._passes(server, instances, heuristic,
                                              seconds)
                rss = server.peak_rss_mb()
        finally:
            server.close()
        if self.args.trace:
            self.attempted = len(instances)
            lines = [line for _, line in instances]
            return self.traced(lines, lines, latencies, 0, None)
        self.attempted = len(passes) * len(instances)
        compare_repeat("over %d passes" % len(passes), passes, self.checks,
                       self.report)
        # Each instance counts the median of its solves over the passes.
        # With eight instances there is no p99: the tail is the slowest.
        def medians(field):
            return sorted(statistics.median(solve[field] for solve in runs)
                          for runs in solves.values())

        wall, cpu, allocate = medians(0), medians(1), medians(2)
        timing = Timing(
            len(wall) / sum(wall), statistics.median(wall) * 1e6,
            wall[-1] * 1e6,
            statistics.mean(cpu) * 1e6,
            "%d passes over %d instances; latencies are each instance's "
            "median solve, latency_p99_us is the slowest instance (too few "
            "samples for a p99)" % (len(passes), len(wall)), solves)
        self.end_to_end(self.setup_s(setups, args), timing, rss, passes[0],
                        sum(allocate))

    def _passes(self, server, instances, heuristic, seconds):
        """Whole passes over the hard set until `seconds` pass. Every answer
        must satisfy lower_bound <= cost <= the heuristic cost. Returns the
        quality of each pass and, for every solve, its wall, server CPU and
        server allocate-stage seconds."""
        passes, solves = [], collections.defaultdict(list)
        allocate = allocate_s(server)
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            answers = []
            for label, line in instances:
                t, cpu = time.perf_counter(), server.cpu_s()
                answer = server.ask(line)
                wall, cpu = time.perf_counter() - t, server.cpu_s() - cpu
                allocated = allocate_s(server)
                solves[label].append((wall, cpu, allocated - allocate))
                allocate = allocated
                if not self.checks.answer(answer, label):
                    continue
                parsed = json.loads(answer)
                allocate_stage = parsed["stages"]["allocate"]
                lb = allocate_stage["phase2"]["lower_bound"]
                if not lb <= allocate_stage["cost"] <= heuristic[label]:
                    self.checks.fail("%s: not lower_bound %d <= cost %d <= "
                                     "heuristic %d" % (label, lb,
                                                       allocate_stage["cost"],
                                                       heuristic[label]))
                answers.append(parsed)
            passes.append(quality(answers))
        return passes, solves

    # --------------------------------------------------------- results

    def setup_s(self, before, args):
        """Median set-up time over the spawns timed before the run and as
        many after it, so that one burst of load cannot set it."""
        return statistics.median(before + setup_times(
            self.dspaddr, args, self.log, self.sizes.setups))

    def end_to_end(self, setup, timing, rss, q, solve_s):
        self.metrics = {
            "setup_s": setup,
            "throughput_rps": timing.throughput,
            "latency_p50_us": timing.p50_us,
            "latency_p99_us": timing.p99_us,
            "cpu_us_per_req": timing.cpu_us,
            "solve_s": solve_s,
            "proven_share": q["proven_share"],
            "code_cycles": q["code_cycles"],
            "code_words": q["code_words"],
            "peak_rss_mb": rss,
        }
        self.notes.append("latencies: " + timing.note)
        self.notes.append("solve_s: the server's own allocate-stage time "
                          "(engine.stage_us.allocate), not derived from "
                          "throughput")
        self.samples = timing.samples
        self.notes.append("gap_sum=%d over the same answers (not a gated "
                          "metric: 0 whenever every search proves)"
                          % q["gap_sum"])
        self.notes.append("core.exact_nodes=%d over the same answers"
                          % q["core.exact_nodes"])

    def traced(self, replay, compose, latencies, capacity, seed):
        """Runs the tracer on the requests the serve loop just answered
        and turns its spans into the per-layer metrics."""
        replay_file = self.work / "replay.jsonl"
        compose_file = self.work / "compose.jsonl"
        replay_file.write_bytes(b"".join(l + b"\n" for l in replay))
        compose_file.write_bytes(b"".join(l + b"\n" for l in compose))
        command = [str(self.tracer), "--replay", str(replay_file), "--compose",
                   str(compose_file), "--work-dir", str(self.work),
                   "--cache-capacity", str(capacity)]
        if seed:
            command += ["--store-seed", seed]
        with open(self.log, "ab") as err:
            result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                    stderr=err, timeout=170)
        if result.returncode != 0:
            raise CheckFailure("perfbench_trace failed (see %s)" % self.log)
        summary = json.loads(result.stdout.decode().strip().splitlines()[-1])
        checks = summary["checks"]
        if checks["replay_errors"] or checks["compose_errors"] or \
                checks["compose_mismatches"]:
            self.checks.fail("traced run: %s" % json.dumps(checks))
        metrics = dict(summary["values"])
        self.sources = {}
        for span, metric in SPAN_METRICS.items():
            entry = summary["spans"].get(span)
            if entry is None:
                raise CheckFailure("traced run has no %s span" % span)
            metrics[metric] = entry["median_us"]
            self.sources[metric] = "%s n=%d self=%.1fus" % (
                entry["source"], entry["n"], entry["self_median_us"])
        transport = [e2e * 1e6 - inproc for e2e, inproc in
                     zip(latencies, summary["inproc_us"])]
        metrics["cli.transport_us"] = statistics.median(transport)
        self.sources["cli.transport_us"] = "traffic n=%d" % len(transport)
        self.metrics = metrics
        self.notes.append("traced run overhead: %+.1f%% against an untraced "
                          "in-process replay; spans in %s"
                          % (100 * metrics["trace.overhead_share"],
                             self.work / "spans.csv"))


# -------------------------------------------------------------- provenance

def provenance(build):
    def cmake_cache(key):
        try:
            for line in (build / "CMakeCache.txt").read_text().splitlines():
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1]
        except OSError:
            pass
        return "unknown"

    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.TimeoutExpired):
        version = compiler
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    cpu = "unknown"
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    src_lines = sum(len(p.read_bytes().splitlines())
                    for p in (ROOT / "src").rglob("*")
                    if p.suffix in (".cpp", ".hpp"))
    return {"commit": commit, "compiler": version,
            "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
            "nproc": os.cpu_count(), "cpu": cpu, "src_lines": src_lines}


# -------------------------------------------------------------------- main

def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["serve-replay", "compile-stream",
                                 "solve-hard"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload seed (default %d; held-out seed for "
                        "re-checking claims: %d)" % (DEFAULT_SEED,
                                                     HELD_OUT_SEED))
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    parser.add_argument("--inject-fault", action="store_true",
                        help="self-test: flip `verified` in the first answer "
                        "before checking it")
    args = parser.parse_args()

    try:
        dspaddr, tracer = build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            CheckFailure) as e:
        print("build failed: %s" % e, file=sys.stderr)
        return 1

    run = Run(args, dspaddr, tracer)
    meta = provenance(build_dir())
    try:
        getattr(run, args.workload.replace("-", "_"))(args.seconds)
    except CheckFailure as e:
        print("run failed: %s" % e, file=sys.stderr)
        return 1

    names = PER_LAYER if args.trace else END_TO_END
    units = {name: unit for name, unit, *_ in names}
    shown = {} if args.trace else dict(UNGATED)
    print("dspaddr benchmark  workload=%s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("provenance: %s" % json.dumps(meta))
    if args.trace:
        for name, unit, moves, on in PER_LAYER:
            print("  %-26s %14.6g %-6s moves %-38s on %-28s %s" % (
                name, run.metrics[name], unit, moves, on,
                run.sources.get(name, "")))
    else:
        for name, unit in END_TO_END + UNGATED:
            print("  %-16s %16.6f %s%s" % (name, run.metrics[name], unit,
                                           "  (not gated)" if name in shown
                                           else ""))
    for note in run.notes + run.report:
        print("  note: %s" % note)
    error_share = run.checks.failed / max(1, run.attempted)
    print("  error_share      %16.6f ratio (%d failed of %d)"
          % (error_share, run.checks.failed, run.attempted))
    for message in run.checks.messages:
        print("  FAILED: %s" % message)

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "provenance": meta, "notes": run.notes + run.report,
              "failed_checks": run.checks.messages, "samples": run.samples,
              "metrics": {n: {"value": run.metrics[n], "unit": units[n]}
                          for n in units},
              "not_gated": {n: {"value": run.metrics[n], "unit": u}
                            for n, u in shown.items()}}
    (run.work / "result.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": run.checks.failed == 0,
        "attempted": max(1, run.attempted),
        "failed": run.checks.failed,
        "metrics": record["metrics"],
    }))
    return 0 if run.checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
