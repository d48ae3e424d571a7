// Serve pipeline throughput: JSON-lines requests/sec through
// cli::run_serve at --jobs 1 / 4 / 8 on a cache-miss-heavy workload —
// the number that justifies the pipelined reader → TaskPool → ordered
// writer architecture over the old sequential read-eval-print loop.
//
// Every request in the workload is distinct (kernel × K × M with the
// exact phase-2 solver) and the cache is disabled, so each line pays
// the full pass sequence: the measured speedup is pure pipeline
// parallelism, not memoization. The printed summary reports jobs=8 vs
// jobs=1 as data: the speedup follows the host's cores and load, so it
// gates nothing (CI checks instead that jobs levels answer
// byte-identically).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli/serve.hpp"
#include "ir/kernels.hpp"

namespace {

using namespace dspaddr;

/// The cache-miss-heavy workload: every builtin kernel across K in
/// {1,2,3,4} and M in {0,1,2}, exact phase 2, a moderate simulated
/// block — no two lines share a fingerprint.
std::string workload_jsonl(std::size_t* line_count) {
  std::ostringstream lines;
  std::size_t count = 0;
  for (const ir::Kernel& kernel : ir::builtin_kernels()) {
    for (int registers = 1; registers <= 4; ++registers) {
      for (int modify_range = 0; modify_range <= 2; ++modify_range) {
        lines << "{\"builtin\":\"" << kernel.name()
              << "\",\"registers\":" << registers
              << ",\"modify_range\":" << modify_range
              << ",\"phase2\":\"exact\",\"iterations\":2048}\n";
        ++count;
      }
    }
  }
  *line_count = count;
  return lines.str();
}

/// One full serve session over the workload; returns requests/sec.
double serve_requests_per_second(const std::string& input,
                                 std::size_t lines, std::size_t jobs) {
  cli::ServeOptions options;
  options.cache_capacity = 0;  // every request recomputes
  options.jobs = jobs;
  std::istringstream in(input);
  std::ostringstream out;
  const auto start = std::chrono::steady_clock::now();
  cli::run_serve(in, out, options);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start)
          .count();
  return static_cast<double>(lines) / seconds;
}

void BM_ServePipeline(benchmark::State& state) {
  std::size_t lines = 0;
  const std::string input = workload_jsonl(&lines);
  const std::size_t jobs = static_cast<std::size_t>(state.range(0));
  std::size_t processed = 0;
  for (auto _ : state) {
    cli::ServeOptions options;
    options.cache_capacity = 0;
    options.jobs = jobs;
    std::istringstream in(input);
    std::ostringstream out;
    cli::run_serve(in, out, options);
    benchmark::DoNotOptimize(out);
    processed += lines;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(processed));
}
BENCHMARK(BM_ServePipeline)->Arg(1)->Arg(4)->Arg(8)->Unit(
    benchmark::kMillisecond);

/// One-shot summary printed before the benchmark table: requests/sec
/// per jobs level and the jobs=8 vs jobs=1 speedup.
void print_speedup_summary() {
  std::size_t lines = 0;
  const std::string input = workload_jsonl(&lines);

  std::cout << "=== Serve pipeline throughput (cache-miss workload, "
            << lines << " distinct requests) ===\n";
  double rps1 = 0.0;
  double rps8 = 0.0;
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4},
                                 std::size_t{8}}) {
    const double rps = serve_requests_per_second(input, lines, jobs);
    std::cout << "  jobs=" << jobs << ": "
              << static_cast<std::int64_t>(rps) << " req/s\n";
    if (jobs == 1) {
      rps1 = rps;
    }
    if (jobs == 8) {
      rps8 = rps;
    }
  }
  std::cout << "  speedup (jobs=8 vs jobs=1): " << rps8 / rps1 << "x on "
            << std::thread::hardware_concurrency() << " hardware threads\n\n";
}

}  // namespace

int main(int argc, char** argv) {
  print_speedup_summary();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
