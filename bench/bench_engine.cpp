// Engine throughput: requests/sec with the fingerprint cache cold vs
// warm — the number that justifies memoizing the pipeline for
// repeated-kernel traffic (sweep grids, the serve loop).
//
// BM_EngineColdCache clears the cache every iteration, so each run
// pays the full pass sequence. BM_EngineWarmCache pre-warms one engine
// and replays the same request mix; every run is a lookup + copy. The
// printed summary reports the resulting speedup on the repeated-kernel
// workload as data (the exact phase-2 search alone costs milliseconds,
// a hit costs microseconds) and checks two deterministic facts; the
// bench exits 1 when either fails:
//  * cache accounting: the warm-up pass misses once per request and
//    every later request hits;
//  * answers: every warm answer renders byte-identically to the cold
//    one.
#include <benchmark/benchmark.h>

#include <chrono>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "agu/machines.hpp"
#include "engine/engine.hpp"
#include "engine/serialize.hpp"
#include "ir/kernels.hpp"

namespace {

using namespace dspaddr;

/// The repeated-kernel workload: every builtin kernel against two
/// catalog AGUs, solved to proven optimality and simulated for a
/// realistic block length — the shape of one serve client sweeping the
/// catalog.
std::vector<engine::Request> workload() {
  std::vector<engine::Request> requests;
  for (const ir::Kernel& kernel : ir::builtin_kernels()) {
    for (const char* machine : {"minimal2", "wide4"}) {
      engine::Request request;
      request.kernel = kernel;
      request.machine = agu::builtin_machine(machine);
      request.phase2.mode = core::Phase2Options::Mode::kExact;
      request.iterations = 4096;
      requests.push_back(request);
    }
  }
  return requests;
}

void BM_EngineColdCache(benchmark::State& state) {
  const std::vector<engine::Request> requests = workload();
  engine::Engine engine;
  std::size_t processed = 0;
  for (auto _ : state) {
    state.PauseTiming();
    engine.clear_cache();
    state.ResumeTiming();
    for (const engine::Request& request : requests) {
      benchmark::DoNotOptimize(engine.run(request));
    }
    processed += requests.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(processed));
}
BENCHMARK(BM_EngineColdCache)->Unit(benchmark::kMillisecond);

void BM_EngineWarmCache(benchmark::State& state) {
  const std::vector<engine::Request> requests = workload();
  engine::Engine engine(
      engine::Engine::Options{2 * requests.size()});
  for (const engine::Request& request : requests) {
    engine.run(request);
  }
  std::size_t processed = 0;
  for (auto _ : state) {
    for (const engine::Request& request : requests) {
      benchmark::DoNotOptimize(engine.run(request));
    }
    processed += requests.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(processed));
}
BENCHMARK(BM_EngineWarmCache)->Unit(benchmark::kMillisecond);

/// One-shot summary: measured cold vs warm requests/sec and the
/// speedup, printed before the benchmark table, plus the cache
/// accounting and answer checks. True when both checks pass.
bool print_speedup_summary() {
  using Clock = std::chrono::steady_clock;
  const std::vector<engine::Request> requests = workload();

  // Each timed loop keeps its first round's results (a move, not a
  // render) for the answer check after the clock stops.
  engine::Engine cold(engine::Engine::Options{0});
  std::vector<engine::Result> cold_results;
  const auto cold_start = Clock::now();
  constexpr int kColdRounds = 3;
  for (int round = 0; round < kColdRounds; ++round) {
    for (const engine::Request& request : requests) {
      engine::Result result = cold.run(request);
      if (round == 0) cold_results.push_back(std::move(result));
    }
  }
  const double cold_s =
      std::chrono::duration<double>(Clock::now() - cold_start).count();
  const double cold_rps =
      kColdRounds * static_cast<double>(requests.size()) / cold_s;

  engine::Engine warm(engine::Engine::Options{2 * requests.size()});
  for (const engine::Request& request : requests) {
    warm.run(request);
  }
  std::vector<engine::Result> warm_results;
  const auto warm_start = Clock::now();
  constexpr int kWarmRounds = 50;
  for (int round = 0; round < kWarmRounds; ++round) {
    for (const engine::Request& request : requests) {
      engine::Result result = warm.run(request);
      if (round == 0) warm_results.push_back(std::move(result));
    }
  }
  const double warm_s =
      std::chrono::duration<double>(Clock::now() - warm_start).count();
  const double warm_rps =
      kWarmRounds * static_cast<double>(requests.size()) / warm_s;

  std::size_t answers_differing = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (engine::result_to_json_line(warm_results[i]) !=
        engine::result_to_json_line(cold_results[i])) {
      ++answers_differing;
    }
  }
  const engine::CacheStats stats = warm.cache_stats();
  const bool accounting_ok =
      stats.misses == requests.size() &&
      stats.hits == kWarmRounds * requests.size();
  const bool answers_ok = answers_differing == 0;
  std::cout << "=== Engine cache speedup (repeated-kernel workload, "
            << requests.size() << " requests/round) ===\n"
            << "  cold: " << static_cast<std::int64_t>(cold_rps)
            << " req/s\n"
            << "  warm: " << static_cast<std::int64_t>(warm_rps)
            << " req/s  (" << stats.hits << " hits / " << stats.misses
            << " misses)\n"
            << "  speedup: " << warm_rps / cold_rps << "x\n"
            << "  cache accounting (misses = first pass, every warm "
               "request a hit): "
            << (accounting_ok ? "OK" : "FAILED") << "\n"
            << "  warm answers = cold answers: "
            << (answers_ok ? "OK"
                           : "FAILED (" + std::to_string(answers_differing) +
                                 " differ)")
            << "\n\n";
  return accounting_ok && answers_ok;
}

}  // namespace

int main(int argc, char** argv) {
  const bool ok = print_speedup_summary();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return ok ? 0 : 1;
}
