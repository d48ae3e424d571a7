// Portfolio racing vs the fixed strategy grid, with two hard gates.
//
// For every builtin kernel (at minimal2's K=2, M=1, where strategies
// genuinely disagree):
//  * the whole fixed (layout, strategy) grid runs through one shared
//    engine and the best fixed cost is recorded;
//  * a cold `auto`/`auto` race runs through a fresh portfolio — GATE:
//    the race winner's cost must be <= the best fixed cost on every
//    kernel (with no deadline the race runs every candidate to
//    completion or sound bound-cancellation, so a worse winner means
//    the selection logic is broken);
//  * a second, warm request hits the learned short-circuit — GATE: it
//    must actually short-circuit (exactly one strategy executed). Its
//    wall clock and the best fixed strategy's own solve are printed as
//    data, not gated: they follow the host's load.
//
// The per-kernel table is written as CSV (--csv=FILE) for the CI
// artifact, and the process exits nonzero on any gate violation.
//
// Usage: bench_portfolio --csv=portfolio.csv [gbench flags]
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "agu/machines.hpp"
#include "engine/engine.hpp"
#include "engine/portfolio.hpp"
#include "engine/strategy.hpp"
#include "ir/kernels.hpp"
#include "support/table.hpp"

namespace {

using namespace dspaddr;
using Clock = std::chrono::steady_clock;

constexpr const char* kMachine = "minimal2";

engine::Request base_request(const ir::Kernel& kernel) {
  engine::Request request;
  request.kernel = kernel;
  request.machine = agu::builtin_machine(kMachine);
  // Allocation cost is what the gates compare; stop after planning.
  request.stop_after = engine::Stage::kPlan;
  return request;
}

std::uint64_t us_since(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            start)
          .count());
}

/// Median-of-reps wall clock of one callable, in microseconds.
template <typename Fn>
std::uint64_t median_us(Fn&& fn, int reps) {
  std::vector<std::uint64_t> samples;
  samples.reserve(reps);
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point start = Clock::now();
    fn();
    samples.push_back(us_since(start));
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

struct KernelRow {
  std::string kernel;
  std::size_t candidates = 0;
  std::string best_fixed_pair;
  int best_fixed_cost = 0;
  std::string auto_pair;
  int auto_cost = 0;
  std::uint64_t cold_race_us = 0;
  std::uint64_t warm_auto_us = 0;
  std::uint64_t best_fixed_us = 0;
  bool short_circuit = false;
  bool cost_ok = false;
  bool warm_ok = false;
};

int run_portfolio_table(const std::string& csv_path) {
  const engine::StrategyRegistry& registry =
      engine::StrategyRegistry::builtin();
  const std::vector<std::string> layouts = registry.layout_names();
  const std::vector<std::string> strategies = registry.allocation_names();

  // One cached engine for the fixed grid: like production traffic,
  // repeated cells are hits, and the race below re-derives the same
  // costs independently.
  engine::Engine grid_engine(engine::Engine::Options{1024});

  constexpr int kTimingReps = 5;

  std::vector<KernelRow> rows;
  std::size_t cost_violations = 0;
  std::size_t warm_violations = 0;
  std::size_t errors = 0;

  for (const ir::Kernel& kernel : ir::builtin_kernels()) {
    KernelRow row;
    row.kernel = kernel.name();
    row.candidates = layouts.size() * strategies.size();

    // Best fixed pair, canonical layout-major order breaking ties.
    row.best_fixed_cost = std::numeric_limits<int>::max();
    for (const std::string& layout : layouts) {
      for (const std::string& strategy : strategies) {
        engine::Request request = base_request(kernel);
        request.layout = layout;
        request.strategy = strategy;
        const engine::Result result = grid_engine.run(request);
        if (!result.ok()) {
          std::cerr << layout << "/" << strategy << " failed on "
                    << kernel.name() << ": " << result.error->message
                    << "\n";
          ++errors;
          continue;
        }
        if (result.allocation_cost < row.best_fixed_cost) {
          row.best_fixed_cost = result.allocation_cost;
          row.best_fixed_pair = layout + "/" + strategy;
        }
      }
    }

    // Cold race, then the warm short-circuit, on an uncached engine so
    // the warm timing measures a real solve rather than a cache probe.
    engine::Engine race_engine(engine::Engine::Options{0});
    engine::PortfolioOptions options;
    options.jobs = std::max(1u, std::thread::hardware_concurrency());
    options.rerace_interval = 0;  // timing reps must stay short-circuits
    engine::Portfolio portfolio(race_engine, options);

    engine::Request auto_request = base_request(kernel);
    auto_request.layout = engine::kAutoStrategy;
    auto_request.strategy = engine::kAutoStrategy;

    engine::PortfolioReport cold_report;
    const Clock::time_point cold_start = Clock::now();
    const engine::Result cold = portfolio.run(auto_request, &cold_report);
    row.cold_race_us = us_since(cold_start);
    if (!cold.ok()) {
      std::cerr << "auto race failed on " << kernel.name() << ": "
                << cold.error->message << "\n";
      ++errors;
      rows.push_back(row);
      continue;
    }
    row.auto_cost = cold.allocation_cost;
    row.auto_pair = cold_report.winner_layout + "/" +
                    cold_report.winner_strategy;
    row.cost_ok = row.auto_cost <= row.best_fixed_cost;
    if (!row.cost_ok) {
      std::cerr << "VIOLATION: auto cost " << row.auto_cost << " > best "
                << "fixed " << row.best_fixed_cost << " ("
                << row.best_fixed_pair << ") on " << kernel.name() << "\n";
      ++cost_violations;
    }

    engine::PortfolioReport warm_report;
    row.warm_auto_us = median_us(
        [&] { portfolio.run(auto_request, &warm_report); }, kTimingReps);
    row.short_circuit = warm_report.short_circuit;

    engine::Request fixed_request = base_request(kernel);
    fixed_request.layout = cold_report.winner_layout;
    fixed_request.strategy = cold_report.winner_strategy;
    row.best_fixed_us = median_us(
        [&] {
          benchmark::DoNotOptimize(
              race_engine.run(fixed_request).allocation_cost);
        },
        kTimingReps);

    row.warm_ok = row.short_circuit && warm_report.launched == 1;
    if (!row.warm_ok) {
      std::cerr << "VIOLATION: warm auto ran " << warm_report.launched
                << " strateg" << (warm_report.launched == 1 ? "y" : "ies")
                << (row.short_circuit ? "" : " without a short-circuit")
                << " on " << kernel.name() << "\n";
      ++warm_violations;
    }
    rows.push_back(row);
  }

  support::Table table({"kernel", "best fixed", "cost", "auto winner",
                        "cost", "race us", "warm us", "fixed us", "sc",
                        "gates"});
  for (const KernelRow& row : rows) {
    table.add_row({row.kernel, row.best_fixed_pair,
                   std::to_string(row.best_fixed_cost), row.auto_pair,
                   std::to_string(row.auto_cost),
                   std::to_string(row.cold_race_us),
                   std::to_string(row.warm_auto_us),
                   std::to_string(row.best_fixed_us),
                   row.short_circuit ? "yes" : "no",
                   row.cost_ok && row.warm_ok ? "ok" : "FAIL"});
  }
  std::cout << "portfolio racing: auto vs the fixed grid on " << kMachine
            << ", all builtin kernels\n\n";
  table.write(std::cout);
  std::cout << "\nauto cost <= best fixed on every kernel: "
            << (cost_violations == 0 ? "OK" : "VIOLATED")
            << "\nwarm auto short-circuits to one strategy: "
            << (warm_violations == 0 ? "OK" : "VIOLATED");
  if (errors != 0) {
    std::cout << " (" << errors << " racer error(s))";
  }
  std::cout << "\n\n";

  if (!csv_path.empty()) {
    std::ofstream csv(csv_path, std::ios::trunc);
    csv << "kernel,candidates,best_fixed_pair,best_fixed_cost,auto_pair,"
           "auto_cost,cold_race_us,warm_auto_us,best_fixed_us,"
           "short_circuit,cost_gate,warm_gate\n";
    for (const KernelRow& row : rows) {
      csv << row.kernel << "," << row.candidates << ","
          << row.best_fixed_pair << "," << row.best_fixed_cost << ","
          << row.auto_pair << "," << row.auto_cost << ","
          << row.cold_race_us << "," << row.warm_auto_us << ","
          << row.best_fixed_us << ","
          << (row.short_circuit ? "yes" : "no") << ","
          << (row.cost_ok ? "ok" : "fail") << ","
          << (row.warm_ok ? "ok" : "fail") << "\n";
    }
    std::cout << "  per-kernel portfolio CSV written to " << csv_path
              << "\n\n";
  }
  return cost_violations == 0 && warm_violations == 0 && errors == 0 ? 0
                                                                     : 1;
}

void BM_PortfolioColdRace(benchmark::State& state) {
  const ir::Kernel kernel = ir::biquad_kernel();
  for (auto _ : state) {
    engine::Engine engine(engine::Engine::Options{0});
    engine::Portfolio portfolio(engine);
    engine::Request request = base_request(kernel);
    request.layout = engine::kAutoStrategy;
    request.strategy = engine::kAutoStrategy;
    benchmark::DoNotOptimize(portfolio.run(request).allocation_cost);
  }
}
BENCHMARK(BM_PortfolioColdRace);

void BM_PortfolioWarmShortCircuit(benchmark::State& state) {
  const ir::Kernel kernel = ir::biquad_kernel();
  engine::Engine engine(engine::Engine::Options{0});
  engine::PortfolioOptions options;
  options.rerace_interval = 0;
  engine::Portfolio portfolio(engine, options);
  engine::Request request = base_request(kernel);
  request.layout = engine::kAutoStrategy;
  request.strategy = engine::kAutoStrategy;
  portfolio.run(request);  // learn once
  for (auto _ : state) {
    benchmark::DoNotOptimize(portfolio.run(request).allocation_cost);
  }
}
BENCHMARK(BM_PortfolioWarmShortCircuit);

}  // namespace

int main(int argc, char** argv) {
  std::string csv_path;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    constexpr const char* kCsv = "--csv=";
    if (std::strncmp(argv[i], kCsv, std::strlen(kCsv)) == 0) {
      csv_path = argv[i] + std::strlen(kCsv);
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  const int gate = run_portfolio_table(csv_path);
  if (gate != 0) {
    return gate;
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
