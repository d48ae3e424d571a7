// Experiment T3 — phase 1 machinery (paper section 3.1): the number of
// virtual registers K~ computed by the exact search (core/exact.hpp,
// asking for ever smaller zero-cost covers), bracketed by the matching
// lower bound (Araujo et al. [2]) and the greedy upper bound.
//
// The paper claims the procedure is fast because "based on these
// bounds, one can quickly decide whether or not a certain graph edge
// must be included in the path cover". The table shows, per pattern
// size, how tight the bounds are (mean LB / K~ / UB, how often LB = K~,
// how often UB = K~) and how many nodes the exact search explores over
// all of its questions; google-benchmark times all three computations.
#include <benchmark/benchmark.h>

#include <iostream>

#include "core/phase1.hpp"
#include "eval/patterns.hpp"
#include "support/stats.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"

namespace {

using namespace dspaddr;

void print_bounds_table() {
  constexpr std::size_t kTrials = 50;
  support::Table table({"N", "M", "LB mean", "K~ mean", "UB mean",
                        "LB tight", "UB tight", "search nodes (mean)"});

  for (const std::size_t n : {8u, 12u, 16u, 20u, 24u}) {
    for (const std::int64_t m : {1, 2}) {
      support::RunningStats lb_stats, kt_stats, ub_stats, node_stats;
      std::size_t lb_tight = 0;
      std::size_t ub_tight = 0;
      support::Rng rng(0xC0FFEE ^ (n * 131) ^ static_cast<std::size_t>(m));
      for (std::size_t trial = 0; trial < kTrials; ++trial) {
        eval::PatternSpec spec;
        spec.accesses = n;
        spec.offset_range = 8;
        const ir::AccessSequence seq = eval::generate_pattern(spec, rng);
        const core::SuffixBounds costs(
            seq, core::CostModel{m, core::WrapPolicy::kCyclic});
        const core::Phase1Result r = core::compute_min_register_cover(costs);
        if (!r.k_tilde.has_value()) continue;
        lb_stats.add(static_cast<double>(r.lower_bound));
        kt_stats.add(static_cast<double>(*r.k_tilde));
        if (r.upper_bound.has_value()) {
          ub_stats.add(static_cast<double>(*r.upper_bound));
          if (*r.upper_bound == *r.k_tilde) ++ub_tight;
        }
        if (r.lower_bound == *r.k_tilde) ++lb_tight;
        node_stats.add(static_cast<double>(r.search_nodes));
      }
      table.add_row({
          std::to_string(n),
          std::to_string(m),
          support::format_fixed(lb_stats.mean(), 2),
          support::format_fixed(kt_stats.mean(), 2),
          support::format_fixed(ub_stats.mean(), 2),
          support::format_percent(100.0 * lb_tight / kTrials, 0),
          support::format_percent(100.0 * ub_tight / kTrials, 0),
          support::format_fixed(node_stats.mean(), 0),
      });
    }
  }
  std::cout << "T3: phase-1 bounds and exact K~ (exact search), "
            << kTrials << " uniform patterns per row\n\n";
  table.write(std::cout);
  std::cout << "\nLB = matching bound on the intra-iteration DAG; "
               "UB = greedy zero-cost cover.\n\n";
}

ir::AccessSequence pattern_of_size(std::size_t n) {
  support::Rng rng(42);
  eval::PatternSpec spec;
  spec.accesses = n;
  spec.offset_range = 8;
  return eval::generate_pattern(spec, rng);
}

void BM_MatchingLowerBound(benchmark::State& state) {
  const auto seq = pattern_of_size(static_cast<std::size_t>(state.range(0)));
  const core::SuffixBounds costs(
      seq, core::CostModel{1, core::WrapPolicy::kCyclic});
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::lower_bound_registers(costs));
  }
}
BENCHMARK(BM_MatchingLowerBound)->Arg(16)->Arg(64)->Arg(256);

void BM_GreedyUpperBound(benchmark::State& state) {
  const auto seq = pattern_of_size(static_cast<std::size_t>(state.range(0)));
  const core::SuffixBounds costs(
      seq, core::CostModel{1, core::WrapPolicy::kCyclic});
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::greedy_zero_cost_cover(costs));
  }
}
BENCHMARK(BM_GreedyUpperBound)->Arg(16)->Arg(64)->Arg(256);

void BM_Phase1Exact(benchmark::State& state) {
  const auto seq = pattern_of_size(static_cast<std::size_t>(state.range(0)));
  const core::SuffixBounds costs(
      seq, core::CostModel{1, core::WrapPolicy::kCyclic});
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::compute_min_register_cover(costs).k_tilde);
  }
}
BENCHMARK(BM_Phase1Exact)->Arg(12)->Arg(16)->Arg(20);

}  // namespace

int main(int argc, char** argv) {
  print_bounds_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
