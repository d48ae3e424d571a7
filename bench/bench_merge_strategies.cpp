// Experiment T4 — ablation of the phase-2 pair-selection rule (paper
// section 3.2): "it is reasonable to select that pair (P_i, P_j) of
// paths for merging, such that C(P_i ⊕ P_j) is minimal among all
// pairs."
//
// Contenders on identical phase-1 covers:
//   min-merged-cost — the paper's rule,
//   min-delta       — minimize the cost *increase* instead,
//   first-pair      — the paper's naive baseline,
//   random-pair     — arbitrary merges, averaged over seeds.
// The table shows the mean final cost per (N, K); the paper's rule must
// never lose, and the arbitrary rules must trail clearly.
#include <benchmark/benchmark.h>

#include <iostream>

#include "core/bounds.hpp"
#include "core/merging.hpp"
#include "core/phase1.hpp"
#include "eval/patterns.hpp"
#include "support/stats.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"

namespace {

using namespace dspaddr;

const core::CostModel kModel{1, core::WrapPolicy::kCyclic};

double mean_cost_for_strategy(core::MergeStrategy strategy, std::size_t n,
                              std::size_t k, std::size_t trials) {
  support::RunningStats stats;
  support::Rng rng(0xAB1E ^ (n * 7) ^ (k * 131));
  for (std::size_t trial = 0; trial < trials; ++trial) {
    eval::PatternSpec spec;
    spec.accesses = n;
    spec.offset_range = 10;
    const ir::AccessSequence seq = eval::generate_pattern(spec, rng);
    const core::SuffixBounds costs(seq, kModel);
    const auto cover = core::compute_min_register_cover(costs).cover;

    core::MergeOptions options;
    options.strategy = strategy;
    options.seed = trial + 1;
    const auto merged = core::merge_to_register_limit(costs, cover, k, options);
    stats.add(static_cast<double>(core::total_cost(seq, merged, kModel)));
  }
  return stats.mean();
}

void print_strategy_table() {
  constexpr std::size_t kTrials = 60;
  const std::vector<core::MergeStrategy> strategies{
      core::MergeStrategy::kMinMergedCost,
      core::MergeStrategy::kMinDelta,
      core::MergeStrategy::kFirstPair,
      core::MergeStrategy::kRandomPair,
  };

  std::vector<std::string> header{"N", "K"};
  for (const auto strategy : strategies) {
    header.push_back(core::to_string(strategy));
  }
  support::Table table(std::move(header));

  for (const std::size_t n : {20u, 40u, 80u}) {
    for (const std::size_t k : {1u, 2u, 4u, 8u}) {
      std::vector<std::string> row{std::to_string(n), std::to_string(k)};
      for (const auto strategy : strategies) {
        row.push_back(support::format_fixed(
            mean_cost_for_strategy(strategy, n, k, kTrials), 2));
      }
      table.add_row(std::move(row));
    }
    table.add_rule();
  }
  std::cout << "T4: phase-2 merge-selection ablation (mean final cost, "
            << kTrials << " uniform patterns per cell, M = 1)\n\n";
  table.write(std::cout);
  std::cout << "\nExpected: the two cost-guided rules (the paper's "
               "min-merged-cost and the min-delta variant) stay within a "
               "few percent of each other and far below the arbitrary "
               "first-pair / random-pair baselines.\n\n";
}

void BM_MergeStrategy(benchmark::State& state) {
  const auto strategy =
      static_cast<core::MergeStrategy>(state.range(0));
  support::Rng rng(77);
  eval::PatternSpec spec;
  spec.accesses = 60;
  spec.offset_range = 10;
  const ir::AccessSequence seq = eval::generate_pattern(spec, rng);
  const core::SuffixBounds costs(seq, kModel);
  const auto cover = core::compute_min_register_cover(costs).cover;
  core::MergeOptions options;
  options.strategy = strategy;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::merge_to_register_limit(costs, cover, 2, options));
  }
}
BENCHMARK(BM_MergeStrategy)
    ->Arg(static_cast<int>(core::MergeStrategy::kMinMergedCost))
    ->Arg(static_cast<int>(core::MergeStrategy::kFirstPair));

}  // namespace

int main(int argc, char** argv) {
  print_strategy_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
