#include "eval/experiment.hpp"

#include "baselines/baselines.hpp"
#include "support/check.hpp"

namespace dspaddr::eval {

SweepConfig SweepConfig::paper_grid() {
  SweepConfig config;
  config.access_counts = {10, 20, 30, 40, 50, 60, 70, 80, 90, 100};
  config.modify_ranges = {1, 2, 3};
  config.register_counts = {1, 2, 4, 8};
  config.trials = 100;
  return config;
}

SweepConfig SweepConfig::smoke_grid() {
  SweepConfig config;
  config.access_counts = {10, 20};
  config.modify_ranges = {1, 2};
  config.register_counts = {2, 4};
  config.trials = 10;
  return config;
}

SweepResult run_random_pattern_sweep(const SweepConfig& config) {
  check_arg(config.trials > 0, "sweep: need at least one trial");
  SweepResult result;
  support::RunningStats grand;

  for (std::size_t n : config.access_counts) {
    for (std::int64_t m : config.modify_ranges) {
      for (std::size_t k : config.register_counts) {
        CellResult cell_result;
        cell_result.cell = SweepCell{n, m, k};

        core::ProblemConfig problem;
        problem.modify_range = m;
        problem.registers = k;
        problem.phase2 = config.phase2;

        // Per-cell generator stream: decorrelated across cells, stable
        // under reordering of the sweep loops.
        std::uint64_t cell_seed = config.seed;
        cell_seed ^= 0x9e3779b97f4a7c15ULL * n;
        cell_seed ^= 0xbf58476d1ce4e5b9ULL * static_cast<std::uint64_t>(m);
        cell_seed ^= 0x94d049bb133111ebULL * k;
        support::Rng rng(cell_seed);

        PatternSpec spec = config.pattern;
        spec.accesses = n;

        for (std::size_t trial = 0; trial < config.trials; ++trial) {
          const ir::AccessSequence seq = generate_pattern(spec, rng);

          const core::Allocation merged =
              core::RegisterAllocator(problem).run(seq);
          const core::Allocation naive =
              baselines::naive_allocate(seq, problem);

          cell_result.naive_cost.add(naive.cost());
          cell_result.merged_cost.add(merged.cost());
          if (merged.stats().k_tilde.has_value()) {
            cell_result.k_tilde.add(
                static_cast<double>(*merged.stats().k_tilde));
          }
          if (merged.stats().k_tilde.has_value() &&
              *merged.stats().k_tilde > k) {
            ++cell_result.constrained_trials;
          }
          if (merged.stats().phase2_proven) {
            ++cell_result.proven_trials;
          }
        }

        const double mean_naive = cell_result.naive_cost.mean();
        const double mean_merged = cell_result.merged_cost.mean();
        cell_result.mean_reduction_percent =
            support::percent_reduction(mean_naive, mean_merged);
        if (mean_naive > 0.0) {
          grand.add(cell_result.mean_reduction_percent);
        }
        result.cells.push_back(std::move(cell_result));
      }
    }
  }
  result.grand_mean_reduction_percent = grand.mean();
  return result;
}

}  // namespace dspaddr::eval
