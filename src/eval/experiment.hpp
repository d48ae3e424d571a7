// The statistical experiment of the paper's Results section (T1):
// random access patterns over a sweep of (N, M, K), path-merge heuristic
// versus the naive arbitrary-merge allocator, averaged over seeds.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/allocator.hpp"
#include "eval/patterns.hpp"
#include "support/stats.hpp"

namespace dspaddr::eval {

/// One sweep cell: a fixed (N, M, K) with `trials` random patterns.
struct SweepCell {
  std::size_t accesses = 10;   // N
  std::int64_t modify_range = 1;  // M
  std::size_t registers = 1;   // K
};

/// Sweep configuration.
struct SweepConfig {
  std::vector<std::size_t> access_counts;    // N values
  std::vector<std::int64_t> modify_ranges;   // M values
  std::vector<std::size_t> register_counts;  // K values
  std::size_t trials = 100;
  std::uint64_t seed = 0xD5FADD21;
  PatternSpec pattern;  // accesses overwritten per cell
  /// Phase-2 mode of the path-merge contender. Defaults to the paper's
  /// pure heuristic so T1 keeps measuring merging, not the exact
  /// search; switch to kAuto/kExact to sweep proven-optimality rates.
  core::Phase2Options phase2 = heuristic_phase2();

  /// The paper's grid: N in {10..100 step 10}, M in {1,2,3},
  /// K in {1,2,4,8}, 100 trials.
  static SweepConfig paper_grid();
  /// A reduced grid for tests and quick runs.
  static SweepConfig smoke_grid();

 private:
  static core::Phase2Options heuristic_phase2() {
    core::Phase2Options options;
    options.mode = core::Phase2Options::Mode::kHeuristic;
    return options;
  }
};

/// Aggregated results of one cell.
struct CellResult {
  SweepCell cell;
  support::RunningStats naive_cost;
  support::RunningStats merged_cost;
  support::RunningStats k_tilde;
  /// Mean percentage reduction of merged vs naive (paper's ~40 %).
  double mean_reduction_percent = 0.0;
  /// Trials where merging was needed at all (K < K~).
  std::size_t constrained_trials = 0;
  /// Trials whose allocation cost was proven optimal (phase-2 exact
  /// search or a trivially free allocation).
  std::size_t proven_trials = 0;
};

/// Full sweep results.
struct SweepResult {
  std::vector<CellResult> cells;
  /// Grand average of per-cell mean reductions over constrained cells.
  double grand_mean_reduction_percent = 0.0;
};

/// Runs the sweep. Deterministic in `config.seed`.
SweepResult run_random_pattern_sweep(const SweepConfig& config);

}  // namespace dspaddr::eval
