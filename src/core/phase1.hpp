// Phase 1: K~, the minimum number of virtual address registers admitting
// a zero-cost allocation (paper section 3.1 and the companion paper
// [3]).
//
// Every question reads the request's step-cost table (core/bounds.hpp),
// the one representation of the zero-cost graph. The matching bound —
// N minus the table's root matching — brackets K~ from below and the
// greedy zero-cost cover from above. Under the acyclic model the
// matching cover is optimal. Otherwise the exact search of
// core/exact.hpp answers "is there a zero-cost cover with at most k
// registers?" for k one below the best cover known, until no cover
// exists or k drops below the matching bound. When the greedy finds no
// cover (some |stride| > M), phase 1 first asks whether the free intra
// and wrap edges admit a cycle cover (a perfect matching): a zero-cost
// cover closes every register into such a cycle, so without one no
// zero-cost cover exists at any register count and the answer is exact
// without a search, at any N. Otherwise the first question asks at N
// registers. All questions of one run share one node budget.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/bounds.hpp"
#include "core/path.hpp"

namespace dspaddr::core {

/// Above this many accesses phase 1 keeps the greedy cover and runs no
/// search (the result is then not exact unless the bounds meet).
constexpr std::size_t kPhase1SearchAccessLimit = 28;

/// Search nodes one phase-1 run may spend over all of its questions;
/// running out keeps the best cover found and degrades `exact` to false.
constexpr std::uint64_t kPhase1NodeBudget = 500'000;

/// Result of phase 1.
struct Phase1Result {
  /// A zero-cost cover of size k_tilde when one exists; otherwise the
  /// acyclic-optimal cover (minimum intra-cost paths, wrap possibly
  /// unit-cost) as the starting point for phase 2.
  std::vector<Path> cover;
  /// K~, when a zero-cost cover is known (always under kAcyclic; under
  /// kCyclic none may exist, e.g. when |stride| > M for some access).
  std::optional<std::size_t> k_tilde;
  /// Matching lower bound on K~.
  std::size_t lower_bound = 0;
  /// Greedy upper bound (cover size), when the greedy found a cover.
  std::optional<std::size_t> upper_bound;
  /// True when the result is provably optimal (or provably infeasible).
  bool exact = false;
  /// Search nodes explored by the exact search (0 when it did not run).
  std::uint64_t search_nodes = 0;
};

/// Runs phase 1 on the request's step-cost table.
Phase1Result compute_min_register_cover(const SuffixBounds& costs);

}  // namespace dspaddr::core
