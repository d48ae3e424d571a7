#include "core/allocator.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <sstream>

#include "core/exact.hpp"
#include "core/tiled.hpp"
#include "core/validate.hpp"
#include "support/check.hpp"

namespace dspaddr::core {

namespace {

/// Sentinel for accesses no path covers; register_of fails loudly on it
/// instead of letting a malformed cover masquerade as "everything on
/// AR0".
constexpr std::size_t kNoRegister = std::numeric_limits<std::size_t>::max();

}  // namespace

Allocation::Allocation(const ir::AccessSequence& seq, CostModel model,
                       std::vector<Path> paths, AllocationStats stats)
    : model_(model), paths_(std::move(paths)), stats_(stats) {
  register_of_.assign(seq.size(), kNoRegister);
  for (std::size_t r = 0; r < paths_.size(); ++r) {
    intra_cost_ += path_intra_cost(seq, paths_[r], model_);
    wrap_cost_ += path_wrap_cost(seq, paths_[r], model_);
    for (std::size_t i = 0; i < paths_[r].size(); ++i) {
      register_of_[paths_[r][i]] = r;
    }
  }
}

std::size_t Allocation::register_of(std::size_t access) const {
  check_arg(access < register_of_.size(),
            "Allocation: access index out of range");
  check_invariant(register_of_[access] != kNoRegister,
                  "Allocation: access is not covered by any path");
  return register_of_[access];
}

std::string Allocation::to_string(const ir::AccessSequence& seq) const {
  std::ostringstream out;
  for (std::size_t r = 0; r < paths_.size(); ++r) {
    out << "AR" << r << ": " << paths_[r].to_string()
        << "  offsets (";
    for (std::size_t i = 0; i < paths_[r].size(); ++i) {
      if (i > 0) out << ", ";
      out << seq[paths_[r][i]].offset;
    }
    out << ")  cost " << path_cost(seq, paths_[r], model_) << '\n';
  }
  out << "total cost " << cost() << " (intra " << intra_cost_ << ", wrap "
      << wrap_cost_ << ")\n";
  return out.str();
}

RegisterAllocator::RegisterAllocator(ProblemConfig config)
    : config_(config) {
  check_arg(config_.cost_model().valid(),
            "RegisterAllocator: modify range must be non-negative");
  check_arg(config_.registers >= 1,
            "RegisterAllocator: need at least one address register");
}

Allocation RegisterAllocator::run(const ir::AccessSequence& seq) const {
  const CostModel model = config_.cost_model();
  AllocationStats stats;

  // One step-cost table serves the whole request: phase 1's questions,
  // the merger and the phase-2 solve read it.
  const SuffixBounds costs(seq, model);
  const Phase1Result phase1 = compute_min_register_cover(costs);
  stats.k_tilde = phase1.k_tilde;
  stats.lower_bound = phase1.lower_bound;
  stats.upper_bound = phase1.upper_bound;
  stats.phase1_exact = phase1.exact;
  stats.search_nodes = phase1.search_nodes;

  std::vector<Path> paths = phase1.cover;
  if (paths.size() > config_.registers) {
    std::vector<MergeStep> trace;
    paths = merge_to_register_limit(costs, std::move(paths),
                                    config_.registers, config_.merge, &trace);
    stats.merges = trace.size();
  }
  validate_allocation(seq, paths, config_.registers);

  const int heuristic_cost = total_cost(seq, paths, model);
  const Phase2Options& phase2 = config_.phase2;
  const bool want_exact =
      phase2.mode == Phase2Options::Mode::kExact ||
      (phase2.mode == Phase2Options::Mode::kAuto &&
       seq.size() <= phase2.exact_access_limit);

  if (heuristic_cost == 0) {
    // Costs are non-negative, so a free allocation is trivially optimal
    // — no search needed to prove it. The proof holds in every mode,
    // but only the exact/auto modes claim the exact solver certified it.
    stats.phase2_exact = phase2.mode != Phase2Options::Mode::kHeuristic;
    stats.phase2_proven = true;
  } else if (want_exact) {
    ExactOptions options;
    options.max_nodes = phase2.max_nodes;
    options.time_budget_ms = phase2.time_budget_ms;
    options.jobs = phase2.jobs;
    options.warm_start = paths;
    options.abort = phase2.abort;
    const auto search_start = std::chrono::steady_clock::now();
    const ExactResult exact =
        exact_min_cost_allocation(costs, config_.registers, options);
    const double search_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      search_start)
            .count();
    stats.phase2_exact = true;
    stats.phase2_proven = exact.proven;
    stats.phase2_nodes = exact.nodes;
    stats.phase2_lower_bound = exact.lower_bound;
    stats.phase2_gap = exact.gap();
    stats.phase2_table_cap_hits = exact.table_cap_hits;
    stats.phase2_subtree_tasks = exact.subtree_tasks;
    stats.phase2_steals = exact.steals;
    stats.phase2_steal_attempts = exact.steal_attempts;
    stats.phase2_splits = exact.splits;
    stats.phase2_external_abort = exact.external_abort;
    if (search_seconds > 0.0) {
      stats.phase2_nodes_per_sec =
          static_cast<double>(exact.nodes) / search_seconds;
    }
    // Keep the heuristic's paths on a cost tie: the merge trace stays
    // meaningful and outputs stay stable across solver tweaks.
    if (exact.cost < heuristic_cost) {
      paths = exact.paths;
      validate_allocation(seq, paths, config_.registers);
    }
  } else if (phase2.mode == Phase2Options::Mode::kTiled) {
    TiledOptions options;
    options.tile_width = phase2.tile_width;
    options.tile_overlap = phase2.tile_overlap;
    options.auto_width = phase2.tile_width_auto;
    options.max_nodes = phase2.max_nodes;
    options.time_budget_ms = phase2.time_budget_ms;
    options.jobs = phase2.jobs;
    options.abort = phase2.abort;
    const auto search_start = std::chrono::steady_clock::now();
    const TiledResult tiled = tiled_min_cost_allocation(
        seq, model, config_.registers, options);
    const double search_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      search_start)
            .count();
    // A single window is a full exact solve; otherwise the result is
    // anytime: at least as good as the heuristic, no global proof. Its
    // bound is then the whole-body one the exact search starts from:
    // phase 1's matching bound K~acyc minus K, floored at zero.
    const int whole_body_bound =
        phase1.lower_bound > config_.registers
            ? static_cast<int>(phase1.lower_bound - config_.registers)
            : 0;
    stats.phase2_exact = tiled.proven;
    stats.phase2_proven = tiled.proven;
    stats.phase2_nodes = tiled.nodes;
    stats.phase2_lower_bound = tiled.proven ? tiled.cost : whole_body_bound;
    stats.phase2_gap =
        std::min(tiled.cost, heuristic_cost) - stats.phase2_lower_bound;
    stats.phase2_table_cap_hits = tiled.table_cap_hits;
    stats.phase2_subtree_tasks = tiled.subtree_tasks;
    stats.phase2_steals = tiled.steals;
    stats.phase2_steal_attempts = tiled.steal_attempts;
    stats.phase2_splits = tiled.splits;
    stats.phase2_windows = tiled.windows;
    stats.phase2_windows_proven = tiled.windows_proven;
    stats.phase2_window_widths = tiled.window_widths;
    stats.phase2_external_abort = tiled.external_abort;
    if (search_seconds > 0.0) {
      stats.phase2_nodes_per_sec =
          static_cast<double>(tiled.nodes) / search_seconds;
    }
    if (tiled.cost < heuristic_cost) {
      paths = tiled.paths;
      validate_allocation(seq, paths, config_.registers);
    }
  }

  return Allocation(seq, model, std::move(paths), stats);
}

}  // namespace dspaddr::core
