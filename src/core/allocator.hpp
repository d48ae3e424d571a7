// The two-phase register-constrained address-register allocator — the
// top-level API of the paper's technique (paper section 3).
//
//   core::RegisterAllocator alloc({.modify_range = 1, .registers = 2});
//   core::Allocation a = alloc.run(seq);
//
// Phase 1 computes the minimum zero-cost cover (K~ virtual registers,
// core/phase1.hpp); phase 2 reduces to the physical register count K —
// by cost-guided merging (the paper's heuristic), and by default also by
// the anytime exact branch-and-bound (core/exact.hpp) warm-started with
// the heuristic result, which upgrades the allocation to a proven
// optimum on realistically sized kernels. Both phases search with the
// same core.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/cost_model.hpp"
#include "core/exact.hpp"
#include "core/merging.hpp"
#include "core/path.hpp"
#include "core/phase1.hpp"
#include "ir/access_sequence.hpp"

namespace dspaddr::core {

/// Controls the phase-2 reduction to K physical registers.
struct Phase2Options {
  enum class Mode {
    /// Heuristic merge, then the exact search up to
    /// `exact_access_limit` accesses.
    kAuto,
    /// Always run the exact search (subject to the budgets).
    kExact,
    /// Only the paper's cost-guided merging (no optimality claim).
    kHeuristic,
    /// Overlapping windows solved exactly, stitched heuristically
    /// (core/tiled.hpp) — the anytime middle rung between kHeuristic
    /// and kExact for long kernels. Proven only when one window covers
    /// the whole sequence.
    kTiled,
  };

  Mode mode = Mode::kAuto;
  /// kAuto skips the exact search above this many accesses.
  std::size_t exact_access_limit = 24;
  /// Node budget of the exact search; hitting it keeps the incumbent
  /// and reports the optimality gap instead of a proof. Deterministic,
  /// unlike a wall-clock budget.
  std::uint64_t max_nodes = 2'000'000;
  /// Wall-clock budget in milliseconds; 0 disables the clock. Leave at
  /// 0 when byte-identical reruns matter (batch determinism).
  std::int64_t time_budget_ms = 0;
  /// Window geometry of kTiled (TiledOptions).
  std::size_t tile_width = 20;
  std::size_t tile_overlap = 6;
  /// kTiled window-width auto-tuning (TiledOptions::auto_width,
  /// `--phase2-window=auto`): start at `tile_width`, then re-size each
  /// window from the previous one's measured search effort.
  bool tile_width_auto = false;
  /// External cancellation, forwarded to the exact/tiled phase-2 solve
  /// (core::SearchAbortHook). A cancelled solve keeps the heuristic
  /// allocation (or the best incumbent) and reports
  /// AllocationStats::phase2_external_abort.
  SearchAbortHook abort;
};

/// Full configuration of one allocation problem.
struct ProblemConfig {
  /// AGU maximum modify range M (>= 0). Used as the symmetric window
  /// [-M, M] unless `modify_lo`/`modify_hi` override it.
  std::int64_t modify_range = 1;
  /// Asymmetric free-window bounds; when set they replace the
  /// symmetric [-modify_range, modify_range] window.
  std::optional<std::int64_t> modify_lo;
  std::optional<std::int64_t> modify_hi;
  /// Extra free auto-inc/dec widths outside the window.
  std::vector<std::int64_t> free_widths;
  /// Number of physical address registers K (>= 1).
  std::size_t registers = 1;
  WrapPolicy wrap = WrapPolicy::kCyclic;
  MergeOptions merge = {};
  Phase2Options phase2 = {};

  CostModel cost_model() const {
    if (!modify_lo.has_value() && !modify_hi.has_value() &&
        free_widths.empty()) {
      return CostModel{modify_range, wrap};
    }
    return CostModel{modify_lo.value_or(-modify_range),
                     modify_hi.value_or(modify_range), free_widths, wrap};
  }
};

/// Diagnostic counters of one allocator run.
struct AllocationStats {
  /// K~ (nullopt when no zero-cost cover is known, see Phase1Result).
  std::optional<std::size_t> k_tilde;
  std::size_t lower_bound = 0;
  std::optional<std::size_t> upper_bound;
  bool phase1_exact = false;
  std::uint64_t search_nodes = 0;
  std::size_t merges = 0;
  /// True when the exact phase-2 search ran (or the heuristic cost was
  /// trivially optimal at 0).
  bool phase2_exact = false;
  /// True when the final cost is provably minimal for this (K, M).
  bool phase2_proven = false;
  /// Nodes explored by the phase-2 search (0 when it did not run).
  std::uint64_t phase2_nodes = 0;
  /// Best proven lower bound on the phase-2 optimum (valid when
  /// `phase2_exact`; equals the cost when `phase2_proven`).
  int phase2_lower_bound = 0;
  /// Cost minus lower bound: 0 when proven, the anytime gap otherwise.
  int phase2_gap = 0;
  /// Dominance lookups made while the phase-2 transposition table was
  /// at its entry cap (insertion refused) — nonzero means a larger
  /// table could have pruned more (ExactResult::table_cap_hits).
  std::uint64_t phase2_table_cap_hits = 0;
  /// Tiled mode: windows swept, and how many proved optimal within
  /// their boundary (both 0 outside kTiled).
  std::size_t phase2_windows = 0;
  std::size_t phase2_windows_proven = 0;
  /// Tiled mode: the width of each swept window in order — constant
  /// for a fixed-width sweep, the tuner's choices under
  /// `tile_width_auto` (empty outside kTiled).
  std::vector<std::size_t> phase2_window_widths;
  /// True when Phase2Options::abort cancelled the phase-2 solve
  /// (portfolio racing). Such a result is a valid allocation but not a
  /// contender — the engine never caches or persists it.
  bool phase2_external_abort = false;
};

/// The result: an assignment of every access to one address register.
class Allocation {
public:
  Allocation(const ir::AccessSequence& seq, CostModel model,
             std::vector<Path> paths, AllocationStats stats);

  const std::vector<Path>& paths() const { return paths_; }
  std::size_t register_count() const { return paths_.size(); }

  /// Register (path) index handling access `i`; throws when the paths
  /// do not cover access `i` (a malformed cover must not silently read
  /// as "AR0").
  std::size_t register_of(std::size_t access) const;

  /// Unit-cost address computations per steady-state iteration.
  int cost() const { return intra_cost_ + wrap_cost_; }
  int intra_cost() const { return intra_cost_; }
  int wrap_cost() const { return wrap_cost_; }

  const AllocationStats& stats() const { return stats_; }
  const CostModel& model() const { return model_; }

  /// Multi-line human-readable rendering (register -> path -> cost).
  std::string to_string(const ir::AccessSequence& seq) const;

private:
  CostModel model_;
  std::vector<Path> paths_;
  std::vector<std::size_t> register_of_;
  int intra_cost_ = 0;
  int wrap_cost_ = 0;
  AllocationStats stats_;
};

/// Two-phase allocator (paper section 3).
class RegisterAllocator {
public:
  explicit RegisterAllocator(ProblemConfig config);

  const ProblemConfig& config() const { return config_; }

  /// Runs both phases on `seq` and returns a validated allocation.
  Allocation run(const ir::AccessSequence& seq) const;

private:
  ProblemConfig config_;
};

}  // namespace dspaddr::core
