// Tiled anytime phase-2 allocation: overlapping windows solved exactly,
// stitched heuristically — the middle rung of the anytime ladder
//   heuristic  <=  tiled  <=  full exact proof.
//
// Long unrolled kernels (50–200 accesses) are far beyond a full exact
// proof, but their structure is local: an access is almost always
// handled by a register that served a nearby access. The tiled solver
// exploits that by sweeping fixed-width windows over the sequence, each
// overlapping its predecessor: the overlap accesses stay pinned to the
// registers the previous window chose (the flat search core's pinned
// prefix, core/exact.hpp), so consecutive windows agree on their shared
// boundary, and each window is solved to proven optimality under the
// acyclic relaxation (wrap costs are meaningless mid-sequence — the
// register keeps running into the next window). Registers newly opened
// by a window are stitched onto globally least-cost physical registers.
//
// The result is exact per window and heuristic across boundaries:
// globally `proven` only when a single window covered the whole
// sequence (then the real cyclic model is used and the solve is a full
// proof). Per-window proofs are reported so the caller can see how much
// of the ladder was climbed; a per-window gap says nothing about the
// whole body, so the allocator states a multi-window answer's gap
// against the whole-body matching bound instead.
#pragma once

#include <cstdint>
#include <vector>

#include "core/cost_model.hpp"
#include "core/exact.hpp"
#include "core/path.hpp"
#include "ir/access_sequence.hpp"

namespace dspaddr::core {

struct TiledOptions {
  /// Accesses per window (>= 2). Sequences at most this long are
  /// solved as a single window under the real model — a full proof.
  /// With `auto_width` this is only the starting width.
  std::size_t tile_width = 20;
  /// Accesses shared between consecutive windows (< tile_width); the
  /// overlap is pinned to the previous window's assignment.
  std::size_t tile_overlap = 6;
  /// Window-width auto-tuning (`--phase2-window=auto`): the sweep
  /// starts at `tile_width` and re-sizes every subsequent window from
  /// measured effort — a window that proved using under a quarter of
  /// its node slice (or, under a wall budget, of the nodes the
  /// measured nodes/ms says the next slice can afford) widens the
  /// next one ~50%, an unproven window narrows it ~33% — within
  /// [min_width, max_width] (clamped to stay above the overlap). The
  /// chosen widths are reported in TiledResult::window_widths.
  /// Deterministic for a fixed problem when `time_budget_ms == 0`; the
  /// wall-clock calibration is machine-dependent by nature.
  bool auto_width = false;
  std::size_t min_width = 10;
  std::size_t max_width = 48;
  /// Node budget, split evenly across windows.
  std::uint64_t max_nodes = 2'000'000;
  /// Wall-clock budget in milliseconds (0 disables), split across the
  /// remaining windows as the sweep progresses.
  std::int64_t time_budget_ms = 0;
  /// External cancellation, forwarded to every window's exact solve
  /// (SearchAbortHook). A cancelled sweep keeps the stitched allocation
  /// built so far plus the heuristic completion of the rest.
  SearchAbortHook abort;
};

struct TiledResult {
  std::vector<Path> paths;
  /// Total cost of the stitched allocation under the real model.
  int cost = 0;
  /// True only when one window covered the whole sequence and its
  /// solve completed — then `cost` is provably minimal.
  bool proven = false;
  std::uint64_t nodes = 0;
  std::uint64_t table_cap_hits = 0;
  std::size_t windows = 0;
  /// Width (in accesses, overlap included) of each window the sweep
  /// actually solved, in order — the auto-tuner's decisions made
  /// observable (fixed-width sweeps report the constant width).
  std::vector<std::size_t> window_widths;
  /// Windows whose exact solve completed (proved optimal *within the
  /// window*, given its pinned boundary).
  std::size_t windows_proven = 0;
  /// True when TiledOptions::abort cancelled at least one window's
  /// solve (ExactResult::external_abort).
  bool external_abort = false;
};

/// Tiled allocation of `seq` onto at most `registers` address registers
/// under `model`. `registers` must be >= 1.
TiledResult tiled_min_cost_allocation(const ir::AccessSequence& seq,
                                      const CostModel& model,
                                      std::size_t registers,
                                      const TiledOptions& options = {});

}  // namespace dspaddr::core
