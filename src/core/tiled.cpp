#include "core/tiled.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/exact.hpp"
#include "core/validate.hpp"
#include "support/check.hpp"

namespace dspaddr::core {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kUnassigned = std::numeric_limits<std::size_t>::max();

/// Number of fixed-width windows covering [0, n): each starts
/// `overlap` before its predecessor's end, so the last window always
/// owns at least one fresh access. The budget splitter needs the
/// total before the sweep starts.
std::size_t count_fixed_windows(std::size_t n, std::size_t width,
                                std::size_t overlap) {
  std::size_t windows = 1;
  std::size_t end = std::min(width, n);
  while (end < n) {
    end = std::min(end - overlap + width, n);
    ++windows;
  }
  return windows;
}

}  // namespace

TiledResult tiled_min_cost_allocation(const ir::AccessSequence& seq,
                                      const CostModel& model,
                                      std::size_t registers,
                                      const TiledOptions& options) {
  check_arg(registers >= 1,
            "tiled_min_cost_allocation: need at least one register");
  check_arg(options.tile_width >= 2,
            "tiled_min_cost_allocation: tile width must be >= 2");
  check_arg(options.tile_overlap < options.tile_width,
            "tiled_min_cost_allocation: tile overlap must be smaller "
            "than the tile width");
  check_arg(!options.auto_width || options.max_width >= options.min_width,
            "tiled_min_cost_allocation: auto-width bounds must satisfy "
            "min_width <= max_width");

  TiledResult result;
  if (seq.empty()) {
    result.proven = true;
    return result;
  }

  const std::size_t n = seq.size();
  // At most n registers can hold an access, so K is clamped to n as the
  // exact search clamps it: the stitcher's tables and its scan for a
  // free register stay O(n) however large K is.
  const std::size_t usable = std::min(registers, n);
  const std::size_t overlap = options.tile_overlap;
  // Auto-tuning bounds, clamped so every window keeps at least two
  // fresh accesses beyond the pinned overlap.
  const std::size_t min_width =
      std::max(options.min_width, overlap + 2);
  const std::size_t max_width = std::max(options.max_width, min_width);
  std::size_t width = options.auto_width
                          ? std::clamp(options.tile_width, min_width,
                                       max_width)
                          : options.tile_width;

  // A single window is the full problem: solve it under the real model
  // and the proof (or gap) passes through unchanged. Decided from the
  // starting width — the auto-tuner only re-sizes *subsequent*
  // windows, so the decision is stable.
  const bool single_window = width >= n;
  CostModel window_model = model;
  if (!single_window) {
    // Wrap costs are meaningless mid-sequence — every register keeps
    // running into the next window — so windows use the acyclic
    // relaxation; the real wrap costs are paid once on the assembled
    // global paths below.
    window_model.wrap = WrapPolicy::kAcyclic;
  }

  // Fixed-width sweeps split the node budget evenly over the (known)
  // window count; the auto sweep cannot know the count up front, so
  // it splits what remains over the *estimated* remaining windows at
  // the current width.
  const std::size_t fixed_total =
      options.auto_width ? 0 : count_fixed_windows(n, width, overlap);

  std::vector<std::size_t> global_assignment(seq.size(), kUnassigned);
  std::vector<bool> global_used(usable, false);
  std::vector<std::size_t> global_last(usable, 0);
  const Clock::time_point sweep_start = Clock::now();
  // Measured search throughput (EMA over solved windows), used to
  // translate the next window's wall slice into affordable nodes.
  double nodes_per_ms = 0.0;

  std::size_t begin = 0;
  bool last_window = false;
  while (!last_window) {
    const std::size_t end = std::min(begin + width, n);
    last_window = end == n;
    const std::size_t window_overlap = begin == 0 ? 0 : overlap;
    const std::size_t len = end - begin;
    const std::size_t windows_left =
        options.auto_width
            ? 1 + (last_window
                       ? 0
                       : (n - end + (width - overlap) - 1) /
                             (width - overlap))
            : fixed_total - result.windows;
    ++result.windows;
    result.window_widths.push_back(len);

    std::vector<ir::Access> accesses;
    accesses.reserve(len);
    for (std::size_t i = begin; i < end; ++i) {
      accesses.push_back(seq[i]);
    }
    const ir::AccessSequence sub_seq(std::move(accesses));

    // Pin the overlap to the predecessor's choices, canonicalized by
    // first appearance so the pin obeys the search's fresh rule. The
    // canon map doubles as the local -> global register mapping.
    std::vector<std::size_t> local_to_global;
    std::vector<std::size_t> pinned;
    pinned.reserve(window_overlap);
    for (std::size_t i = begin; i < begin + window_overlap; ++i) {
      const std::size_t global = global_assignment[i];
      std::size_t local = local_to_global.size();
      for (std::size_t g = 0; g < local_to_global.size(); ++g) {
        if (local_to_global[g] == global) {
          local = g;
          break;
        }
      }
      if (local == local_to_global.size()) {
        local_to_global.push_back(global);
      }
      pinned.push_back(local);
    }

    ExactOptions exact_options;
    exact_options.max_nodes =
        options.auto_width
            ? std::max<std::uint64_t>(
                  (options.max_nodes -
                   std::min(options.max_nodes, result.nodes)) /
                      windows_left,
                  1)
            : std::max<std::uint64_t>(options.max_nodes / fixed_total, 1);
    exact_options.jobs = options.jobs;
    exact_options.pinned_prefix = pinned;
    exact_options.abort = options.abort;
    if (options.time_budget_ms > 0) {
      const std::int64_t elapsed_ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              Clock::now() - sweep_start)
              .count();
      const std::int64_t remaining_ms =
          std::max<std::int64_t>(options.time_budget_ms - elapsed_ms, 1);
      exact_options.time_budget_ms = std::max<std::int64_t>(
          remaining_ms / static_cast<std::int64_t>(windows_left), 1);
    }

    const Clock::time_point solve_start = Clock::now();
    const ExactResult window_result = exact_min_cost_allocation(
        sub_seq, window_model, usable, exact_options);
    result.nodes += window_result.nodes;
    result.table_cap_hits += window_result.table_cap_hits;
    result.subtree_tasks += window_result.subtree_tasks;
    result.steals += window_result.steals;
    result.steal_attempts += window_result.steal_attempts;
    result.splits += window_result.splits;
    result.worker_busy_us += window_result.worker_busy_us;
    if (window_result.proven) ++result.windows_proven;
    result.external_abort |= window_result.external_abort;

    // Local register r owns result.paths[r]: the solver groups accesses
    // by register index and the fresh rule keeps used indices
    // contiguous, so no path is ever empty below the highest one.
    std::vector<std::size_t> local_assignment(len, kUnassigned);
    for (std::size_t r = 0; r < window_result.paths.size(); ++r) {
      for (std::size_t i = 0; i < window_result.paths[r].size(); ++i) {
        local_assignment[window_result.paths[r][i]] = r;
      }
    }

    // Stitch registers the window opened beyond the pinned set onto
    // globally cheapest physical registers: an unused register joins
    // for free, a used one pays the (0/1) transition from its last
    // committed access — evaluated on the full sequence under the real
    // model. Each window maps locals to distinct globals, so the
    // window-internal optimality is preserved verbatim.
    for (std::size_t local = local_to_global.size();
         local < window_result.paths.size(); ++local) {
      const std::size_t first_access =
          begin + window_result.paths[local][0];
      int best_cost = std::numeric_limits<int>::max();
      std::size_t best_global = kUnassigned;
      for (std::size_t g = 0; g < usable; ++g) {
        if (std::find(local_to_global.begin(), local_to_global.end(), g) !=
            local_to_global.end()) {
          continue;
        }
        const int cost =
            global_used[g] ? intra_transition_cost(seq, global_last[g],
                                                   first_access, model)
                           : 0;
        if (cost < best_cost) {
          best_cost = cost;
          best_global = g;
          if (cost == 0) break;
        }
      }
      check_invariant(best_global != kUnassigned,
                      "tiled_min_cost_allocation: window used more "
                      "registers than available");
      local_to_global.push_back(best_global);
    }

    for (std::size_t i = begin + window_overlap; i < end; ++i) {
      global_assignment[i] = local_to_global[local_assignment[i - begin]];
    }
    for (std::size_t i = begin; i < end; ++i) {
      global_used[global_assignment[i]] = true;
      global_last[global_assignment[i]] = i;
    }

    // Auto-tuning: re-size the next window from this one's measured
    // effort. An unproven window was too ambitious — narrow ~33%. A
    // proven window that used under a quarter of what the next window
    // can afford (its node slice, further capped by what the measured
    // nodes/ms says fits in a wall slice) leaves headroom — widen
    // ~50%. In between, hold.
    if (options.auto_width && !last_window) {
      if (options.time_budget_ms > 0) {
        const double solve_ms = std::max(
            1.0, std::chrono::duration<double, std::milli>(Clock::now() -
                                                           solve_start)
                     .count());
        const double measured =
            static_cast<double>(std::max<std::uint64_t>(
                window_result.nodes, 1)) /
            solve_ms;
        nodes_per_ms =
            nodes_per_ms == 0.0 ? measured
                                : 0.5 * nodes_per_ms + 0.5 * measured;
      }
      if (!window_result.proven) {
        width = std::max(min_width, width - std::max<std::size_t>(
                                                width / 3, 1));
      } else {
        std::uint64_t affordable = exact_options.max_nodes;
        if (nodes_per_ms > 0.0 && exact_options.time_budget_ms > 0) {
          affordable = std::min(
              affordable,
              static_cast<std::uint64_t>(
                  nodes_per_ms *
                  static_cast<double>(exact_options.time_budget_ms)));
        }
        if (window_result.nodes * 4 <= affordable) {
          width = std::min(max_width, width + std::max<std::size_t>(
                                                  width / 2, 1));
        }
      }
    }

    begin = end - (last_window ? 0 : overlap);
  }

  std::vector<std::vector<std::size_t>> groups(usable);
  for (std::size_t i = 0; i < seq.size(); ++i) {
    groups[global_assignment[i]].push_back(i);
  }
  for (auto& group : groups) {
    if (!group.empty()) result.paths.emplace_back(std::move(group));
  }
  validate_allocation(seq, result.paths, usable);
  result.cost = total_cost(seq, result.paths, model);
  result.proven = single_window && result.windows_proven == 1;
  return result;
}

}  // namespace dspaddr::core
