// The portfolio engine: `--strategy=auto` / `--layout=auto` as a race.
//
// A fixed (layout, allocation) pair is one point in the registry's
// 4 x 6 strategy space; which point wins is a property of the kernel's
// access pattern, not something a caller should have to know. The
// portfolio expands every `auto` axis into its registered candidates,
// races them — concurrently on a runtime::TaskPool when `jobs > 1` —
// under one optional wall-clock deadline, and returns the best-cost
// result with a per-racer report the compare surface renders as a
// delta table.
//
// Losers die early instead of burning their budget: all racers share a
// stop flag and an incumbent-cost bound wired into the phase-2 search
// via core::SearchAbortHook. The bound cut is *strict* (a racer is
// cancelled only when its proven lower bound exceeds the incumbent),
// so any racer whose final cost would tie the eventual minimum always
// runs to completion — which makes winner selection deterministic at
// any jobs level and any race order: the winner is the completed
// racer of minimum cost, ties broken by the canonical candidate order
// (layout-major registry registration order). A wall-clock deadline
// (`race_budget_ms`) trades that determinism for latency, exactly like
// the solver's own time budget; the first racer in race order is the
// anchor and ignores the stop flag, so a deadline never yields zero
// results.
//
// The portfolio also learns from traffic: a feature-keyed table
// (engine::request_feature_key — problem shape, not identity) of
// historical winners, write-through persisted in the engine's result
// store when one is attached (feature keys live under the "pf1|"
// prefix, disjoint from the "v4|" fingerprints). A remembered winner
// seeds the race order; once its win streak reaches `confidence`, the
// hot path short-circuits to that single strategy, with a full re-race
// every `rerace_interval` short-circuits to catch drift.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/engine.hpp"
#include "obs/metrics.hpp"

namespace dspaddr::engine {

/// The request value that turns an axis (or both) into a race.
inline constexpr const char* kAutoStrategy = "auto";

struct PortfolioOptions {
  /// Racers in flight: 1 races sequentially (still with the incumbent
  /// bound cutting later candidates), > 1 fans racers onto a TaskPool.
  std::size_t jobs = 1;
  /// Wall-clock race deadline in milliseconds; 0 disables it. A
  /// deadline makes which racers finish machine-dependent (the winner
  /// among *finished* racers is still deterministic in their costs).
  std::int64_t race_budget_ms = 0;
  /// Learn winners from traffic. Off runs every race from scratch —
  /// what the batch grid uses so cell results cannot depend on
  /// execution order.
  bool learn = true;
  /// Win streak after which a remembered winner short-circuits the
  /// race to a single strategy.
  std::uint64_t confidence = 1;
  /// Short-circuits between drift re-races; 0 never re-races.
  std::uint64_t rerace_interval = 32;
};

/// One candidate's outcome in a race.
struct RacerReport {
  std::string layout;
  std::string strategy;
  /// Allocation cost (valid when `completed`).
  int cost = 0;
  bool proven = false;
  bool verified = false;
  std::size_t accesses = 0;
  std::int64_t layout_extent = 0;
  int residual_cost = 0;
  std::int64_t optimized_size_words = 0;
  std::int64_t optimized_cycles = 0;
  /// Ran to completion (neither cancelled nor skipped nor errored).
  bool completed = false;
  /// Cancelled mid-flight by the stop flag or the incumbent bound.
  /// Which racers get cancelled is timing-dependent — cancelled rows
  /// carry no cost in any rendered output.
  bool cancelled = false;
  /// Never started (sequential race past the deadline).
  bool skipped = false;
  bool winner = false;
  std::string error;

  bool ok() const { return error.empty(); }
};

/// Everything one Portfolio::run decided, for rendering and tests.
struct PortfolioReport {
  /// Racers in canonical candidate order (layout-major registry
  /// registration order) — not race order.
  std::vector<RacerReport> racers;
  std::string winner_layout;
  std::string winner_strategy;
  /// The learned-table key of this request's problem shape.
  std::string feature_key;
  /// A remembered winner seeded the race order.
  bool learned_hit = false;
  /// The race collapsed to exactly one strategy (learned, confident).
  bool short_circuit = false;
  /// This race was a scheduled drift re-race.
  bool reraced = false;
  std::size_t launched = 0;
  std::size_t cancelled = 0;
  std::size_t skipped = 0;
};

/// Deterministic portfolio counters for the serve `{"stats":true}`
/// block (cancellation counts are timing-dependent and live only in
/// the metrics registry).
struct PortfolioStats {
  std::uint64_t races = 0;
  std::uint64_t short_circuits = 0;
  std::uint64_t reraces = 0;
  std::size_t learned_entries = 0;
};

/// Races strategy candidates through a shared engine::Engine. Thread-
/// safe: serve's workers share one Portfolio (each run builds its own
/// race pool, so running inside another TaskPool's worker never
/// deadlocks). Completed racers publish into the engine's result cache
/// as usual — a race warms every (layout, strategy) cell it finishes.
class Portfolio {
public:
  explicit Portfolio(Engine& engine, PortfolioOptions options = {});

  Portfolio(const Portfolio&) = delete;
  Portfolio& operator=(const Portfolio&) = delete;

  /// True when `request` asks for a race on either axis.
  static bool is_auto(const Request& request) {
    return request.layout == kAutoStrategy ||
           request.strategy == kAutoStrategy;
  }

  /// Runs the race (or the learned short-circuit) and returns the
  /// winner's engine::Result; `report`, when given, receives the full
  /// per-racer breakdown. Requests with neither axis `auto` run as a
  /// single plain engine call. `race_budget_ms` overrides the
  /// constructed deadline for this run (serve's per-request member).
  Result run(const Request& request, PortfolioReport* report = nullptr,
             std::optional<std::int64_t> race_budget_ms = std::nullopt);

  PortfolioStats stats() const;

  Engine& engine() { return engine_; }
  const PortfolioOptions& options() const { return options_; }

private:
  struct LearnedEntry {
    std::string layout;
    std::string strategy;
    std::uint64_t streak = 0;
    /// Short-circuits served since the last full race (RAM-only: a
    /// restart re-races once before short-circuiting again).
    std::uint64_t uses = 0;
  };

  /// RAM-first, store-backed lookup of the learned winner for `key`.
  bool lookup_learned(const std::string& key, LearnedEntry& out);
  /// Records `layout`/`strategy` winning for `key` (streak bump on a
  /// repeat, reset to 1 on a change) and persists it.
  void record_win(const std::string& key, const std::string& layout,
                  const std::string& strategy);

  Engine& engine_;
  PortfolioOptions options_;

  mutable std::mutex learned_mutex_;
  std::unordered_map<std::string, LearnedEntry> learned_;

  obs::Counter* races_ = nullptr;
  obs::Counter* racers_launched_ = nullptr;
  obs::Counter* racers_cancelled_ = nullptr;
  obs::Counter* short_circuits_ = nullptr;
  obs::Counter* reraces_ = nullptr;
  obs::Histogram* race_us_ = nullptr;
  /// Win counter per (layout, strategy) pair, keyed "layout/strategy";
  /// pre-registered in registry order so the metrics schema is fixed.
  std::unordered_map<std::string, obs::Counter*> wins_;
};

}  // namespace dspaddr::engine
