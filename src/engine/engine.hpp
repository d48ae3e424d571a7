// The reusable optimization engine: the paper's pass sequence
// (lower -> allocation -> MR planning -> codegen -> simulation
// -> metrics) as a library-level API, with the layout and allocation
// passes pluggable via named strategies (engine/strategy.hpp):
// Request.layout picks how arrays are placed in memory before lowering
// (contiguous | declaration-padded | soa-liao | goa) and
// Request.strategy picks the allocator (two-phase | exact | naive |
// random-merge | round-robin | greedy-online). The defaults reproduce
// the paper's fixed pipeline byte for byte.
//
// Every driver — the `dspaddr run` CLI, the batch sweep runner, the
// JSON-lines `dspaddr serve` loop, examples and benches — builds an
// engine::Request and calls Engine::run, so the pipeline exists exactly
// once and cannot drift between surfaces.
//
//   engine::Engine engine;
//   engine::Request request;
//   request.kernel = ir::builtin_kernel("fir");
//   request.machine = agu::builtin_machine("wide4");
//   engine::Result result = engine.run(request);
//
// The Engine is thread-safe and memoizes results in a mutex-striped,
// single-flight LRU cache keyed by a canonical fingerprint of (lowered
// access sequence, machine resources, options) — see
// engine/fingerprint.hpp and runtime/sharded_cache.hpp. Repeated
// kernels across a sweep grid or a serve workload hit the cache, and
// concurrent duplicates are computed exactly once; per-shard and
// aggregate hit/miss/eviction counters are exposed for benchmarking.
// `Request.stop_after` runs a pass-sequence prefix (e.g.
// allocation-only for sweeps that never simulate).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "agu/machines.hpp"
#include "agu/program.hpp"
#include "agu/simulator.hpp"
#include "core/allocator.hpp"
#include "core/modify_registers.hpp"
#include "engine/strategy.hpp"
#include "ir/kernel.hpp"
#include "obs/metrics.hpp"
#include "runtime/sharded_cache.hpp"
#include "store/result_store.hpp"

namespace dspaddr::engine {

/// The pipeline's stages, in execution order.
enum class Stage {
  kLower = 0,
  kAllocate = 1,
  kPlan = 2,
  kCodegen = 3,
  kSimulate = 4,
  kMetrics = 5,
};

inline constexpr std::size_t kStageCount = 6;

/// "lower", "allocate", "plan", "codegen", "simulate", "metrics".
const char* stage_name(Stage stage);

/// Inverse of stage_name; nullopt for unknown names.
std::optional<Stage> stage_from_name(std::string_view name);

/// Everything one pipeline run needs.
struct Request {
  ir::Kernel kernel;
  agu::AguSpec machine;
  /// Memory-layout strategy placing the kernel's arrays before
  /// lowering; resolved against StrategyRegistry::builtin(). Unknown
  /// names fail the lower stage.
  std::string layout = kDefaultLayout;
  /// Allocation strategy mapping accesses onto the K address
  /// registers; resolved against StrategyRegistry::builtin(). Unknown
  /// names fail the allocate stage.
  std::string strategy = kDefaultStrategy;
  /// Phase-2 solver selection and budgets. A nonzero time budget makes
  /// the exact search nondeterministic, which also voids the cache's
  /// cached-equals-recomputed guarantee — leave it at 0 when
  /// byte-identical reruns matter.
  core::Phase2Options phase2;
  /// Simulated iterations; the kernel's own count when unset.
  std::optional<std::uint64_t> iterations;
  /// Last stage to run (inclusive); later stages keep default values.
  Stage stop_after = Stage::kMetrics;
};

/// Where and why a run failed. The engine never throws for per-request
/// problems: a failed stage is recorded here and earlier stages'
/// outputs stay valid — the structured replacement for the old
/// thrown-in-`run`-vs-swallowed-in-`batch` inconsistency.
struct StageError {
  Stage stage = Stage::kLower;
  std::string message;
};

/// Per-stage outputs of one run, retained for every completed stage.
struct Result {
  /// Request echo (also applied on cache hits, so a hit for a renamed
  /// kernel or machine still reports the caller's names).
  ir::Kernel kernel;
  agu::AguSpec machine;
  Stage stop_after = Stage::kMetrics;
  /// The strategies that actually ran (request echo; part of the cache
  /// fingerprint, so a hit always carries the right names).
  std::string layout;
  std::string strategy;

  // kLower
  std::size_t accesses = 0;
  /// Data-memory footprint of the placed arrays (max(base + size) -
  /// min(base)); padding-aware, see ir::layout_extent.
  std::int64_t layout_extent = 0;

  // kAllocate
  std::optional<std::size_t> k_tilde;
  core::AllocationStats stats;
  int allocation_cost = 0;
  int intra_cost = 0;
  int wrap_cost = 0;
  /// Register -> path rendering of the allocation.
  std::string allocation_text;

  // kPlan
  core::ModifyRegisterPlan plan;

  // kCodegen
  agu::Program program;

  // kSimulate
  std::uint64_t iterations = 0;
  agu::SimResult sim;
  bool verified = false;

  // kMetrics
  std::int64_t baseline_size_words = 0;
  std::int64_t baseline_cycles = 0;
  std::int64_t optimized_size_words = 0;
  std::int64_t optimized_cycles = 0;
  double size_reduction_percent = 0.0;
  double speed_reduction_percent = 0.0;

  /// Set when a stage failed; stages before it completed normally.
  std::optional<StageError> error;

  /// Wall time each stage spent computing, indexed by Stage. On a cache
  /// hit these are the *original* computation times (what the hit
  /// saved); `total_ms` is always this call's wall time.
  std::array<double, kStageCount> stage_ms{};
  double total_ms = 0.0;
  /// True when this call was answered from the RAM result cache.
  bool cache_hit = false;
  /// True when this call was answered from the persistent store (the
  /// disk tier under the RAM cache): the result was decoded from the
  /// log instead of recomputed, and promoted into the RAM tier.
  bool store_hit = false;

  bool ok() const { return !error.has_value(); }

  /// Whether `stage` ran to completion in this result.
  bool stage_done(Stage stage) const;
};

/// Cache counters, for benchmarking and the serve `stats` request.
/// Aggregated over the mutex-striped shards; `shards` carries the
/// per-shard split (runtime::ShardedLruCache).
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;
  std::size_t capacity = 0;
  std::vector<runtime::CacheCounters> shards;
};

/// Thread-safe pipeline runner with a fingerprint-keyed result cache.
/// One Engine is meant to be shared: by all batch workers, by the
/// whole lifetime of a serve process. The cache is mutex-striped
/// (runtime::ShardedLruCache), so concurrent lookups of different
/// fingerprints never serialize on one lock, and single-flight:
/// concurrent misses on the same fingerprint compute once — the first
/// thread leads, the rest wait and count as hits, which keeps the
/// counters deterministic whatever the interleaving.
class Engine {
public:
  struct Options {
    Options() = default;
    /// Cache sizing shorthand — Options{capacity} / Options{capacity,
    /// shards}; store and metrics are set member-wise.
    explicit Options(std::size_t capacity, std::size_t shards = 8)
        : cache_capacity(capacity), cache_shards(shards) {}

    /// Maximum cached results; 0 disables caching entirely.
    std::size_t cache_capacity = 256;
    /// Mutex stripes of the cache (clamped to [1, cache_capacity]).
    /// More shards, less lock contention; eviction is per-shard LRU.
    std::size_t cache_shards = 8;
    /// Persistent disk tier under the RAM cache (store/result_store):
    /// single-flight misses probe it before computing and write freshly
    /// computed ok() results through; null runs RAM-only. Shared so
    /// several engines (e.g. successive boots in one test) can hand the
    /// store around.
    std::shared_ptr<store::ResultStore> store;
    /// Metrics registry the engine registers its instruments in
    /// (obs/metrics.hpp); null gives the engine a private registry —
    /// instrumentation is always on. Pass a shared registry so one
    /// surface (serve) can aggregate engine and transport metrics.
    std::shared_ptr<obs::Registry> metrics;
  };

  Engine() : Engine(Options{}) {}
  explicit Engine(Options options);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Runs the pass sequence (or a cached equivalent) for `request`.
  /// Per-request failures come back as Result::error, never as an
  /// exception.
  Result run(const Request& request);

  CacheStats cache_stats() const;

  /// The disk tier, when attached (Options::store).
  const std::shared_ptr<store::ResultStore>& store() const { return store_; }

  /// The registry holding the engine's instruments (never null). The
  /// `engine.phase2.*` counters sum the phase-2 work of every result
  /// this engine *computed*; RAM and store hits add nothing. The cache
  /// is single-flight, so each unique fingerprint is computed once and
  /// the sums are deterministic across jobs levels — node and steal
  /// counts only at phase2_jobs == 1, where the steal counts are 0.
  const std::shared_ptr<obs::Registry>& metrics() const { return metrics_; }

  /// Drops every cached RAM entry; returns how many entries were
  /// dropped. Counters keep their lifetime totals; the disk tier is
  /// untouched (it re-fills the RAM tier on the next miss).
  std::size_t clear_cache();

private:
  Options options_;

  /// Entries are shared immutable payloads so that lookups only bump a
  /// refcount under a shard lock; the (potentially large) Result copy
  /// for the caller happens outside the lock.
  runtime::ShardedLruCache<Result> cache_;

  std::shared_ptr<store::ResultStore> store_;
  std::shared_ptr<obs::Registry> metrics_;

  // Instruments resolved once at construction (references are stable
  // for the registry's lifetime), so the hot path never locks the
  // registry.
  std::array<obs::Histogram*, kStageCount> stage_us_{};
  obs::Histogram* request_us_cold_ = nullptr;
  obs::Histogram* request_us_ram_hit_ = nullptr;
  obs::Histogram* request_us_store_hit_ = nullptr;
  obs::Counter* phase2_proven_ = nullptr;
  obs::Counter* phase2_nodes_ = nullptr;
  obs::Counter* phase2_windows_ = nullptr;
  obs::Counter* phase2_windows_proven_ = nullptr;
  obs::Counter* phase2_subtree_tasks_ = nullptr;
  obs::Counter* phase2_steals_ = nullptr;
  obs::Counter* phase2_steal_attempts_ = nullptr;
  obs::Counter* phase2_splits_ = nullptr;
  obs::Counter* store_decode_errors_ = nullptr;
  obs::Counter* store_append_errors_ = nullptr;
};

}  // namespace dspaddr::engine
