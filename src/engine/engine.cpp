#include "engine/engine.hpp"

#include <chrono>
#include <memory>

#include "agu/codegen.hpp"
#include "agu/metrics.hpp"
#include "engine/fingerprint.hpp"
#include "engine/result_codec.hpp"
#include "engine/strategy.hpp"
#include "ir/layout.hpp"
#include "support/check.hpp"

namespace dspaddr::engine {
namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

std::uint64_t to_us(double ms) {
  return ms <= 0.0 ? 0 : static_cast<std::uint64_t>(ms * 1000.0);
}

constexpr const char* kStageNames[kStageCount] = {
    "lower", "allocate", "plan", "codegen", "simulate", "metrics"};

}  // namespace

const char* stage_name(Stage stage) {
  return kStageNames[static_cast<std::size_t>(stage)];
}

std::optional<Stage> stage_from_name(std::string_view name) {
  for (std::size_t i = 0; i < kStageCount; ++i) {
    if (name == kStageNames[i]) {
      return static_cast<Stage>(i);
    }
  }
  return std::nullopt;
}

Engine::Engine(Options options)
    : options_(std::move(options)),
      cache_(options_.cache_capacity, options_.cache_shards),
      store_(options_.store),
      metrics_(options_.metrics ? options_.metrics
                                : std::make_shared<obs::Registry>()) {
  // Fixed registration order: stage histograms in stage order, then
  // tiers, then counters — the deterministic schema the metrics JSON
  // and CSV surfaces promise.
  for (std::size_t i = 0; i < kStageCount; ++i) {
    stage_us_[i] = &metrics_->histogram(
        std::string("engine.stage_us.") + kStageNames[i]);
  }
  request_us_cold_ = &metrics_->histogram("engine.request_us.cold");
  request_us_ram_hit_ = &metrics_->histogram("engine.request_us.ram_hit");
  request_us_store_hit_ = &metrics_->histogram("engine.request_us.store_hit");
  phase2_proven_ = &metrics_->counter("engine.phase2.proven");
  phase2_nodes_ = &metrics_->counter("engine.phase2.nodes");
  phase2_windows_ = &metrics_->counter("engine.phase2.windows");
  phase2_windows_proven_ = &metrics_->counter("engine.phase2.windows_proven");
  phase2_subtree_tasks_ = &metrics_->counter("engine.phase2.subtree_tasks");
  phase2_steals_ = &metrics_->counter("engine.phase2.steals");
  phase2_steal_attempts_ = &metrics_->counter("engine.phase2.steal_attempts");
  phase2_splits_ = &metrics_->counter("engine.phase2.splits");
  store_decode_errors_ = &metrics_->counter("engine.store.decode_errors");
  store_append_errors_ = &metrics_->counter("engine.store.append_errors");
}

bool Result::stage_done(Stage stage) const {
  if (static_cast<int>(stage) > static_cast<int>(stop_after)) {
    return false;
  }
  if (error.has_value() &&
      static_cast<int>(stage) >= static_cast<int>(error->stage)) {
    return false;
  }
  return true;
}

Result Engine::run(const Request& request) {
  const Clock::time_point start = Clock::now();
  Result result;
  result.kernel = request.kernel;
  result.machine = request.machine;
  result.stop_after = request.stop_after;
  result.layout = request.layout;
  result.strategy = request.strategy;

  // Runs one stage's body, converting any exception into the result's
  // structured error; returns whether the next stage should run.
  const auto run_stage = [&](Stage stage, const auto& body) {
    const Clock::time_point stage_start = Clock::now();
    bool ok = true;
    try {
      body();
    } catch (const std::exception& e) {
      result.error = StageError{stage, e.what()};
      ok = false;
    }
    const double stage_ms = ms_since(stage_start);
    result.stage_ms[static_cast<std::size_t>(stage)] = stage_ms;
    stage_us_[static_cast<std::size_t>(stage)]->record_us(to_us(stage_ms));
    return ok &&
           static_cast<int>(stage) < static_cast<int>(request.stop_after);
  };

  // Lowering runs outside the cache: the fingerprint is defined over
  // the lowered sequence, so a kernel that fails to lower is answered
  // directly (and such failures are cheap to recompute anyway).
  ir::AccessSequence seq;
  bool proceed = run_stage(Stage::kLower, [&] {
    const LayoutStrategy* layout_strategy =
        StrategyRegistry::builtin().layout(request.layout);
    check_arg(layout_strategy != nullptr,
              "unknown layout strategy '" + request.layout + "' (" +
                  known_layout_names() + ")");
    const ir::ArrayLayout layout =
        layout_strategy->place(request.kernel, request.machine);
    result.layout_extent = ir::layout_extent(request.kernel, layout);
    seq = ir::lower(request.kernel, layout);
    result.accesses = seq.size();
  });
  if (result.error.has_value()) {
    result.total_ms = ms_since(start);
    request_us_cold_->record_us(to_us(result.total_ms));
    return result;
  }

  // The post-lower stage chain, deferred into a closure so a cache hit
  // skips it entirely and the single-flight leader path below can wrap
  // it in one place.
  std::optional<core::Allocation> allocation;
  const auto run_stages = [&] {
    if (proceed) {
      proceed = run_stage(Stage::kAllocate, [&] {
        const AllocationStrategy* strategy =
            StrategyRegistry::builtin().allocation(request.strategy);
        check_arg(strategy != nullptr,
                  "unknown allocation strategy '" + request.strategy +
                      "' (" + known_strategy_names() + ")");
        core::ProblemConfig config;
        config.modify_range = request.machine.modify_range();
        config.modify_lo = request.machine.modify_lo;
        config.modify_hi = request.machine.modify_hi;
        config.free_widths = request.machine.free_widths;
        config.registers = request.machine.address_registers();
        config.phase2 = request.phase2;
        allocation.emplace(strategy->allocate(seq, config));
        result.stats = allocation->stats();
        result.k_tilde = result.stats.k_tilde;
        result.allocation_cost = allocation->cost();
        result.intra_cost = allocation->intra_cost();
        result.wrap_cost = allocation->wrap_cost();
        result.allocation_text = allocation->to_string(seq);
      });
    }
    if (proceed) {
      proceed = run_stage(Stage::kPlan, [&] {
        result.plan = core::plan_modify_registers(
            seq, *allocation, request.machine.modify_registers());
      });
    }
    if (proceed) {
      proceed = run_stage(Stage::kCodegen, [&] {
        result.program = agu::generate_code(seq, *allocation, result.plan,
                                            request.machine.addressing);
      });
    }
    if (proceed) {
      proceed = run_stage(Stage::kSimulate, [&] {
        result.iterations = request.iterations.value_or(
            static_cast<std::uint64_t>(request.kernel.iterations()));
        result.sim =
            agu::Simulator{}.run(result.program, seq, result.iterations);
        result.verified = agu::verified_against_cost(
            result.sim, result.iterations, result.plan.residual_cost);
      });
    }
    if (proceed) {
      run_stage(Stage::kMetrics, [&] {
        const agu::AddressingComparison comparison =
            agu::compare_addressing(request.kernel, *allocation);
        result.baseline_size_words = comparison.baseline.size_words;
        result.baseline_cycles = comparison.baseline.cycles;
        result.optimized_size_words = comparison.optimized.size_words;
        result.optimized_cycles = comparison.optimized.cycles;
        result.size_reduction_percent = comparison.size_reduction_percent;
        result.speed_reduction_percent = comparison.speed_reduction_percent;
      });
    }
  };

  const std::string key = request_fingerprint(request, seq);
  // A nullptr return makes this thread the key's single-flight leader:
  // it must publish (or abort) the key so that threads concurrently
  // missing the same fingerprint — which block inside lookup_or_begin
  // instead of recomputing — are woken with the shared payload.
  if (const std::shared_ptr<const Result> cached =
          cache_.lookup_or_begin(key)) {
    Result out = *cached;
    // Re-apply this request's decoration: the fingerprint ignores
    // kernel and machine names, so the cached payload may stem from a
    // differently-named twin.
    out.kernel = request.kernel;
    out.machine = request.machine;
    out.cache_hit = true;
    out.total_ms = ms_since(start);
    request_us_ram_hit_->record_us(to_us(out.total_ms));
    return out;
  }

  // This thread leads the key. With a disk tier attached, probe it
  // before computing: a prior boot (or a RAM-evicted entry) may carry
  // the answer. A hit is decoded, promoted into the RAM tier and
  // served with zero phase-2 work expended; a record that fails to
  // decode (foreign codec version, torn semantics the CRC cannot see)
  // is counted, recomputed, and the re-append below shadows it.
  if (store_ != nullptr) {
    if (const std::optional<std::string> stored = store_->get(key)) {
      std::optional<Result> decoded;
      try {
        decoded = decode_result(*stored);
      } catch (const std::exception&) {
        store_decode_errors_->add();
      }
      if (decoded.has_value()) {
        try {
          cache_.publish(key, std::make_shared<const Result>(*decoded));
        } catch (...) {
          cache_.abort(key);
          throw;
        }
        Result out = std::move(*decoded);
        out.kernel = request.kernel;
        out.machine = request.machine;
        out.store_hit = true;
        out.total_ms = ms_since(start);
        request_us_store_hit_->record_us(to_us(out.total_ms));
        return out;
      }
    }
  }

  try {
    run_stages();
  } catch (...) {
    // Stage bodies capture their own exceptions; this guards the rare
    // out-of-stage failure (e.g. bad_alloc) so waiters are not stuck
    // on a flight that will never resolve.
    cache_.abort(key);
    throw;
  }

  // An externally cancelled phase-2 solve (portfolio racing,
  // Phase2Options::abort) produced a valid allocation but not *the*
  // answer for this fingerprint — the hook is not part of the key, so
  // publishing or persisting it would let a cancelled racer's
  // incumbent impersonate the deterministic result. Abort the flight
  // (a concurrent waiter takes over leadership and computes for real)
  // and hand the partial result back without counting its phase-2
  // work.
  if (result.stats.phase2_external_abort) {
    cache_.abort(key);
    result.total_ms = ms_since(start);
    request_us_cold_->record_us(to_us(result.total_ms));
    return result;
  }

  // Phase-2 counters accumulate on computed runs only; hits of either
  // tier add nothing (see Engine::metrics).
  if (result.stage_done(Stage::kAllocate)) {
    if (result.stats.phase2_proven) {
      phase2_proven_->add();
    }
    phase2_nodes_->add(result.stats.phase2_nodes);
    phase2_windows_->add(result.stats.phase2_windows);
    phase2_windows_proven_->add(result.stats.phase2_windows_proven);
    phase2_subtree_tasks_->add(result.stats.phase2_subtree_tasks);
    phase2_steals_->add(result.stats.phase2_steals);
    phase2_steal_attempts_->add(result.stats.phase2_steal_attempts);
    phase2_splits_->add(result.stats.phase2_splits);
  }

  result.total_ms = ms_since(start);
  request_us_cold_->record_us(to_us(result.total_ms));
  try {
    cache_.publish(key, std::make_shared<const Result>(result));
  } catch (...) {
    cache_.abort(key);
    throw;
  }
  // Write-through after publishing, so single-flight waiters are never
  // held behind disk I/O. Only ok() results persist — failures are
  // cheap to recompute and should not fossilize. Append errors (disk
  // full, permissions) degrade the store to read-only rather than
  // failing the request.
  if (store_ != nullptr && result.ok()) {
    try {
      store_->append(key, encode_result(result));
    } catch (const std::exception&) {
      store_append_errors_->add();
    }
  }
  return result;
}

CacheStats Engine::cache_stats() const {
  // One shard snapshot backs both the split and the aggregate, so the
  // totals always equal the sum of the shards even while runs land
  // concurrently.
  CacheStats stats;
  stats.shards = cache_.shard_counters();
  for (const runtime::CacheCounters& shard : stats.shards) {
    stats.hits += shard.hits;
    stats.misses += shard.misses;
    stats.evictions += shard.evictions;
    stats.entries += shard.entries;
    stats.capacity += shard.capacity;
  }
  return stats;
}

std::size_t Engine::clear_cache() { return cache_.clear(); }

}  // namespace dspaddr::engine
