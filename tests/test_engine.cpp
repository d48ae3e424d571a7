// The engine API: stage-structured results, fingerprint caching, and
// byte-identical parity with the pre-refactor pipeline output.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "agu/machines.hpp"
#include "cli/kernel_io.hpp"
#include "engine/engine.hpp"
#include "engine/fingerprint.hpp"
#include "engine/serialize.hpp"
#include "eval/batch.hpp"
#include "ir/kernels.hpp"
#include "ir/layout.hpp"

namespace dspaddr {
namespace {

const std::string kSourceRoot = std::string(DSPADDR_SOURCE_DIR);

engine::Request fir_request() {
  engine::Request request;
  request.kernel = ir::builtin_kernel("fir");
  request.machine = agu::builtin_machine("wide4");
  return request;
}

std::string read_file(const std::string& path) {
  std::ifstream file(path);
  EXPECT_TRUE(file.good()) << "cannot open " << path;
  std::ostringstream content;
  content << file.rdbuf();
  return content.str();
}

// ---------------------------------------------------------------- stages

TEST(EngineStages, NamesRoundTrip) {
  for (std::size_t i = 0; i < engine::kStageCount; ++i) {
    const engine::Stage stage = static_cast<engine::Stage>(i);
    EXPECT_EQ(engine::stage_from_name(engine::stage_name(stage)), stage);
  }
  EXPECT_FALSE(engine::stage_from_name("bogus").has_value());
}

TEST(EngineStages, FullRunCompletesAllStages) {
  engine::Engine engine;
  const engine::Result result = engine.run(fir_request());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.verified);
  for (std::size_t i = 0; i < engine::kStageCount; ++i) {
    EXPECT_TRUE(result.stage_done(static_cast<engine::Stage>(i)));
  }
  EXPECT_GT(result.total_ms, 0.0);
}

TEST(EngineStages, StopAfterRunsOnlyThePrefix) {
  engine::Engine engine;
  engine::Request request = fir_request();
  request.stop_after = engine::Stage::kAllocate;
  const engine::Result result = engine.run(request);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.stage_done(engine::Stage::kLower));
  EXPECT_TRUE(result.stage_done(engine::Stage::kAllocate));
  EXPECT_FALSE(result.stage_done(engine::Stage::kPlan));
  EXPECT_FALSE(result.stage_done(engine::Stage::kSimulate));
  // Later-stage outputs keep their defaults.
  EXPECT_TRUE(result.program.setup.empty());
  EXPECT_TRUE(result.program.body.empty());
  EXPECT_FALSE(result.verified);
  EXPECT_EQ(result.iterations, 0u);
  // The prefix is a distinct cache entry from the full run.
  const engine::Result full = engine.run(fir_request());
  EXPECT_FALSE(full.cache_hit);
  EXPECT_TRUE(full.verified);
}

TEST(EngineStages, FailureIsStructuredNotThrown) {
  engine::Engine engine;
  engine::Request request = fir_request();
  request.machine.set_address_registers(0);
  engine::Result result;
  ASSERT_NO_THROW(result = engine.run(request));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error->stage, engine::Stage::kAllocate);
  EXPECT_FALSE(result.error->message.empty());
  // The stage before the failure completed; the failing one did not.
  EXPECT_TRUE(result.stage_done(engine::Stage::kLower));
  EXPECT_GT(result.accesses, 0u);
  EXPECT_FALSE(result.stage_done(engine::Stage::kAllocate));
}

// ----------------------------------------------------------- fingerprint

TEST(EngineFingerprint, IgnoresNamesButNotResources) {
  const engine::Request base = fir_request();
  const ir::AccessSequence seq = ir::lower(base.kernel);
  const std::string key = engine::request_fingerprint(base, seq);

  engine::Request renamed = base;
  renamed.machine.name = "elsewhere";
  EXPECT_EQ(engine::request_fingerprint(renamed, seq), key);

  engine::Request more_registers = base;
  more_registers.machine.set_address_registers(
      more_registers.machine.address_registers() + 1);
  EXPECT_NE(engine::request_fingerprint(more_registers, seq), key);

  // v3 keys on the full machine spec: a window with the same M
  // magnitude but a different shape must not alias the symmetric one,
  // and neither must free widths or the addressing mode.
  engine::Request asymmetric = base;
  asymmetric.machine.modify_lo = 0;
  EXPECT_NE(engine::request_fingerprint(asymmetric, seq), key);

  engine::Request widths = base;
  widths.machine.free_widths = {4};
  EXPECT_NE(engine::request_fingerprint(widths, seq), key);

  engine::Request pre = base;
  pre.machine.addressing = agu::Addressing::kPreModify;
  EXPECT_NE(engine::request_fingerprint(pre, seq), key);

  engine::Request other_phase2 = base;
  other_phase2.phase2.mode = core::Phase2Options::Mode::kHeuristic;
  EXPECT_NE(engine::request_fingerprint(other_phase2, seq), key);

  engine::Request prefix = base;
  prefix.stop_after = engine::Stage::kAllocate;
  EXPECT_NE(engine::request_fingerprint(prefix, seq), key);

  engine::Request more_iterations = base;
  more_iterations.iterations = 1000;
  EXPECT_NE(engine::request_fingerprint(more_iterations, seq), key);
}

// ----------------------------------------------------------------- cache

TEST(EngineCache, RepeatedRequestHitsAndIsEqual) {
  engine::Engine engine;
  const engine::Result first = engine.run(fir_request());
  const engine::Result second = engine.run(fir_request());
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(engine::result_to_json_line(first),
            engine::result_to_json_line(second));
  const engine::CacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(EngineCache, HitAppliesTheCallersDecoration) {
  engine::Engine engine;
  engine.run(fir_request());

  engine::Request renamed = fir_request();
  renamed.machine.name = "twin";
  ir::Kernel twin("fir_twin", "structural twin of fir");
  for (const ir::ArrayDecl& array : renamed.kernel.arrays()) {
    twin.add_array(array.name, array.size);
  }
  twin.set_iterations(renamed.kernel.iterations());
  twin.set_data_ops(renamed.kernel.data_ops());
  for (const ir::KernelAccess& access : renamed.kernel.accesses()) {
    twin.add_access(access.array, access.offset, access.stride,
                    access.is_write);
  }
  renamed.kernel = twin;

  const engine::Result result = engine.run(renamed);
  EXPECT_TRUE(result.cache_hit);
  EXPECT_EQ(result.kernel.name(), "fir_twin");
  EXPECT_EQ(result.machine.name, "twin");
  const eval::BatchRow row = eval::row_from_result(result);
  EXPECT_EQ(row.kernel, "fir_twin");
  EXPECT_EQ(row.machine, "twin");
}

TEST(EngineCache, CapacityZeroDisablesCaching) {
  engine::Engine engine(engine::Engine::Options{0});
  engine.run(fir_request());
  const engine::Result second = engine.run(fir_request());
  EXPECT_FALSE(second.cache_hit);
  const engine::CacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.entries, 0u);
}

TEST(EngineCache, LruEvictsTheColdestEntry) {
  // Pinned to one shard: LRU order is a per-shard property of the
  // striped cache, so only a single stripe makes "coldest" global.
  engine::Engine engine(engine::Engine::Options{2, 1});
  engine::Request biquad = fir_request();
  biquad.kernel = ir::builtin_kernel("biquad");
  engine::Request matmul = fir_request();
  matmul.kernel = ir::builtin_kernel("matmul");

  engine.run(fir_request());                     // {fir}
  engine.run(biquad);                            // {biquad, fir}
  EXPECT_TRUE(engine.run(fir_request()).cache_hit);  // {fir, biquad}
  engine.run(matmul);                            // {matmul, fir} — biquad out
  EXPECT_EQ(engine.cache_stats().entries, 2u);
  EXPECT_TRUE(engine.run(fir_request()).cache_hit);
  EXPECT_FALSE(engine.run(biquad).cache_hit);
}

TEST(EngineCache, ClearCacheForgetsResultsAndReportsTheDropCount) {
  engine::Engine engine;
  engine.run(fir_request());
  engine::Request biquad = fir_request();
  biquad.kernel = ir::builtin_kernel("biquad");
  engine.run(biquad);
  EXPECT_EQ(engine.clear_cache(), 2u);
  EXPECT_EQ(engine.cache_stats().entries, 0u);
  EXPECT_FALSE(engine.run(fir_request()).cache_hit);
  EXPECT_EQ(engine.clear_cache(), 1u);
}

TEST(EngineCache, StatsAggregateTheShardSplit) {
  // Per-shard capacity (16/4 = 4) holds every key even if all four
  // fingerprints hash into one shard: the test checks the aggregation,
  // not the hash distribution, so it must not depend on how the
  // fingerprint string happens to spread.
  engine::Engine engine(engine::Engine::Options{16, 4});
  for (const char* name : {"fir", "biquad", "matmul", "dotprod"}) {
    engine::Request request = fir_request();
    request.kernel = ir::builtin_kernel(name);
    engine.run(request);
    engine.run(request);
  }
  const engine::CacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.hits, 4u);
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.entries, 4u);
  EXPECT_EQ(stats.capacity, 16u);
  EXPECT_EQ(stats.evictions, 0u);
  ASSERT_EQ(stats.shards.size(), 4u);
  runtime::CacheCounters sum;
  for (const runtime::CacheCounters& shard : stats.shards) {
    sum.hits += shard.hits;
    sum.misses += shard.misses;
    sum.evictions += shard.evictions;
    sum.entries += shard.entries;
    sum.capacity += shard.capacity;
  }
  EXPECT_EQ(sum.hits, stats.hits);
  EXPECT_EQ(sum.misses, stats.misses);
  EXPECT_EQ(sum.entries, stats.entries);
  EXPECT_EQ(sum.capacity, stats.capacity);
}

TEST(EngineCache, EvictionsAreCounted) {
  // Capacity 1, one shard: every new fingerprint evicts the previous.
  engine::Engine engine(engine::Engine::Options{1, 1});
  for (const char* name : {"fir", "biquad", "matmul"}) {
    engine::Request request = fir_request();
    request.kernel = ir::builtin_kernel(name);
    engine.run(request);
  }
  const engine::CacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(EngineCache, ConcurrentDuplicateMissesComputeOnce) {
  // Eight threads race the same cold request: single-flight, so
  // exactly one computes (one miss), the rest are answered as hits —
  // whatever the interleaving. That determinism is what lets serve
  // report byte-identical stats at every --jobs level.
  engine::Engine engine;
  constexpr std::size_t kThreads = 8;
  std::vector<std::string> seen(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      seen[t] = engine::result_to_json_line(engine.run(fir_request()));
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (std::size_t t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[t], seen[0]);
  }
  const engine::CacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, kThreads - 1);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(EngineCache, DeterministicUnderConcurrentRuns) {
  // Several workers hammer the same small request set on one shared
  // engine; every answer must equal the single-threaded reference.
  std::vector<engine::Request> requests;
  for (const char* name : {"fir", "biquad", "matmul", "dotprod"}) {
    engine::Request request;
    request.kernel = ir::builtin_kernel(name);
    request.machine = agu::builtin_machine("minimal2");
    requests.push_back(request);
  }
  std::vector<std::string> reference;
  {
    engine::Engine engine;
    for (const engine::Request& request : requests) {
      reference.push_back(engine::result_to_json_line(engine.run(request)));
    }
  }

  engine::Engine shared;
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kRounds = 5;
  std::vector<std::vector<std::string>> seen(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t round = 0; round < kRounds; ++round) {
        for (const engine::Request& request : requests) {
          seen[t].push_back(
              engine::result_to_json_line(shared.run(request)));
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(seen[t].size(), kRounds * requests.size());
    for (std::size_t i = 0; i < seen[t].size(); ++i) {
      EXPECT_EQ(seen[t][i], reference[i % requests.size()]);
    }
  }
  const engine::CacheStats stats = shared.cache_stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kRounds * requests.size());
  EXPECT_GE(stats.misses, requests.size());
  EXPECT_EQ(stats.entries, requests.size());
}

TEST(EngineCache, WarmHitsAreFarFasterThanColdRuns) {
  // The bench measures this properly; here we only guard the order of
  // magnitude: a warm hit skips allocation + simulation entirely, so
  // even a conservative 5x margin holds with room to spare.
  engine::Request request;
  request.kernel = ir::builtin_kernel("paper_example");
  request.machine = agu::builtin_machine("minimal2");
  request.phase2.mode = core::Phase2Options::Mode::kExact;

  engine::Engine engine;
  using Clock = std::chrono::steady_clock;
  const auto cold_start = Clock::now();
  const engine::Result cold = engine.run(request);
  const double cold_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - cold_start)
          .count();
  ASSERT_FALSE(cold.cache_hit);

  // The *minimum* warm time is the robust statistic here: a mean is
  // inflated arbitrarily when the test is descheduled mid-loop on a
  // loaded runner, and it only takes one clean hit to prove the cache
  // path is an order of magnitude cheaper than recomputing.
  constexpr int kWarmRuns = 200;
  double warm_ms = std::numeric_limits<double>::infinity();
  for (int i = 0; i < kWarmRuns; ++i) {
    const auto warm_start = Clock::now();
    ASSERT_TRUE(engine.run(request).cache_hit);
    warm_ms = std::min(
        warm_ms, std::chrono::duration<double, std::milli>(Clock::now() -
                                                           warm_start)
                     .count());
  }
  EXPECT_GT(cold_ms, 5.0 * warm_ms)
      << "cold " << cold_ms << " ms vs warm (min) " << warm_ms << " ms";
}

// ---------------------------------------------------------------- parity

// The engine-backed batch runner must reproduce the pre-refactor CSV
// byte for byte (goldens captured from the last direct-pipeline build).

TEST(EngineParity, WorkloadGridMatchesGoldenCsv) {
  eval::BatchConfig config;
  for (const char* name :
       {"fir16.kern", "gradient.c", "paper_example.c", "smooth3.c",
        "stereo_mix.kern"}) {
    config.kernels.push_back(
        cli::load_kernel_file(kSourceRoot + "/workloads/" + name));
  }
  config.machines = agu::builtin_machines();
  config.jobs = 4;
  const std::string csv = eval::batch_to_csv(eval::run_batch(config)).to_string();
  EXPECT_EQ(csv, read_file(kSourceRoot + "/tests/golden/batch_workloads.csv"));
}

TEST(EngineParity, BuiltinGridMatchesGoldenCsv) {
  eval::BatchConfig config;
  config.kernels = {ir::builtin_kernel("fir"), ir::builtin_kernel("biquad"),
                    ir::builtin_kernel("matmul")};
  config.machines = {agu::builtin_machine("minimal2"),
                     agu::builtin_machine("wide4"),
                     agu::builtin_machine("adsp218x")};
  config.register_counts = {1, 2, 4};
  config.modify_ranges = {1, 2};
  config.jobs = 4;
  const std::string csv = eval::batch_to_csv(eval::run_batch(config)).to_string();
  EXPECT_EQ(csv,
            read_file(kSourceRoot + "/tests/golden/batch_small_grid.csv"));
}

TEST(EngineParity, MachineRegistryGridMatchesGoldenCsv) {
  // The whole machine registry — builtin catalog plus every shipped
  // file-only target — so asymmetric windows, free widths and
  // pre-modify addressing stay pinned byte for byte.
  agu::MachineRegistry registry = agu::MachineRegistry::with_builtins();
  for (const char* file : {"msp430x.machine", "arm946e.machine",
                           "dsp56300.machine", "arm946e_wb.machine"}) {
    registry.load_file(kSourceRoot + "/workloads/machines/" + file);
  }
  eval::BatchConfig config;
  config.kernels = {ir::builtin_kernel("fir"), ir::builtin_kernel("biquad")};
  config.machines = registry.all();
  config.jobs = 4;
  const std::string csv =
      eval::batch_to_csv(eval::run_batch(config)).to_string();
  EXPECT_EQ(csv, read_file(kSourceRoot +
                           "/tests/golden/batch_machines_grid.csv"));
}

TEST(EngineParity, SharedEngineAcrossSweepsKeepsCsvIdentical) {
  eval::BatchConfig config;
  config.kernels = {ir::builtin_kernel("fir"), ir::builtin_kernel("biquad")};
  config.machines = {agu::builtin_machine("minimal2"),
                     agu::builtin_machine("wide4")};
  config.register_counts = {1, 2};
  config.jobs = 4;

  engine::Engine engine;
  const std::string first =
      eval::batch_to_csv(eval::run_batch(config, engine)).to_string();
  const std::string second =
      eval::batch_to_csv(eval::run_batch(config, engine)).to_string();
  EXPECT_EQ(first, second);
  // The second sweep was answered from the cache.
  EXPECT_GE(engine.cache_stats().hits, 8u);
}

// ------------------------------------------------------------- serialize

TEST(EngineSerialize, JsonCarriesAllStages) {
  engine::Engine engine;
  const engine::Result result = engine.run(fir_request());
  const support::JsonValue json =
      support::JsonValue::parse(engine::result_to_json_line(result));
  EXPECT_EQ(json.find("kernel")->find("name")->as_string(), "fir");
  EXPECT_EQ(json.find("machine")->find("registers")->as_int(), 4);
  EXPECT_EQ(json.find("stop_after")->as_string(), "metrics");
  EXPECT_EQ(json.find("error"), nullptr);
  const support::JsonValue* stages = json.find("stages");
  ASSERT_NE(stages, nullptr);
  for (const char* stage :
       {"lower", "allocate", "plan", "codegen", "simulate", "metrics"}) {
    EXPECT_NE(stages->find(stage), nullptr) << stage;
  }
  EXPECT_TRUE(
      stages->find("simulate")->find("verified")->as_bool());
}

TEST(EngineSerialize, JsonOmitsStagesAfterStopOrError) {
  engine::Engine engine;
  engine::Request prefix = fir_request();
  prefix.stop_after = engine::Stage::kPlan;
  const support::JsonValue json = support::JsonValue::parse(
      engine::result_to_json_line(engine.run(prefix)));
  const support::JsonValue* stages = json.find("stages");
  ASSERT_NE(stages, nullptr);
  EXPECT_NE(stages->find("plan"), nullptr);
  EXPECT_EQ(stages->find("codegen"), nullptr);
  EXPECT_EQ(stages->find("simulate"), nullptr);

  engine::Request broken = fir_request();
  broken.machine.set_address_registers(0);
  const support::JsonValue failed = support::JsonValue::parse(
      engine::result_to_json_line(engine.run(broken)));
  ASSERT_NE(failed.find("error"), nullptr);
  EXPECT_EQ(failed.find("error")->find("stage")->as_string(), "allocate");
  EXPECT_NE(failed.find("stages")->find("lower"), nullptr);
  EXPECT_EQ(failed.find("stages")->find("allocate"), nullptr);
}

TEST(EngineSerialize, StageErrorLineIsPinnedByteForByte) {
  // Serve validates every request before the pipeline runs, so no serve
  // golden carries a stage error; this pins the shape here: the error
  // member after stop_after, and only the stages before it.
  engine::Engine engine;
  engine::Request broken = fir_request();
  broken.machine.set_address_registers(0);
  EXPECT_EQ(
      engine::result_to_json_line(engine.run(broken)),
      R"({"kernel":{"name":"fir","arrays":2,"accesses":2,"iterations":16,)"
      R"("data_ops":1},"machine":{"name":"wide4","description":"AGU with )"
      R"(short-immediate modify (|d| <= 2), 4 address registers","classes":)"
      R"([{"name":"ar","kind":"address","count":0}],"modify_lo":-2,)"
      R"("modify_hi":2,"inc":[],"dec":[],"addressing":"post","registers":0,)"
      R"("modify_registers":0,"modify_range":2},"layout":"contiguous",)"
      R"("strategy":"two-phase","stop_after":"metrics","error":{"stage":)"
      R"("allocate","message":"RegisterAllocator: need at least one )"
      R"(address register"},"stages":{"lower":{"accesses":2,)"
      R"("layout_extent":80}}})");
}

TEST(EngineSerialize, KernelFromJsonRoundTrips) {
  const support::JsonValue json = support::JsonValue::parse(R"({
    "name": "tiny", "iterations": 4, "data_ops": 2,
    "arrays": [{"name": "A", "size": 8}],
    "accesses": [{"array": "A", "offset": 1},
                 {"array": "A", "offset": 0, "stride": 2, "write": true}]
  })");
  const ir::Kernel kernel = engine::kernel_from_json(json);
  EXPECT_EQ(kernel.name(), "tiny");
  EXPECT_EQ(kernel.iterations(), 4);
  EXPECT_EQ(kernel.data_ops(), 2);
  ASSERT_EQ(kernel.accesses().size(), 2u);
  EXPECT_EQ(kernel.accesses()[1].stride, 2);
  EXPECT_TRUE(kernel.accesses()[1].is_write);

  EXPECT_THROW(
      engine::kernel_from_json(support::JsonValue::parse("{\"a\":1}")),
      Error);
  EXPECT_THROW(engine::kernel_from_json(support::JsonValue::parse("[]")),
               Error);
}

}  // namespace
}  // namespace dspaddr
