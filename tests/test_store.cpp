// store::ResultStore — the persistent result log: framing, crash
// recovery, shadowing, and the engine's two-tier (RAM over disk)
// cache behaviour built on top of it.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "agu/machines.hpp"
#include "cli/serve.hpp"
#include "engine/engine.hpp"
#include "engine/fingerprint.hpp"
#include "engine/result_codec.hpp"
#include "engine/serialize.hpp"
#include "engine/strategy.hpp"
#include "ir/kernels.hpp"
#include "ir/layout.hpp"
#include "store/result_store.hpp"
#include "support/check.hpp"
#include "support/json.hpp"
#include "support/strings.hpp"

namespace dspaddr {
namespace {

std::string temp_path(const std::string& name) {
  const std::string path = testing::TempDir() + "dspaddr_store_" + name;
  std::remove(path.c_str());
  return path;
}

store::ResultStore::Options store_options(const std::string& path) {
  store::ResultStore::Options options;
  options.path = path;
  return options;
}

std::string read_bytes(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  EXPECT_TRUE(file.good()) << "cannot open " << path;
  return std::string(std::istreambuf_iterator<char>(file),
                     std::istreambuf_iterator<char>());
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(file.good()) << "cannot open " << path;
  file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(file.good());
}

void append_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream file(path, std::ios::binary | std::ios::app);
  ASSERT_TRUE(file.good()) << "cannot open " << path;
  file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(file.good());
}

std::string le32(std::uint32_t v) {
  std::string out(4, '\0');
  out[0] = static_cast<char>(v & 0xFF);
  out[1] = static_cast<char>((v >> 8) & 0xFF);
  out[2] = static_cast<char>((v >> 16) & 0xFF);
  out[3] = static_cast<char>((v >> 24) & 0xFF);
  return out;
}

/// A byte-exact record frame, as the store itself would write it.
std::string frame_record(const std::string& key, const std::string& value) {
  return le32(static_cast<std::uint32_t>(key.size())) +
         le32(static_cast<std::uint32_t>(value.size())) +
         le32(store::crc32(key + value)) + key + value;
}

// ------------------------------------------------------------------ crc

TEST(Store, Crc32MatchesReferenceVectors) {
  // The IEEE 802.3 check value: crc32("123456789") == 0xCBF43926.
  EXPECT_EQ(store::crc32(""), 0u);
  EXPECT_EQ(store::crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(store::crc32("a"), 0xE8B7BE43u);
  EXPECT_NE(store::crc32("abc"), store::crc32("abd"));
}

// ------------------------------------------------------------ basic API

TEST(Store, PutGetRoundTripsAndCounts) {
  const std::string path = temp_path("roundtrip.log");
  store::ResultStore db(store_options(path));
  EXPECT_FALSE(db.get("k").has_value());
  db.append("k", "value-1");
  db.append("other", std::string(100000, 'x'));
  EXPECT_EQ(db.get("k"), std::optional<std::string>("value-1"));
  EXPECT_EQ(db.get("other"), std::optional<std::string>(std::string(100000, 'x')));

  const store::StoreStats stats = db.stats();
  EXPECT_EQ(stats.records, 2u);
  EXPECT_EQ(stats.appended_records, 2u);
  EXPECT_EQ(stats.recovered_records, 0u);
  EXPECT_EQ(stats.truncated_bytes, 0u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_GT(stats.bytes, 100000u);
}

TEST(Store, ReopenRecoversEveryRecord) {
  const std::string path = temp_path("reopen.log");
  {
    store::ResultStore db(store_options(path));
    db.append("alpha", "one");
    db.append("beta", "two");
    db.append("gamma", std::string(4096, 'g'));
  }
  store::ResultStore db(store_options(path));
  EXPECT_EQ(db.get("alpha"), std::optional<std::string>("one"));
  EXPECT_EQ(db.get("beta"), std::optional<std::string>("two"));
  EXPECT_EQ(db.get("gamma"), std::optional<std::string>(std::string(4096, 'g')));
  const store::StoreStats stats = db.stats();
  EXPECT_EQ(stats.records, 3u);
  EXPECT_EQ(stats.recovered_records, 3u);
  EXPECT_EQ(stats.truncated_bytes, 0u);
}

TEST(Store, LaterRecordShadowsEarlier) {
  const std::string path = temp_path("shadow.log");
  {
    store::ResultStore db(store_options(path));
    db.append("k", "old");
    db.append("k", "new");
    EXPECT_EQ(db.get("k"), std::optional<std::string>("new"));
    EXPECT_EQ(db.stats().records, 1u);
  }
  // The shadowing survives a reopen: the scan applies records in file
  // order, so the later one wins again.
  store::ResultStore db(store_options(path));
  EXPECT_EQ(db.get("k"), std::optional<std::string>("new"));
  const store::StoreStats stats = db.stats();
  EXPECT_EQ(stats.records, 1u);
  EXPECT_EQ(stats.recovered_records, 2u);
}

TEST(Store, FsyncOptionStillRoundTrips) {
  const std::string path = temp_path("fsync.log");
  store::ResultStore::Options options = store_options(path);
  options.fsync_each_append = true;
  store::ResultStore db(options);
  db.append("k", "durable");
  EXPECT_EQ(db.get("k"), std::optional<std::string>("durable"));
}

TEST(Store, AppendedRecordsReadBackFromTheLogAcrossReopens) {
  // Records appended after open() are not kept in memory: they are read
  // back from the file, past the end of the map of the log as it was at
  // open. Values here straddle page boundaries and shadow both a
  // recovered record and one appended after the same open().
  const std::string path = temp_path("appended.log");
  const std::string big(9000, 'b');
  std::string mixed;
  for (int i = 0; i < 3000; ++i) {
    mixed += static_cast<char>(i * 7);
  }
  {
    store::ResultStore db(store_options(path));
    db.append("recovered", "first boot");
    db.append("twice", "one");
  }
  {
    store::ResultStore db(store_options(path));
    ASSERT_EQ(db.stats().recovered_records, 2u);
    db.append("big", big);
    db.append("mixed", mixed);
    db.append("recovered", "second boot");
    db.append("twice", "two");
    db.append("twice", "three");
    EXPECT_EQ(db.get("big"), std::optional<std::string>(big));
    EXPECT_EQ(db.get("mixed"), std::optional<std::string>(mixed));
    EXPECT_EQ(db.get("recovered"), std::optional<std::string>("second boot"));
    EXPECT_EQ(db.get("twice"), std::optional<std::string>("three"));
    EXPECT_EQ(db.stats().records, 4u);
  }
  store::ResultStore db(store_options(path));
  EXPECT_EQ(db.get("big"), std::optional<std::string>(big));
  EXPECT_EQ(db.get("mixed"), std::optional<std::string>(mixed));
  EXPECT_EQ(db.get("recovered"), std::optional<std::string>("second boot"));
  EXPECT_EQ(db.get("twice"), std::optional<std::string>("three"));
  const store::StoreStats stats = db.stats();
  EXPECT_EQ(stats.records, 4u);
  EXPECT_EQ(stats.recovered_records, 7u);
}

// --------------------------------------------------------- crash safety

TEST(Store, TornFinalRecordIsDroppedAndTruncated) {
  const std::string path = temp_path("torn.log");
  {
    store::ResultStore db(store_options(path));
    db.append("kept-1", "value-1");
    db.append("kept-2", "value-2");
  }
  // Simulate a crash mid-append: a full frame header claiming a large
  // value, but only half the body present.
  const std::string torn = frame_record("lost", std::string(512, 'z'));
  append_bytes(path, torn.substr(0, torn.size() / 2));
  const std::uint64_t dirty_size = read_bytes(path).size();

  store::ResultStore db(store_options(path));
  EXPECT_EQ(db.get("kept-1"), std::optional<std::string>("value-1"));
  EXPECT_EQ(db.get("kept-2"), std::optional<std::string>("value-2"));
  EXPECT_FALSE(db.get("lost").has_value());
  const store::StoreStats stats = db.stats();
  EXPECT_EQ(stats.recovered_records, 2u);
  EXPECT_EQ(stats.truncated_bytes, torn.size() / 2);
  // The tail really was cut off the file, so the next append starts on
  // a clean frame boundary.
  EXPECT_EQ(read_bytes(path).size(), dirty_size - torn.size() / 2);
  db.append("after", "crash");
  EXPECT_EQ(db.get("after"), std::optional<std::string>("crash"));
}

TEST(Store, CorruptTailCrcIsDropped) {
  const std::string path = temp_path("corrupt.log");
  {
    store::ResultStore db(store_options(path));
    db.append("kept", "value");
    db.append("flipped", "payload-bytes");
  }
  // Flip one byte inside the final record's value.
  std::string bytes = read_bytes(path);
  bytes[bytes.size() - 1] = static_cast<char>(bytes[bytes.size() - 1] ^ 0x40);
  write_bytes(path, bytes);

  store::ResultStore db(store_options(path));
  EXPECT_EQ(db.get("kept"), std::optional<std::string>("value"));
  EXPECT_FALSE(db.get("flipped").has_value());
  const store::StoreStats stats = db.stats();
  EXPECT_EQ(stats.recovered_records, 1u);
  EXPECT_GT(stats.truncated_bytes, 0u);
}

TEST(Store, TruncatedHeaderMeansFreshLog) {
  const std::string path = temp_path("short_header.log");
  write_bytes(path, "DSPADDR");  // shorter than the 16-byte header
  store::ResultStore db(store_options(path));
  EXPECT_EQ(db.stats().records, 0u);
  EXPECT_EQ(db.stats().truncated_bytes, 7u);
  db.append("k", "v");
  EXPECT_EQ(db.get("k"), std::optional<std::string>("v"));
}

TEST(Store, ForeignMagicIsRefused) {
  const std::string path = temp_path("magic.log");
  write_bytes(path, std::string("NOTADSPL") + le32(1) + le32(0));
  EXPECT_THROW(store::ResultStore db(store_options(path)), Error);
}

TEST(Store, ForeignVersionIsRefused) {
  const std::string path = temp_path("version.log");
  write_bytes(path, std::string("DSPADDRL") + le32(999) + le32(0));
  EXPECT_THROW(store::ResultStore db(store_options(path)), Error);
}

// ----------------------------------------------------------- threading

TEST(Store, ConcurrentGetAndAppendAreSafe) {
  // Writers append disjoint key ranges while readers poll them; run
  // under TSan in CI. Values are self-describing so any cross-wiring
  // of index entries would surface as a mismatch.
  const std::string path = temp_path("concurrent.log");
  {
    store::ResultStore db(store_options(path));
    for (int i = 0; i < 32; ++i) {
      db.append("warm-" + std::to_string(i), "warm-value-" + std::to_string(i));
    }
  }
  store::ResultStore db(store_options(path));
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 64;
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&db, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        const std::string key =
            "w" + std::to_string(w) + "-" + std::to_string(i);
        db.append(key, "value:" + key);
        const std::optional<std::string> back = db.get(key);
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(*back, "value:" + key);
      }
    });
  }
  // Readers hammer the warm-started (mmap-backed) records concurrently.
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&db] {
      for (int round = 0; round < 200; ++round) {
        const std::string key = "warm-" + std::to_string(round % 32);
        const std::optional<std::string> value = db.get(key);
        ASSERT_TRUE(value.has_value());
        EXPECT_EQ(*value, "warm-value-" + std::to_string(round % 32));
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(db.stats().records, 32u + kWriters * kPerWriter);
}

// --------------------------------------------------------- compaction

TEST(StoreCompaction, OpenRewritesLogWhenDeadBytesExceedThreshold) {
  const std::string path = temp_path("compact.log");
  {
    store::ResultStore db(store_options(path));
    for (int round = 0; round < 8; ++round) {
      for (int key = 0; key < 4; ++key) {
        db.append("key-" + std::to_string(key),
                  "value-" + std::to_string(key) + "-round-" +
                      std::to_string(round));
      }
    }
    // 7 of 8 rounds are shadowed dead weight.
    EXPECT_GT(db.stats().shadowed_bytes, 0u);
    EXPECT_EQ(db.stats().compactions, 0u);
  }
  const std::uint64_t fat_size = read_bytes(path).size();

  store::ResultStore::Options options = store_options(path);
  options.compact_min_bytes = 1;  // any dead byte triggers the rewrite
  store::ResultStore db(options);
  const store::StoreStats stats = db.stats();
  EXPECT_EQ(stats.compactions, 1u);
  EXPECT_GT(stats.compacted_bytes, 0u);
  EXPECT_EQ(stats.shadowed_bytes, 0u);
  EXPECT_EQ(stats.records, 4u);
  EXPECT_LT(stats.bytes, fat_size);
  EXPECT_EQ(read_bytes(path).size(), stats.bytes);
  // Every key still resolves to its most recent value.
  for (int key = 0; key < 4; ++key) {
    const std::optional<std::string> value =
        db.get("key-" + std::to_string(key));
    ASSERT_TRUE(value.has_value());
    EXPECT_EQ(*value, "value-" + std::to_string(key) + "-round-7");
  }
  // Appends after the rewrite land on a clean frame boundary.
  db.append("key-0", "post-compact");
  EXPECT_EQ(db.get("key-0").value(), "post-compact");
}

TEST(StoreCompaction, CleanLogBelowThresholdIsLeftAlone) {
  const std::string path = temp_path("compact_clean.log");
  {
    store::ResultStore db(store_options(path));
    for (int key = 0; key < 4; ++key) {
      db.append("key-" + std::to_string(key), "value");
    }
  }
  const std::string before = read_bytes(path);

  // No shadowed records: even a 1-byte threshold must not rewrite.
  store::ResultStore::Options options = store_options(path);
  options.compact_min_bytes = 1;
  store::ResultStore db(options);
  EXPECT_EQ(db.stats().compactions, 0u);
  EXPECT_EQ(db.stats().records, 4u);
  EXPECT_EQ(read_bytes(path), before);
}

TEST(StoreCompaction, DefaultThresholdIgnoresSmallShadowing) {
  const std::string path = temp_path("compact_small.log");
  {
    store::ResultStore db(store_options(path));
    db.append("key", "first");
    db.append("key", "second");
  }
  // A few dead bytes are nowhere near the 1 MiB default threshold.
  store::ResultStore db(store_options(path));
  EXPECT_EQ(db.stats().compactions, 0u);
  EXPECT_GT(db.stats().shadowed_bytes, 0u);
  EXPECT_EQ(db.get("key").value(), "second");
}

TEST(StoreCompaction, CompactedLogRoundTripsByteIdenticalReads) {
  const std::string path = temp_path("compact_identity.log");
  std::vector<std::string> expected;
  {
    store::ResultStore db(store_options(path));
    for (int key = 0; key < 16; ++key) {
      db.append("stale-" + std::to_string(key), std::string(64, 'x'));
    }
    for (int key = 0; key < 16; ++key) {
      const std::string value =
          "payload-" + std::to_string(key) + "-" +
          std::string(static_cast<std::size_t>(key) * 7, 'y');
      db.append("stale-" + std::to_string(key), value);
      expected.push_back(value);
    }
  }
  store::ResultStore::Options options = store_options(path);
  options.compact_min_bytes = 1;
  store::ResultStore compacted(options);
  ASSERT_EQ(compacted.stats().compactions, 1u);
  for (int key = 0; key < 16; ++key) {
    EXPECT_EQ(compacted.get("stale-" + std::to_string(key)).value(),
              expected[static_cast<std::size_t>(key)]);
  }
  // And the rewritten file is itself a clean, recoverable log.
  store::ResultStore reopened(store_options(path));
  EXPECT_EQ(reopened.stats().records, 16u);
  EXPECT_EQ(reopened.stats().truncated_bytes, 0u);
  EXPECT_EQ(reopened.stats().shadowed_bytes, 0u);
}

// ------------------------------------------------------ engine two-tier

engine::Request fir_request() {
  engine::Request request;
  request.kernel = ir::builtin_kernel("fir");
  request.machine = agu::builtin_machine("wide4");
  return request;
}

/// The exact key the engine stores `request` under: fingerprint v4 of
/// the lowered sequence (replicates the engine's lower step).
std::string engine_key(const engine::Request& request) {
  const engine::LayoutStrategy* layout_strategy =
      engine::StrategyRegistry::builtin().layout(request.layout);
  check_arg(layout_strategy != nullptr, "unknown layout");
  const ir::ArrayLayout layout =
      layout_strategy->place(request.kernel, request.machine);
  return engine::request_fingerprint(request,
                                     ir::lower(request.kernel, layout));
}

TEST(StoreEngine, SecondBootAnswersFromStoreByteIdentically) {
  const std::string path = temp_path("two_tier.log");
  std::string cold_json;
  {
    engine::Engine::Options options;
    options.store =
        std::make_shared<store::ResultStore>(store_options(path));
    engine::Engine engine(std::move(options));
    const engine::Result cold = engine.run(fir_request());
    ASSERT_TRUE(cold.ok());
    EXPECT_FALSE(cold.cache_hit);
    EXPECT_FALSE(cold.store_hit);
    cold_json = engine::result_to_json_line(cold);
  }
  // "Restart": a fresh engine (empty RAM tier) over the same log.
  engine::Engine::Options options;
  options.store = std::make_shared<store::ResultStore>(store_options(path));
  engine::Engine engine(std::move(options));
  const engine::Result warm = engine.run(fir_request());
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.store_hit);
  EXPECT_FALSE(warm.cache_hit);
  EXPECT_EQ(engine::result_to_json_line(warm), cold_json);
  // Nothing was searched on the second boot.
  obs::Registry& metrics = *engine.metrics();
  EXPECT_EQ(metrics.counter("engine.phase2.nodes").value(), 0u);
  EXPECT_EQ(metrics.counter("engine.phase2.proven").value(), 0u);
  // The store hit was promoted into the RAM tier: the next call is a
  // plain RAM hit, still byte-identical.
  const engine::Result ram = engine.run(fir_request());
  EXPECT_TRUE(ram.cache_hit);
  EXPECT_FALSE(ram.store_hit);
  EXPECT_EQ(engine::result_to_json_line(ram), cold_json);
}

TEST(StoreEngine, CapacityZeroStillUsesTheStore) {
  // `run --store` uses a capacity-0 engine: every repeat within and
  // across invocations must come from the disk tier.
  const std::string path = temp_path("cap0.log");
  const auto db = std::make_shared<store::ResultStore>(store_options(path));
  engine::Engine::Options options;
  options.cache_capacity = 0;
  options.store = db;
  engine::Engine engine(std::move(options));
  const engine::Result cold = engine.run(fir_request());
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold.store_hit);
  const engine::Result warm = engine.run(fir_request());
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.store_hit);
  EXPECT_FALSE(warm.cache_hit);
  EXPECT_EQ(engine::result_to_json_line(warm),
            engine::result_to_json_line(cold));
}

TEST(StoreEngine, ErroredResultsAreNotPersisted) {
  const std::string path = temp_path("errors.log");
  const auto db = std::make_shared<store::ResultStore>(store_options(path));
  engine::Engine::Options options;
  options.store = db;
  engine::Engine engine(std::move(options));
  engine::Request broken = fir_request();
  broken.machine.set_address_registers(0);
  const engine::Result result = engine.run(broken);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(db->stats().appended_records, 0u);
}

TEST(StoreEngine, UndecodableRecordIsRecomputedAndHealed) {
  const std::string path = temp_path("heal.log");
  const engine::Request request = fir_request();
  const std::string key = engine_key(request);
  std::string reference;
  {
    engine::Engine engine;
    reference = engine::result_to_json_line(engine.run(request));
  }
  {
    // Poison the log: a structurally valid record whose value is not a
    // codec payload.
    store::ResultStore db(store_options(path));
    db.append(key, "{\"not\":\"a result\"}");
  }
  engine::Engine::Options options;
  options.store = std::make_shared<store::ResultStore>(store_options(path));
  engine::Engine engine(std::move(options));
  const engine::Result result = engine.run(request);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.store_hit);  // decode failed -> recomputed
  EXPECT_EQ(engine::result_to_json_line(result), reference);
  EXPECT_EQ(engine.metrics()->snapshot().counters.empty(), false);
  // The decode failure was counted and the recomputed result shadows
  // the poisoned record, so the *next* boot store-hits cleanly.
  std::uint64_t decode_errors = 0;
  for (const auto& [name, value] : engine.metrics()->snapshot().counters) {
    if (name == "engine.store.decode_errors") decode_errors = value;
  }
  EXPECT_EQ(decode_errors, 1u);

  engine::Engine::Options reopen_options;
  reopen_options.store =
      std::make_shared<store::ResultStore>(store_options(path));
  engine::Engine second(std::move(reopen_options));
  const engine::Result healed = second.run(request);
  EXPECT_TRUE(healed.store_hit);
  EXPECT_EQ(engine::result_to_json_line(healed), reference);
}

TEST(StoreEngine, WarmStartWhileWritingIsSafe) {
  // One engine serves store hits (mmap reads) while another appends
  // fresh results to the same shared store object; run under TSan in
  // CI. (Two *engines*, one store — the store itself is the shared
  // resource; one process per file still holds.)
  const std::string path = temp_path("warm_write.log");
  const char* kernels[] = {"fir", "biquad", "matmul", "dotprod"};
  {
    engine::Engine::Options options;
    options.store =
        std::make_shared<store::ResultStore>(store_options(path));
    engine::Engine engine(std::move(options));
    engine::Request request = fir_request();
    request.kernel = ir::builtin_kernel("fir");
    engine.run(request);
  }
  const auto db = std::make_shared<store::ResultStore>(store_options(path));
  engine::Engine::Options options;
  options.store = db;
  engine::Engine engine(std::move(options));
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&engine, &kernels, t] {
      for (int round = 0; round < 8; ++round) {
        engine::Request request;
        request.kernel = ir::builtin_kernel(kernels[(t + round) % 4]);
        request.machine = agu::builtin_machine("wide4");
        const engine::Result result = engine.run(request);
        EXPECT_TRUE(result.ok());
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(db->stats().records, 4u);
}

// ----------------------------------------------------------- the codec

TEST(StoreCodec, EncodeDecodeRoundTripsAllStages) {
  engine::Engine engine;
  const engine::Result result = engine.run(fir_request());
  ASSERT_TRUE(result.ok());
  engine::Result decoded = engine::decode_result(engine::encode_result(result));
  // The codec drops the request echo (kernel/machine) — re-apply it as
  // the engine does, then the JSON rendering must match exactly.
  decoded.kernel = result.kernel;
  decoded.machine = result.machine;
  EXPECT_EQ(engine::result_to_json_line(decoded),
            engine::result_to_json_line(result));
  // Wall-clock is never serialized.
  for (double ms : decoded.stage_ms) {
    EXPECT_EQ(ms, 0.0);
  }
}

TEST(StoreCodec, PrefixAndErroredResultsRoundTrip) {
  engine::Engine engine;
  engine::Request prefix = fir_request();
  prefix.stop_after = engine::Stage::kAllocate;
  const engine::Result result = engine.run(prefix);
  ASSERT_TRUE(result.ok());
  engine::Result decoded = engine::decode_result(engine::encode_result(result));
  decoded.kernel = result.kernel;
  decoded.machine = result.machine;
  EXPECT_EQ(engine::result_to_json_line(decoded),
            engine::result_to_json_line(result));

  engine::Request broken = fir_request();
  broken.machine.set_address_registers(0);
  const engine::Result errored = engine.run(broken);
  ASSERT_FALSE(errored.ok());
  engine::Result decoded_error =
      engine::decode_result(engine::encode_result(errored));
  decoded_error.kernel = errored.kernel;
  decoded_error.machine = errored.machine;
  EXPECT_EQ(engine::result_to_json_line(decoded_error),
            engine::result_to_json_line(errored));
}

/// Every field the codec persists is equal in `decoded` and `original`.
void expect_persisted_fields_equal(const engine::Result& decoded,
                                   const engine::Result& original) {
  EXPECT_EQ(decoded.stop_after, original.stop_after);
  EXPECT_EQ(decoded.layout, original.layout);
  EXPECT_EQ(decoded.strategy, original.strategy);
  ASSERT_EQ(decoded.error.has_value(), original.error.has_value());
  if (original.error.has_value()) {
    EXPECT_EQ(decoded.error->stage, original.error->stage);
    EXPECT_EQ(decoded.error->message, original.error->message);
  }
  EXPECT_EQ(decoded.accesses, original.accesses);
  EXPECT_EQ(decoded.layout_extent, original.layout_extent);

  EXPECT_EQ(decoded.k_tilde, original.k_tilde);
  const core::AllocationStats& got = decoded.stats;
  const core::AllocationStats& want = original.stats;
  EXPECT_EQ(got.k_tilde, want.k_tilde);
  EXPECT_EQ(got.lower_bound, want.lower_bound);
  EXPECT_EQ(got.upper_bound, want.upper_bound);
  EXPECT_EQ(got.phase1_exact, want.phase1_exact);
  EXPECT_EQ(got.search_nodes, want.search_nodes);
  EXPECT_EQ(got.merges, want.merges);
  EXPECT_EQ(got.phase2_exact, want.phase2_exact);
  EXPECT_EQ(got.phase2_proven, want.phase2_proven);
  EXPECT_EQ(got.phase2_nodes, want.phase2_nodes);
  EXPECT_EQ(got.phase2_lower_bound, want.phase2_lower_bound);
  EXPECT_EQ(got.phase2_gap, want.phase2_gap);
  EXPECT_EQ(got.phase2_table_cap_hits, want.phase2_table_cap_hits);
  EXPECT_EQ(got.phase2_windows, want.phase2_windows);
  EXPECT_EQ(got.phase2_windows_proven, want.phase2_windows_proven);
  EXPECT_EQ(got.phase2_window_widths, want.phase2_window_widths);
  EXPECT_EQ(decoded.allocation_cost, original.allocation_cost);
  EXPECT_EQ(decoded.intra_cost, original.intra_cost);
  EXPECT_EQ(decoded.wrap_cost, original.wrap_cost);
  EXPECT_EQ(decoded.allocation_text, original.allocation_text);

  ASSERT_EQ(decoded.plan.values.size(), original.plan.values.size());
  for (std::size_t i = 0; i < original.plan.values.size(); ++i) {
    EXPECT_EQ(decoded.plan.values[i].value, original.plan.values[i].value);
    EXPECT_EQ(decoded.plan.values[i].covered,
              original.plan.values[i].covered);
  }
  EXPECT_EQ(decoded.plan.covered_per_iteration,
            original.plan.covered_per_iteration);
  EXPECT_EQ(decoded.plan.residual_cost, original.plan.residual_cost);

  EXPECT_EQ(decoded.program.setup, original.program.setup);
  EXPECT_EQ(decoded.program.body, original.program.body);
  EXPECT_EQ(decoded.program.register_count, original.program.register_count);
  EXPECT_EQ(decoded.program.modify_register_count,
            original.program.modify_register_count);
  EXPECT_EQ(decoded.program.addressing, original.program.addressing);

  EXPECT_EQ(decoded.iterations, original.iterations);
  EXPECT_EQ(decoded.sim.verified, original.sim.verified);
  EXPECT_EQ(decoded.sim.failure, original.sim.failure);
  EXPECT_EQ(decoded.sim.iterations, original.sim.iterations);
  EXPECT_EQ(decoded.sim.accesses_executed, original.sim.accesses_executed);
  EXPECT_EQ(decoded.sim.setup_instructions, original.sim.setup_instructions);
  EXPECT_EQ(decoded.sim.extra_instructions, original.sim.extra_instructions);
  EXPECT_EQ(decoded.sim.address_cycles, original.sim.address_cycles);
  EXPECT_EQ(decoded.verified, original.verified);

  EXPECT_EQ(decoded.baseline_size_words, original.baseline_size_words);
  EXPECT_EQ(decoded.baseline_cycles, original.baseline_cycles);
  EXPECT_EQ(decoded.optimized_size_words, original.optimized_size_words);
  EXPECT_EQ(decoded.optimized_cycles, original.optimized_cycles);
  EXPECT_EQ(decoded.size_reduction_percent, original.size_reduction_percent);
  EXPECT_EQ(decoded.speed_reduction_percent,
            original.speed_reduction_percent);
}

TEST(StoreCodec, RoundTripRestoresEveryPersistedField) {
  // Every allocation strategy at every stop_after prefix, on a body
  // that merges, plans a modify register and uses pre-modify addressing,
  // plus a multi-window tiled solve (window widths, whole-body bound).
  engine::Engine engine(engine::Engine::Options{0});
  engine::Request base;
  base.kernel = ir::builtin_kernel("biquad");
  base.machine = agu::builtin_machine("adsp218x");
  base.machine.set_address_registers(2);
  base.machine.addressing = agu::Addressing::kPreModify;
  engine::Request tiled;
  tiled.kernel = ir::Kernel("strided", "24 stride-3 accesses");
  tiled.kernel.add_array("a", 256).set_iterations(3);
  for (int i = 0; i < 24; ++i) {
    tiled.kernel.add_access("a", (7 * i) % 40, 3);
  }
  tiled.machine = agu::builtin_machine("minimal2");
  tiled.phase2.mode = core::Phase2Options::Mode::kTiled;
  tiled.phase2.tile_width = 10;
  std::vector<engine::Request> requests;
  for (const std::string& strategy :
       engine::StrategyRegistry::builtin().allocation_names()) {
    for (std::size_t stage = 0; stage < engine::kStageCount; ++stage) {
      engine::Request request = base;
      request.strategy = strategy;
      request.stop_after = static_cast<engine::Stage>(stage);
      requests.push_back(request);
    }
  }
  for (std::size_t stage = 0; stage < engine::kStageCount; ++stage) {
    engine::Request request = tiled;
    request.stop_after = static_cast<engine::Stage>(stage);
    requests.push_back(request);
  }
  for (const engine::Request& request : requests) {
    SCOPED_TRACE(request.strategy + " to " +
                 engine::stage_name(request.stop_after));
    const engine::Result result = engine.run(request);
    ASSERT_TRUE(result.ok()) << result.error->message;
    expect_persisted_fields_equal(
        engine::decode_result(engine::encode_result(result)), result);
  }
  // The sweep reached the fields a default run leaves at zero.
  const engine::Result planned = engine.run(base);
  EXPECT_GT(planned.stats.merges, 0u);
  EXPECT_FALSE(planned.plan.values.empty());
  const engine::Result full = engine.run(requests.back());
  EXPECT_GT(full.stats.phase2_windows, 1u);
  EXPECT_FALSE(full.program.body.empty());

  // A failed simulation: its text and the simulator's own verdict.
  engine::Result failed = planned;
  failed.sim.verified = false;
  failed.sim.failure = "access 2: expected \"8\", saw 9\n";
  failed.verified = false;
  expect_persisted_fields_equal(
      engine::decode_result(engine::encode_result(failed)), failed);
}

TEST(StoreCodec, GarbageIsRejected) {
  EXPECT_THROW(engine::decode_result("not json"), Error);
  EXPECT_THROW(engine::decode_result("{}"), Error);
  EXPECT_THROW(engine::decode_result("{\"v\":999}"), Error);
}

TEST(StoreCodec, CorruptFieldsAreRejected) {
  engine::Engine engine;
  const std::string record =
      engine::encode_result(engine.run(fir_request()));
  ASSERT_NO_THROW(engine::decode_result(record));
  // Swaps the first `from` in the record for `to`; the result must not
  // decode.
  const auto rejects = [&](const std::string& from, const std::string& to) {
    const std::size_t at = record.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    std::string corrupt = record;
    corrupt.replace(at, from.size(), to);
    EXPECT_THROW(engine::decode_result(corrupt), Error) << to;
  };
  rejects("{\"v\":2,", "{\"v\":1,");
  // A CRC-valid record can still carry a negative count; it must not be
  // cast into a huge unsigned one.
  rejects("\"accesses\":2", "\"accesses\":-2");
  rejects("\"nodes\":", "\"nodes\":-1");
  rejects("\"setup_instructions\":", "\"setup_instructions\":-1");
  rejects("\"window_widths\":[]", "\"window_widths\":[-1]");
  rejects("\"search_nodes\":", "\"search_nodes\":-1");
  rejects("\"setup\":[[0,", "\"setup\":[[-1,");
  rejects("\"setup\":[[0,", "\"setup\":[[9,");
  rejects("\"addressing\":0", "\"addressing\":2");
  rejects("\"setup\":[[0,0,0,0,0,", "\"setup\":[[0,0,0,0,2,");
  rejects("\"cost\":", "\"cost\":99999999999");
  rejects("\"stages\":{\"lower\"", "\"stages\":{\"lowered\"");
  rejects(",\"detail\":{", ",\"details\":{");
}


// ------------------------------------------------ record compatibility

/// The requests behind tests/golden/store_records.tsv and
/// store_records_v1.tsv, in their order: the serve smoke fixture, a
/// multi-window tiled solve (the first solve-hard instance) and a
/// stop_after prefix.
std::vector<std::string> fixture_requests() {
  std::vector<std::string> requests;
  for (const char* file :
       {"/workloads/serve_smoke.jsonl", "/workloads/solve_hard.jsonl"}) {
    std::istringstream lines(
        read_bytes(std::string(DSPADDR_SOURCE_DIR) + file));
    for (std::string line; std::getline(lines, line);) {
      requests.push_back(line);
      if (requests.size() == 4) break;
    }
  }
  requests.push_back(
      "{\"id\":5,\"builtin\":\"fir\",\"registers\":2,\"modify_range\":1,"
      "\"stop_after\":\"allocate\"}");
  return requests;
}

struct FixtureRecord {
  std::string key;
  std::string value;
};

/// Store records as a build wrote them: one `key<TAB>value` line per
/// record, copied out of the log that `dspaddr serve --store` wrote for
/// fixture_requests(). store_records.tsv holds records of the current
/// codec version (2), store_records_v1.tsv those of version 1, which
/// current builds no longer decode. Not regenerated with the goldens:
/// the point is that records already on disk keep decoding (or heal),
/// and that new ones are written byte for byte like them. A record of
/// store_records.tsv may be rewritten alone, copied out of a fresh log,
/// only when a search change moves its answer's phase-2 node count and
/// nothing else. The keys of both files follow the fingerprint version
/// (engine/fingerprint.cpp), so that the records are still looked up;
/// the values of the v1 records never change.
std::vector<FixtureRecord> fixture_records(
    const std::string& file = "store_records.tsv") {
  std::vector<FixtureRecord> records;
  std::istringstream lines(read_bytes(std::string(DSPADDR_SOURCE_DIR) +
                                      "/tests/golden/" + file));
  for (std::string line; std::getline(lines, line);) {
    const std::size_t tab = line.find('\t');
    EXPECT_NE(tab, std::string::npos) << line;
    records.push_back({line.substr(0, tab), line.substr(tab + 1)});
  }
  return records;
}

std::vector<std::string> serve_answers(const std::vector<std::string>& lines,
                                       const std::string& store_path) {
  std::string input;
  for (const std::string& line : lines) {
    input += line + "\n";
  }
  std::istringstream in(input);
  std::ostringstream out;
  cli::ServeOptions options;
  options.store_path = store_path;
  EXPECT_EQ(cli::run_serve(in, out, options), 0);
  std::vector<std::string> answers;
  for (const std::string& answer : support::split(out.str(), '\n')) {
    if (!answer.empty()) answers.push_back(answer);
  }
  return answers;
}

TEST(StoreRecords, NewRecordsAreByteIdenticalToTheFixture) {
  const std::vector<FixtureRecord> records = fixture_records();
  const std::vector<std::string> requests = fixture_requests();
  ASSERT_EQ(records.size(), requests.size());
  const std::string path = temp_path("fixture_cold.log");
  serve_answers(requests, path);
  store::ResultStore db(store_options(path));
  EXPECT_EQ(db.stats().recovered_records, records.size());
  for (const FixtureRecord& record : records) {
    EXPECT_EQ(db.get(record.key), std::optional<std::string>(record.value))
        << record.key;
  }
}

TEST(StoreRecords, FixtureRecordsRoundTripThroughTheCodec) {
  for (const FixtureRecord& record : fixture_records()) {
    EXPECT_EQ(engine::encode_result(engine::decode_result(record.value)),
              record.value)
        << record.key;
  }
}

TEST(StoreRecords, StoreSeededWithTheFixtureAnswersLikeAColdEngine) {
  const std::vector<std::string> requests = fixture_requests();
  const std::vector<std::string> cold = serve_answers(requests, "");
  const std::string path = temp_path("fixture_seeded.log");
  {
    store::ResultStore db(store_options(path));
    for (const FixtureRecord& record : fixture_records()) {
      db.append(record.key, record.value);
    }
  }
  std::vector<std::string> lines = requests;
  lines.push_back("{\"stats\":true}");
  const std::vector<std::string> warm = serve_answers(lines, path);
  ASSERT_EQ(warm.size(), requests.size() + 1);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(warm[i], cold[i]) << "request " << i;
  }
  // Every answer came from the store: no miss, no append, no search.
  const support::JsonValue stats =
      *support::JsonValue::parse(warm.back()).find("stats");
  const support::JsonValue& store = *stats.find("store");
  EXPECT_EQ(store.find("hits")->as_int(),
            static_cast<std::int64_t>(requests.size()));
  EXPECT_EQ(store.find("misses")->as_int(), 0);
  EXPECT_EQ(store.find("appended_records")->as_int(), 0);
  EXPECT_EQ(stats.find("phase2")->find("nodes")->as_int(), 0);
}

TEST(StoreRecords, VersionOneRecordsAreRecomputedAndShadowed) {
  // A store written by a version-1 build: every record fails to decode
  // once, is recomputed with the answer a cold engine gives, and the
  // re-append shadows it with the version-2 record.
  const std::vector<std::string> requests = fixture_requests();
  const std::vector<FixtureRecord> old_records =
      fixture_records("store_records_v1.tsv");
  ASSERT_EQ(old_records.size(), requests.size());
  const std::vector<std::string> cold = serve_answers(requests, "");
  const std::string path = temp_path("fixture_v1.log");
  {
    store::ResultStore db(store_options(path));
    for (const FixtureRecord& record : old_records) {
      db.append(record.key, record.value);
    }
  }
  std::vector<std::string> lines = requests;
  lines.push_back("{\"metrics\":true}");
  const std::vector<std::string> healed = serve_answers(lines, path);
  ASSERT_EQ(healed.size(), requests.size() + 1);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(healed[i], cold[i]) << "request " << i;
  }
  const support::JsonValue metrics =
      *support::JsonValue::parse(healed.back()).find("metrics");
  const auto count = static_cast<std::int64_t>(requests.size());
  EXPECT_EQ(metrics.find("counters")
                ->find("engine.store.decode_errors")
                ->as_int(),
            count);
  EXPECT_EQ(metrics.find("store")->find("appended_records")->as_int(), count);

  store::ResultStore db(store_options(path));
  EXPECT_EQ(db.stats().records, requests.size());
  for (const FixtureRecord& record : fixture_records()) {
    EXPECT_EQ(db.get(record.key), std::optional<std::string>(record.value))
        << record.key;
  }
}

}  // namespace
}  // namespace dspaddr
