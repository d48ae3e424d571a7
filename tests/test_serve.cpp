// The JSON-lines serve loop: protocol, determinism, cache statistics,
// and resilience to malformed requests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "cli/serve.hpp"
#include "support/json.hpp"
#include "support/strings.hpp"

namespace dspaddr {
namespace {

using support::JsonValue;

std::vector<std::string> serve_lines(const std::string& input,
                                     cli::ServeOptions options = {}) {
  std::istringstream in(input);
  std::ostringstream out;
  EXPECT_EQ(cli::run_serve(in, out, options), 0);
  std::vector<std::string> lines;
  for (const std::string& line : support::split(out.str(), '\n')) {
    if (!line.empty()) {
      lines.push_back(line);
    }
  }
  return lines;
}

TEST(Serve, AnswersOneLinePerRequest) {
  const std::vector<std::string> lines = serve_lines(
      "{\"id\":1,\"builtin\":\"fir\",\"machine\":\"wide4\"}\n"
      "\n"
      "{\"id\":2,\"builtin\":\"biquad\",\"registers\":2}\n");
  ASSERT_EQ(lines.size(), 2u);
  const JsonValue first = JsonValue::parse(lines[0]);
  EXPECT_EQ(first.find("id")->as_int(), 1);
  EXPECT_EQ(first.find("kernel")->find("name")->as_string(), "fir");
  EXPECT_EQ(first.find("error"), nullptr);
  EXPECT_TRUE(first.find("stages")
                  ->find("simulate")
                  ->find("verified")
                  ->as_bool());
  const JsonValue second = JsonValue::parse(lines[1]);
  EXPECT_EQ(second.find("id")->as_int(), 2);
  EXPECT_EQ(second.find("machine")->find("registers")->as_int(), 2);
}

TEST(Serve, IdEchoLeadsTheResponseForEveryJsonType) {
  // Full response lines, byte for byte: the "id" echo, when present,
  // is the first member and is written exactly as the request's value
  // re-dumps; the members after it are the --format=json object's.
  const std::string fields =
      R"("builtin":"fir","registers":2,"stop_after":"lower"})";
  const std::string members =
      R"("kernel":{"name":"fir","arrays":2,"accesses":2,"iterations":16,)"
      R"("data_ops":1},"machine":{"name":"custom","description":)"
      R"("request-defined AGU","classes":[{"name":"ar","kind":"address",)"
      R"("count":2}],"modify_lo":-1,"modify_hi":1,"inc":[],"dec":[],)"
      R"("addressing":"post","registers":2,"modify_registers":0,)"
      R"("modify_range":1},"layout":"contiguous","strategy":"two-phase",)"
      R"("stop_after":"lower","stages":{"lower":{"accesses":2,)"
      R"("layout_extent":80}}})";
  const std::vector<std::string> ids = {
      "",
      R"("id":7,)",
      R"("id":"a\"b\\c\u00e9\n",)",
      R"("id":{"k":[1,-2.5e-7,true],"s":"x"},)",
      R"("id":null,)",
  };
  std::string input;
  for (const std::string& id : ids) {
    input += "{" + id + fields + "\n";
  }
  input += R"({"id":[3],"builtin":"nope"})";
  const std::vector<std::string> lines = serve_lines(input);
  ASSERT_EQ(lines.size(), 6u);
  EXPECT_EQ(lines[0], "{" + members);
  EXPECT_EQ(lines[1], R"({"id":7,)" + members);
  EXPECT_EQ(lines[2], "{\"id\":\"a\\\"b\\\\c\xC3\xA9\\n\"," + members);
  EXPECT_EQ(lines[3], R"({"id":{"k":[1,-2.5e-07,true],"s":"x"},)" + members);
  EXPECT_EQ(lines[4], R"({"id":null,)" + members);
  EXPECT_EQ(lines[5],
            R"({"id":[3],"error":{"stage":"request","message":)"
            R"("builtin_kernel: unknown kernel 'nope'"}})");
}

TEST(Serve, RepeatedFixtureIsByteIdenticalAndHitsTheCache) {
  // The CI smoke's contract, in-process: the same fixture piped twice
  // through one serve session answers identically both times, and the
  // second pass runs from the cache.
  const std::string fixture =
      "{\"id\":1,\"builtin\":\"fir\",\"machine\":\"wide4\"}\n"
      "{\"id\":2,\"builtin\":\"biquad\",\"machine\":\"minimal2\"}\n"
      "{\"id\":3,\"builtin\":\"matmul\",\"registers\":2,"
      "\"stop_after\":\"plan\"}\n";
  const std::vector<std::string> lines =
      serve_lines(fixture + fixture + "{\"stats\":true}\n");
  ASSERT_EQ(lines.size(), 7u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(lines[i], lines[i + 3]) << "request " << (i + 1);
  }
  const JsonValue stats = JsonValue::parse(lines[6]);
  EXPECT_EQ(stats.find("stats")->find("hits")->as_int(), 3);
  EXPECT_EQ(stats.find("stats")->find("misses")->as_int(), 3);
}

TEST(Serve, StrategyAndLayoutFieldsSelectThePipeline) {
  const std::vector<std::string> lines = serve_lines(
      "{\"id\":1,\"builtin\":\"paper_example\",\"registers\":2,"
      "\"strategy\":\"naive\",\"layout\":\"declaration-padded\","
      "\"stop_after\":\"allocate\"}\n"
      "{\"id\":2,\"builtin\":\"paper_example\",\"registers\":2,"
      "\"stop_after\":\"allocate\"}\n"
      "{\"id\":3,\"builtin\":\"fir\",\"strategy\":\"bogus\"}\n"
      "{\"id\":4,\"builtin\":\"fir\",\"layout\":\"bogus\"}\n");
  ASSERT_EQ(lines.size(), 4u);
  const JsonValue naive = JsonValue::parse(lines[0]);
  EXPECT_EQ(naive.find("strategy")->as_string(), "naive");
  EXPECT_EQ(naive.find("layout")->as_string(), "declaration-padded");
  EXPECT_EQ(naive.find("stages")->find("allocate")->find("cost")->as_int(),
            4);
  const JsonValue two_phase = JsonValue::parse(lines[1]);
  EXPECT_EQ(two_phase.find("strategy")->as_string(), "two-phase");
  EXPECT_EQ(
      two_phase.find("stages")->find("allocate")->find("cost")->as_int(),
      2);
  // Unknown names are request errors answered in-band.
  for (int i = 2; i < 4; ++i) {
    const JsonValue error = JsonValue::parse(lines[i]);
    ASSERT_NE(error.find("error"), nullptr) << lines[i];
    EXPECT_EQ(error.find("error")->find("stage")->as_string(), "request");
  }
}

TEST(Serve, ClearCacheControlLineBoundsTheSession) {
  const std::vector<std::string> lines = serve_lines(
      "{\"id\":1,\"builtin\":\"fir\",\"machine\":\"wide4\"}\n"
      "{\"id\":2,\"stats\":true}\n"
      "{\"id\":3,\"clear_cache\":true}\n"
      "{\"id\":4,\"stats\":true}\n"
      "{\"id\":5,\"builtin\":\"fir\",\"machine\":\"wide4\"}\n"
      "{\"id\":6,\"clear_cache\":true,\"builtin\":\"fir\"}\n"
      "{\"id\":7,\"clear_cache\":false,\"builtin\":\"fir\","
      "\"machine\":\"wide4\"}\n");
  ASSERT_EQ(lines.size(), 7u);
  const JsonValue before = JsonValue::parse(lines[1]);
  EXPECT_EQ(before.find("stats")->find("entries")->as_int(), 1);
  const JsonValue cleared = JsonValue::parse(lines[2]);
  EXPECT_EQ(cleared.find("id")->as_int(), 3);
  EXPECT_TRUE(cleared.find("cleared")->as_bool());
  // The drop count says how much the control line actually freed.
  EXPECT_EQ(cleared.find("dropped")->as_int(), 1);
  const JsonValue after = JsonValue::parse(lines[3]);
  EXPECT_EQ(after.find("stats")->find("entries")->as_int(), 0);
  // The rerun recomputes (a miss, not a hit) and answers identically
  // (modulo the id echo).
  const JsonValue rerun = JsonValue::parse(lines[4]);
  EXPECT_EQ(rerun.find("error"), nullptr);
  EXPECT_EQ(JsonValue::parse(lines[0]).find("stages")->dump(),
            rerun.find("stages")->dump());
  // clear_cache is a control line: it cannot carry request fields...
  const JsonValue mixed = JsonValue::parse(lines[5]);
  ASSERT_NE(mixed.find("error"), nullptr);
  // ...but a false value means "not a control line" and the request
  // fields run normally.
  const JsonValue not_control = JsonValue::parse(lines[6]);
  EXPECT_EQ(not_control.find("error"), nullptr) << lines[6];
  EXPECT_EQ(not_control.find("kernel")->find("name")->as_string(), "fir");
}

TEST(Serve, InlineKernelAndStopAfter) {
  const std::vector<std::string> lines = serve_lines(
      R"({"kernel":{"name":"tiny","iterations":4,)"
      R"("arrays":[{"name":"A","size":8}],)"
      R"("accesses":[{"array":"A","offset":0},{"array":"A","offset":2}]},)"
      R"("registers":1,"stop_after":"allocate"})"
      "\n");
  ASSERT_EQ(lines.size(), 1u);
  const JsonValue response = JsonValue::parse(lines[0]);
  EXPECT_EQ(response.find("kernel")->find("name")->as_string(), "tiny");
  EXPECT_EQ(response.find("stop_after")->as_string(), "allocate");
  EXPECT_NE(response.find("stages")->find("allocate"), nullptr);
  EXPECT_EQ(response.find("stages")->find("plan"), nullptr);
}

TEST(Serve, KernelFileRequest) {
  const std::string path =
      std::string(DSPADDR_SOURCE_DIR) + "/workloads/paper_example.c";
  const std::vector<std::string> lines = serve_lines(
      "{\"kernel_file\":\"" + path + "\",\"registers\":2}\n");
  ASSERT_EQ(lines.size(), 1u);
  const JsonValue response = JsonValue::parse(lines[0]);
  EXPECT_EQ(response.find("kernel")->find("name")->as_string(),
            "paper_example");
  EXPECT_EQ(response.find("stages")
                ->find("allocate")
                ->find("cost")
                ->as_int(),
            2);
}

TEST(Serve, MachineFileRequestLoadsAndOverrides) {
  const std::string path = std::string(DSPADDR_SOURCE_DIR) +
                           "/workloads/machines/dsp56300.machine";
  const std::vector<std::string> lines = serve_lines(
      "{\"id\":1,\"builtin\":\"fir\",\"machine_file\":\"" + path + "\"}\n"
      "{\"id\":2,\"builtin\":\"fir\",\"machine_file\":\"" + path +
      "\",\"registers\":2}\n"
      "{\"id\":3,\"builtin\":\"fir\",\"machine_file\":\"" + path +
      "\",\"machine\":\"minimal2\"}\n");
  ASSERT_EQ(lines.size(), 3u);
  const JsonValue loaded = JsonValue::parse(lines[0]);
  EXPECT_EQ(loaded.find("machine")->find("name")->as_string(), "dsp56300");
  EXPECT_EQ(loaded.find("machine")->find("modify_lo")->as_int(), -1);
  EXPECT_EQ(loaded.find("machine")->find("modify_hi")->as_int(), 3);
  const JsonValue overridden = JsonValue::parse(lines[1]);
  EXPECT_EQ(overridden.find("machine")->find("registers")->as_int(), 2);
  EXPECT_EQ(overridden.find("machine")->find("modify_hi")->as_int(), 3)
      << "a K override must not flatten the asymmetric window";
  // A file layers over the catalog; "machine" can still pick a builtin.
  const JsonValue builtin = JsonValue::parse(lines[2]);
  EXPECT_EQ(builtin.find("machine")->find("name")->as_string(), "minimal2");
}

TEST(Serve, InlineMachineSpecRequest) {
  const std::vector<std::string> lines = serve_lines(
      "{\"id\":1,\"builtin\":\"fir\",\"machine_spec\":"
      "{\"registers\":4,\"modify_lo\":0,\"modify_hi\":1}}\n"
      "{\"id\":2,\"builtin\":\"fir\",\"machine_spec\":"
      "{\"name\":\"inline\",\"classes\":[{\"name\":\"r\","
      "\"kind\":\"address\",\"count\":3}]}}\n"
      "{\"id\":3,\"builtin\":\"fir\",\"machine_spec\":{\"wheels\":3}}\n"
      "{\"id\":4,\"builtin\":\"fir\",\"machine\":\"wide4\","
      "\"machine_spec\":{\"registers\":4}}\n"
      "{\"id\":5,\"builtin\":\"fir\",\"machine\":\"pdp11\"}\n");
  ASSERT_EQ(lines.size(), 5u);
  const JsonValue flat = JsonValue::parse(lines[0]);
  EXPECT_EQ(flat.find("machine")->find("name")->as_string(), "custom");
  EXPECT_EQ(flat.find("machine")->find("modify_lo")->as_int(), 0);
  const JsonValue full = JsonValue::parse(lines[1]);
  EXPECT_EQ(full.find("machine")->find("name")->as_string(), "inline");
  EXPECT_EQ(full.find("machine")->find("registers")->as_int(), 3);
  // Unknown spec fields, spec+name conflicts and unknown machine names
  // are all in-band request errors; the loop keeps going.
  for (int i = 2; i < 5; ++i) {
    const JsonValue error = JsonValue::parse(lines[i]);
    ASSERT_NE(error.find("error"), nullptr) << lines[i];
    EXPECT_EQ(error.find("error")->find("stage")->as_string(), "request");
  }
  EXPECT_NE(JsonValue::parse(lines[4])
                .find("error")
                ->find("message")
                ->as_string()
                .find("unknown machine 'pdp11'"),
            std::string::npos);
}

TEST(Serve, BadRequestsAreAnsweredInBandAndTheLoopContinues) {
  const std::vector<std::string> lines = serve_lines(
      "this is not json\n"
      "{\"id\":7,\"builtin\":\"fir\",\"bogus\":1}\n"
      "{\"id\":8}\n"
      "{\"id\":9,\"builtin\":\"nope\"}\n"
      "{\"id\":10,\"builtin\":\"fir\",\"stop_after\":\"nope\"}\n"
      "{\"id\":11,\"builtin\":\"fir\"}\n");
  ASSERT_EQ(lines.size(), 6u);
  for (int i = 0; i < 5; ++i) {
    const JsonValue response = JsonValue::parse(lines[i]);
    const JsonValue* error = response.find("error");
    ASSERT_NE(error, nullptr) << lines[i];
    EXPECT_EQ(error->find("stage")->as_string(), "request");
    EXPECT_FALSE(error->find("message")->as_string().empty());
  }
  // The malformed line could not echo an id; the others do.
  EXPECT_EQ(JsonValue::parse(lines[0]).find("id"), nullptr);
  EXPECT_EQ(JsonValue::parse(lines[1]).find("id")->as_int(), 7);
  // The healthy request after all the bad ones still succeeds.
  const JsonValue last = JsonValue::parse(lines[5]);
  EXPECT_EQ(last.find("id")->as_int(), 11);
  EXPECT_EQ(last.find("error"), nullptr);
}

TEST(Serve, RejectsOutOfRangeOverrides) {
  const std::vector<std::string> lines = serve_lines(
      "{\"id\":1,\"builtin\":\"fir\",\"registers\":0}\n"
      // A service must bound the per-request simulation work — via the
      // override or via the kernel's own iteration count.
      "{\"id\":2,\"builtin\":\"fir\",\"iterations\":2000000000}\n"
      "{\"id\":3,\"kernel\":{\"iterations\":4000000000000,"
      "\"arrays\":[{\"name\":\"A\",\"size\":4}],"
      "\"accesses\":[{\"array\":\"A\"}]}}\n");
  ASSERT_EQ(lines.size(), 3u);
  for (const std::string& line : lines) {
    const JsonValue response = JsonValue::parse(line);
    const JsonValue* error = response.find("error");
    ASSERT_NE(error, nullptr) << line;
    EXPECT_EQ(error->find("stage")->as_string(), "request");
  }
}

TEST(Serve, RejectsOffsetsAndStridesBeyondTheKernelBound) {
  // Lowering and the cost model add offsets and strides in int64, so a
  // kernel bounds both by ir::kMaxMagnitude (2^31); a value at the
  // bound still answers.
  const std::vector<std::string> lines = serve_lines(
      "{\"kernel\":{\"name\":\"z\",\"iterations\":1000,"
      "\"arrays\":[{\"name\":\"a\",\"size\":4}],"
      "\"accesses\":[{\"array\":\"a\",\"offset\":9223372036854775807,"
      "\"stride\":9223372036854775807}]},\"registers\":1}\n"
      "{\"kernel\":{\"name\":\"z\",\"iterations\":1000,"
      "\"arrays\":[{\"name\":\"a\",\"size\":4}],"
      "\"accesses\":[{\"array\":\"a\",\"offset\":1,"
      "\"stride\":-2147483649}]},\"registers\":1}\n"
      "{\"kernel\":{\"name\":\"z\",\"iterations\":1000,"
      "\"arrays\":[{\"name\":\"a\",\"size\":4}],"
      "\"accesses\":[{\"array\":\"a\",\"offset\":2147483648,"
      "\"stride\":-2147483648},{\"array\":\"a\","
      "\"offset\":-2147483648,\"stride\":2147483648}]},"
      "\"registers\":1}\n");
  ASSERT_EQ(lines.size(), 3u);
  const char* const fields[] = {"offset", "stride"};
  for (int i = 0; i < 2; ++i) {
    const JsonValue response = JsonValue::parse(lines[i]);
    const JsonValue* error = response.find("error");
    ASSERT_NE(error, nullptr) << lines[i];
    EXPECT_EQ(error->find("stage")->as_string(), "request");
    EXPECT_NE(error->find("message")->as_string().find(fields[i]),
              std::string::npos);
  }
  const JsonValue at_bound = JsonValue::parse(lines[2]);
  ASSERT_EQ(at_bound.find("error"), nullptr) << lines[2];
  EXPECT_TRUE(at_bound.find("stages")
                  ->find("simulate")
                  ->find("verified")
                  ->as_bool());
}

TEST(Serve, RejectsPhase2JobsAboveTheCap) {
  // Every phase-2 job is a thread, so the field is capped at a fixed
  // 64. The request stops after lower: it is rejected while it is
  // parsed, and no solve ever sees the value.
  const std::vector<std::string> lines = serve_lines(
      "{\"id\":1,\"builtin\":\"fir\",\"phase2_jobs\":1000000,"
      "\"stop_after\":\"lower\"}\n"
      "{\"id\":2,\"builtin\":\"fir\",\"phase2_jobs\":65,"
      "\"stop_after\":\"lower\"}\n");
  ASSERT_EQ(lines.size(), 2u);
  for (const std::string& line : lines) {
    const JsonValue response = JsonValue::parse(line);
    const JsonValue* error = response.find("error");
    ASSERT_NE(error, nullptr) << line;
    EXPECT_EQ(error->find("stage")->as_string(), "request");
    EXPECT_NE(error->find("message")->as_string().find("phase2_jobs"),
              std::string::npos);
  }
}

TEST(Serve, HugeKernelIterationsAreFineForPipelinePrefixes) {
  // The cap guards the simulate stage only; an allocation-only request
  // on the same kernel is cheap and must go through.
  const std::vector<std::string> lines = serve_lines(
      "{\"kernel\":{\"iterations\":4000000000000,"
      "\"arrays\":[{\"name\":\"A\",\"size\":4}],"
      "\"accesses\":[{\"array\":\"A\"}]},"
      "\"stop_after\":\"allocate\"}\n");
  ASSERT_EQ(lines.size(), 1u);
  const JsonValue response = JsonValue::parse(lines[0]);
  EXPECT_EQ(response.find("error"), nullptr) << lines[0];
  EXPECT_NE(response.find("stages")->find("allocate"), nullptr);
}

TEST(Serve, StatsProbeCarriesNothingElse) {
  const std::vector<std::string> lines = serve_lines(
      "{\"id\":1,\"stats\":true,\"builtin\":\"fir\"}\n"
      "{\"stats\":true,\"bogus\":1}\n"
      "{\"id\":3,\"stats\":true}\n");
  ASSERT_EQ(lines.size(), 3u);
  // A kernel source alongside a stats probe must not be silently
  // dropped; an unknown key fails even on the stats path.
  EXPECT_NE(JsonValue::parse(lines[0]).find("error"), nullptr);
  EXPECT_NE(JsonValue::parse(lines[1]).find("error"), nullptr);
  const JsonValue clean = JsonValue::parse(lines[2]);
  EXPECT_EQ(clean.find("error"), nullptr);
  EXPECT_NE(clean.find("stats"), nullptr);
  EXPECT_EQ(clean.find("id")->as_int(), 3);
}

TEST(Serve, StatsProbeReportsEvictionsEntriesCapacityAndShards) {
  cli::ServeOptions options;
  // Sequential on purpose: with capacity 1, concurrent workers could
  // legitimately coalesce the repeated fir onto its first flight
  // before biquad evicts it — eviction counters are only
  // request-order-deterministic when nothing races the eviction.
  options.jobs = 1;
  options.cache_capacity = 1;  // one shard, so every new kernel evicts
  const std::vector<std::string> lines = serve_lines(
      "{\"builtin\":\"fir\"}\n"
      "{\"builtin\":\"biquad\"}\n"
      "{\"builtin\":\"fir\"}\n"
      "{\"stats\":true}\n",
      options);
  ASSERT_EQ(lines.size(), 4u);
  const JsonValue response = JsonValue::parse(lines[3]);
  const JsonValue* stats = response.find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->find("hits")->as_int(), 0);
  EXPECT_EQ(stats->find("misses")->as_int(), 3);
  EXPECT_EQ(stats->find("evictions")->as_int(), 2);
  EXPECT_EQ(stats->find("entries")->as_int(), 1);
  EXPECT_EQ(stats->find("capacity")->as_int(), 1);
  ASSERT_NE(stats->find("shards"), nullptr);
  ASSERT_EQ(stats->find("shards")->items().size(), 1u);
  EXPECT_EQ(stats->find("shards")->items()[0].find("evictions")->as_int(),
            2);
}

TEST(Serve, MaxIterationsOptionTightensThePerRequestCap) {
  cli::ServeOptions options;
  options.max_iterations = 10;
  const std::vector<std::string> lines = serve_lines(
      "{\"id\":1,\"builtin\":\"fir\"}\n"
      "{\"id\":2,\"builtin\":\"fir\",\"iterations\":10,"
      "\"stop_after\":\"simulate\"}\n",
      options);
  ASSERT_EQ(lines.size(), 2u);
  // fir's own iteration count (16) now exceeds the cap: rejected
  // in-band; an explicit override at the cap passes.
  const JsonValue rejected = JsonValue::parse(lines[0]);
  ASSERT_NE(rejected.find("error"), nullptr);
  EXPECT_EQ(rejected.find("error")->find("stage")->as_string(), "request");
  EXPECT_NE(
      rejected.find("error")->find("message")->as_string().find(
          "--max-iterations"),
      std::string::npos);
  EXPECT_EQ(JsonValue::parse(lines[1]).find("error"), nullptr) << lines[1];
}

TEST(Serve, JobsLevelsAnswerAShuffledWorkloadByteIdentically) {
  // 200 requests — duplicates, pipeline prefixes, in-band errors and
  // interspersed stats probes — shuffled with a fixed seed, served at
  // --jobs 1 and --jobs 8: every output line must match, including the
  // cache counters (single-flight misses + pipeline draining before
  // control lines make them interleaving-independent).
  std::vector<std::string> pool;
  for (const char* kernel : {"fir", "biquad", "matmul", "dotprod"}) {
    for (const int registers : {1, 2, 4}) {
      for (const char* stop : {"allocate", "plan"}) {
        pool.push_back(std::string("{\"builtin\":\"") + kernel +
                       "\",\"registers\":" + std::to_string(registers) +
                       ",\"stop_after\":\"" + stop + "\"}");
      }
    }
  }
  pool.push_back("{\"builtin\":\"nope\"}");       // in-band error
  pool.push_back("{\"registers\":2}");            // no kernel source
  std::vector<std::string> requests;
  for (std::size_t i = 0; requests.size() < 200; ++i) {
    requests.push_back(pool[i % pool.size()]);
  }
  std::mt19937 rng(20260729);
  std::shuffle(requests.begin(), requests.end(), rng);
  std::string input;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    input += requests[i] + "\n";
    if ((i + 1) % 50 == 0) {
      input += "{\"stats\":true}\n";
    }
  }

  cli::ServeOptions serial;
  serial.jobs = 1;
  cli::ServeOptions parallel;
  parallel.jobs = 8;
  const std::vector<std::string> expected = serve_lines(input, serial);
  const std::vector<std::string> actual = serve_lines(input, parallel);
  ASSERT_EQ(expected.size(), 204u);
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i]) << "line " << i;
  }
}

TEST(Serve, TiledPhase2AndJobsKnob) {
  const std::vector<std::string> lines = serve_lines(
      "{\"id\":1,\"builtin\":\"biquad\",\"registers\":2,"
      "\"phase2\":\"tiled\",\"phase2_jobs\":2}\n"
      "{\"id\":2,\"builtin\":\"biquad\",\"registers\":2,"
      "\"phase2\":\"exact\"}\n");
  ASSERT_EQ(lines.size(), 2u);
  const JsonValue tiled = JsonValue::parse(lines[0]);
  EXPECT_EQ(tiled.find("error"), nullptr) << lines[0];
  const JsonValue* phase2 =
      tiled.find("stages")->find("allocate")->find("phase2");
  ASSERT_NE(phase2, nullptr) << lines[0];
  EXPECT_GE(phase2->find("windows")->as_int(), 1);
  EXPECT_LE(phase2->find("windows_proven")->as_int(),
            phase2->find("windows")->as_int());
  ASSERT_NE(phase2->find("table_cap_hits"), nullptr) << lines[0];
  ASSERT_NE(phase2->find("subtree_tasks"), nullptr) << lines[0];
  // The same request at a different jobs level answers with the same
  // cost — `phase2_jobs` must never leak into the result.
  const std::vector<std::string> serial = serve_lines(
      "{\"id\":1,\"builtin\":\"biquad\",\"registers\":2,"
      "\"phase2\":\"tiled\",\"phase2_jobs\":1}\n");
  ASSERT_EQ(serial.size(), 1u);
  EXPECT_EQ(JsonValue::parse(serial[0])
                .find("stages")
                ->find("allocate")
                ->find("cost")
                ->as_int(),
            tiled.find("stages")->find("allocate")->find("cost")->as_int());
}

TEST(Serve, RejectsNonPositivePhase2Jobs) {
  const std::vector<std::string> lines = serve_lines(
      "{\"id\":1,\"builtin\":\"fir\",\"phase2_jobs\":0}\n"
      "{\"id\":2,\"builtin\":\"fir\"}\n");
  ASSERT_EQ(lines.size(), 2u);
  const JsonValue error = JsonValue::parse(lines[0]);
  ASSERT_NE(error.find("error"), nullptr) << lines[0];
  EXPECT_EQ(error.find("error")->find("stage")->as_string(), "request");
  // The loop survives the bad request.
  EXPECT_EQ(JsonValue::parse(lines[1]).find("error"), nullptr);
}

TEST(Serve, RejectsTheRemovedStealGrainField) {
  // The parallel solver's steal grain is a constant; the field is
  // unknown like any typo.
  const std::vector<std::string> lines = serve_lines(
      "{\"id\":1,\"builtin\":\"fir\",\"phase2_steal_grain\":4}\n");
  ASSERT_EQ(lines.size(), 1u);
  const JsonValue error = JsonValue::parse(lines[0]);
  ASSERT_NE(error.find("error"), nullptr) << lines[0];
  EXPECT_EQ(error.find("error")->find("stage")->as_string(), "request");
}

TEST(Serve, CacheCapacityZeroDisablesHits) {
  cli::ServeOptions options;
  options.cache_capacity = 0;
  const std::vector<std::string> lines = serve_lines(
      "{\"builtin\":\"fir\"}\n{\"builtin\":\"fir\"}\n{\"stats\":true}\n",
      options);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], lines[1]);
  const JsonValue stats = JsonValue::parse(lines[2]);
  EXPECT_EQ(stats.find("stats")->find("hits")->as_int(), 0);
  EXPECT_EQ(stats.find("stats")->find("capacity")->as_int(), 0);
}

TEST(Serve, StatsCarriesPhase2TotalsDeterministicallyAcrossJobs) {
  // The aggregate phase-2 block only counts *computed* runs, and
  // single-flight makes each unique fingerprint compute exactly once —
  // so the whole stats line is byte-identical at every jobs level.
  const std::string input =
      "{\"builtin\":\"fir\",\"registers\":2,\"phase2\":\"exact\","
      "\"stop_after\":\"allocate\"}\n"
      "{\"builtin\":\"fir\",\"registers\":2,\"phase2\":\"exact\","
      "\"stop_after\":\"allocate\"}\n"
      "{\"builtin\":\"biquad\",\"registers\":2,\"phase2\":\"tiled\","
      "\"stop_after\":\"allocate\"}\n"
      "{\"stats\":true}\n";
  cli::ServeOptions serial;
  serial.jobs = 1;
  cli::ServeOptions parallel;
  parallel.jobs = 8;
  const std::vector<std::string> expected = serve_lines(input, serial);
  const std::vector<std::string> actual = serve_lines(input, parallel);
  ASSERT_EQ(expected.size(), 4u);
  ASSERT_EQ(actual.size(), 4u);
  EXPECT_EQ(actual[3], expected[3]);
  const JsonValue stats = JsonValue::parse(expected[3]);
  const JsonValue* phase2 = stats.find("stats")->find("phase2");
  ASSERT_NE(phase2, nullptr) << expected[3];
  // Two exact-solver kernels computed once each (the repeat is a hit).
  EXPECT_GE(phase2->find("proven")->as_int(), 1);
  EXPECT_GE(phase2->find("nodes")->as_int(), 1);
  EXPECT_GE(phase2->find("windows")->as_int(), 1);
  ASSERT_NE(phase2->find("windows_proven"), nullptr);
  ASSERT_NE(phase2->find("subtree_tasks"), nullptr);
  // The legacy grep contract: "hits" is still the first stats member.
  EXPECT_NE(expected[3].find("\"stats\":{\"hits\":"), std::string::npos);
}

TEST(Serve, RestartOverSameStoreAnswersByteIdenticallyFromDisk) {
  // The acceptance contract: a serve restarted against the same
  // --store file answers previously-seen requests from the persistent
  // tier — byte-identical to the cold boot, with zero phase-2 nodes
  // searched on the second boot.
  const std::string path =
      testing::TempDir() + "dspaddr_serve_restart.log";
  std::remove(path.c_str());
  const std::string fixture =
      "{\"id\":1,\"builtin\":\"fir\",\"machine\":\"wide4\"}\n"
      "{\"id\":2,\"builtin\":\"biquad\",\"registers\":2,"
      "\"phase2\":\"exact\"}\n"
      "{\"id\":3,\"builtin\":\"matmul\",\"stop_after\":\"plan\"}\n";
  cli::ServeOptions options;
  options.store_path = path;
  const std::vector<std::string> first =
      serve_lines(fixture + "{\"stats\":true}\n", options);
  ASSERT_EQ(first.size(), 4u);
  const JsonValue cold_stats = JsonValue::parse(first[3]);
  EXPECT_GE(cold_stats.find("stats")->find("phase2")->find("nodes")->as_int(),
            1);
  ASSERT_NE(cold_stats.find("stats")->find("store"), nullptr);

  const std::vector<std::string> second =
      serve_lines(fixture + "{\"stats\":true}\n", options);
  ASSERT_EQ(second.size(), 4u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(second[i], first[i]) << "request " << (i + 1);
  }
  const JsonValue warm_stats = JsonValue::parse(second[3]);
  const JsonValue* store = warm_stats.find("stats")->find("store");
  ASSERT_NE(store, nullptr) << second[3];
  EXPECT_EQ(store->find("hits")->as_int(), 3);
  EXPECT_EQ(store->find("recovered_records")->as_int(), 3);
  EXPECT_EQ(store->find("truncated_bytes")->as_int(), 0);
  // Nothing was searched on the warm boot.
  const JsonValue* phase2 = warm_stats.find("stats")->find("phase2");
  EXPECT_EQ(phase2->find("nodes")->as_int(), 0);
  EXPECT_EQ(phase2->find("proven")->as_int(), 0);
  std::remove(path.c_str());
}

TEST(Serve, ClearCacheLeavesTheStoreTier) {
  const std::string path = testing::TempDir() + "dspaddr_serve_clear.log";
  std::remove(path.c_str());
  cli::ServeOptions options;
  options.store_path = path;
  const std::vector<std::string> lines = serve_lines(
      "{\"id\":1,\"builtin\":\"fir\"}\n"
      "{\"id\":2,\"clear_cache\":true}\n"
      "{\"id\":3,\"builtin\":\"fir\"}\n"
      "{\"id\":4,\"stats\":true}\n",
      options);
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(JsonValue::parse(lines[0]).find("stages")->dump(),
            JsonValue::parse(lines[2]).find("stages")->dump());
  const JsonValue stats = JsonValue::parse(lines[3]);
  // The rerun after clear_cache was answered from disk, not recomputed.
  EXPECT_EQ(stats.find("stats")->find("store")->find("hits")->as_int(), 1);
  EXPECT_EQ(stats.find("stats")->find("phase2")->find("proven")->as_int(),
            1);
  std::remove(path.c_str());
}

TEST(Serve, MetricsControlLineReportsTheRegistry) {
  const std::vector<std::string> lines = serve_lines(
      "{\"builtin\":\"fir\",\"machine\":\"wide4\"}\n"
      "{\"builtin\":\"fir\",\"machine\":\"wide4\"}\n"
      "{\"id\":9,\"metrics\":true}\n"
      "{\"metrics\":true,\"builtin\":\"fir\"}\n"
      "{\"metrics\":false,\"builtin\":\"fir\"}\n");
  ASSERT_EQ(lines.size(), 5u);
  const JsonValue response = JsonValue::parse(lines[2]);
  EXPECT_EQ(response.find("id")->as_int(), 9);
  const JsonValue* metrics = response.find("metrics");
  ASSERT_NE(metrics, nullptr) << lines[2];
  // Schema: engine instruments, serve transport instruments, cache
  // tier counters — all present with the documented names.
  const JsonValue* counters = metrics->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_NE(counters->find("engine.phase2.proven"), nullptr);
  EXPECT_EQ(counters->find("serve.requests")->as_int(), 2);
  const JsonValue* histograms = metrics->find("histograms");
  ASSERT_NE(histograms, nullptr);
  for (const char* name :
       {"engine.stage_us.lower", "engine.stage_us.allocate",
        "engine.stage_us.simulate", "engine.request_us.cold",
        "engine.request_us.ram_hit", "engine.request_us.store_hit"}) {
    const JsonValue* histogram = histograms->find(name);
    ASSERT_NE(histogram, nullptr) << name;
    ASSERT_NE(histogram->find("p99_us"), nullptr) << name;
  }
  EXPECT_EQ(histograms->find("engine.request_us.cold")->find("count")
                ->as_int(),
            1);
  EXPECT_EQ(histograms->find("engine.request_us.ram_hit")->find("count")
                ->as_int(),
            1);
  const JsonValue* gauges = metrics->find("gauges");
  ASSERT_NE(gauges, nullptr);
  ASSERT_NE(gauges->find("serve.inflight"), nullptr);
  EXPECT_GE(gauges->find("serve.inflight")->find("max")->as_int(), 1);
  const JsonValue* cache = metrics->find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->find("hits")->as_int(), 1);
  // No store attached: the store block is absent, not null.
  EXPECT_EQ(metrics->find("store"), nullptr);
  // metrics is a control line: extra fields are in-band errors, and a
  // false value means "not a control line".
  EXPECT_NE(JsonValue::parse(lines[3]).find("error"), nullptr);
  EXPECT_EQ(JsonValue::parse(lines[4]).find("error"), nullptr);
  EXPECT_NE(JsonValue::parse(lines[4]).find("stages"), nullptr);
}

TEST(Serve, MetricsCsvIsWrittenOnExit) {
  const std::string csv_path =
      testing::TempDir() + "dspaddr_serve_metrics.csv";
  std::remove(csv_path.c_str());
  cli::ServeOptions options;
  options.metrics_csv = csv_path;
  serve_lines("{\"builtin\":\"fir\"}\n{\"builtin\":\"fir\"}\n", options);
  std::ifstream csv(csv_path);
  ASSERT_TRUE(csv.good()) << csv_path;
  std::string header;
  std::getline(csv, header);
  EXPECT_EQ(header,
            "kind,name,count,sum_us,max_us,p50_us,p95_us,p99_us,value,max");
  std::string body((std::istreambuf_iterator<char>(csv)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(body.find("histogram,engine.request_us.cold,"),
            std::string::npos);
  EXPECT_NE(body.find("counter,serve.requests,"), std::string::npos);
  EXPECT_NE(body.find("counter,cache.hits,"), std::string::npos);
  std::remove(csv_path.c_str());
}

TEST(Serve, AutoStrategyRacesAndLearnsAcrossRequests) {
  // One worker, so the requests are strictly sequential: the first
  // auto request runs a full race, the identical second one
  // short-circuits to the learned winner and answers byte-identically.
  cli::ServeOptions options;
  options.jobs = 1;
  const std::vector<std::string> lines = serve_lines(
      "{\"id\":1,\"builtin\":\"biquad\",\"registers\":2,"
      "\"strategy\":\"auto\",\"layout\":\"auto\","
      "\"stop_after\":\"plan\"}\n"
      "{\"id\":2,\"builtin\":\"biquad\",\"registers\":2,"
      "\"strategy\":\"auto\",\"layout\":\"auto\","
      "\"stop_after\":\"plan\"}\n"
      "{\"stats\":true}\n",
      options);
  ASSERT_EQ(lines.size(), 3u);
  const JsonValue first = JsonValue::parse(lines[0]);
  ASSERT_EQ(first.find("error"), nullptr) << lines[0];
  // The answer carries the resolved winner, not the literal "auto".
  EXPECT_NE(first.find("strategy")->as_string(), "auto");
  EXPECT_NE(first.find("layout")->as_string(), "auto");
  const std::string strip_id_first = lines[0].substr(lines[0].find(','));
  const std::string strip_id_second = lines[1].substr(lines[1].find(','));
  EXPECT_EQ(strip_id_first, strip_id_second);

  const JsonValue stats = JsonValue::parse(lines[2]);
  const JsonValue* portfolio = stats.find("stats")->find("portfolio");
  ASSERT_NE(portfolio, nullptr) << lines[2];
  EXPECT_EQ(portfolio->find("races")->as_int(), 1);
  EXPECT_EQ(portfolio->find("short_circuits")->as_int(), 1);
  EXPECT_EQ(portfolio->find("reraces")->as_int(), 0);
  EXPECT_EQ(portfolio->find("learned_entries")->as_int(), 1);
}

TEST(Serve, PortfolioMetricsAppearInTheRegistry) {
  const std::vector<std::string> lines = serve_lines(
      "{\"builtin\":\"fir\",\"strategy\":\"auto\","
      "\"stop_after\":\"plan\"}\n"
      "{\"metrics\":true}\n");
  ASSERT_EQ(lines.size(), 2u);
  const JsonValue metrics = JsonValue::parse(lines[1]);
  const JsonValue* counters = metrics.find("metrics")->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->find("engine.portfolio.races")->as_int(), 1);
  EXPECT_GE(counters->find("engine.portfolio.racers_launched")->as_int(),
            1);
}

TEST(Serve, RaceBudgetRequiresAnAutoAxis) {
  const std::vector<std::string> lines = serve_lines(
      "{\"id\":1,\"builtin\":\"fir\",\"race_budget_ms\":5}\n"
      "{\"id\":2,\"builtin\":\"fir\",\"strategy\":\"auto\","
      "\"race_budget_ms\":0,\"stop_after\":\"plan\"}\n");
  ASSERT_EQ(lines.size(), 2u);
  const JsonValue fixed = JsonValue::parse(lines[0]);
  ASSERT_NE(fixed.find("error"), nullptr) << lines[0];
  EXPECT_EQ(fixed.find("error")->find("stage")->as_string(), "request");
  const JsonValue raced = JsonValue::parse(lines[1]);
  EXPECT_EQ(raced.find("error"), nullptr) << lines[1];
  EXPECT_NE(raced.find("strategy")->as_string(), "auto");
}

TEST(Serve, AutoRequestsStayDeterministicAcrossJobs) {
  const std::string fixture =
      "{\"builtin\":\"paper_example\",\"registers\":2,"
      "\"strategy\":\"auto\",\"layout\":\"auto\","
      "\"stop_after\":\"plan\"}\n";
  cli::ServeOptions serial;
  serial.jobs = 1;
  const std::vector<std::string> one = serve_lines(fixture, serial);
  cli::ServeOptions parallel;
  parallel.jobs = 4;
  const std::vector<std::string> four = serve_lines(fixture, parallel);
  ASSERT_EQ(one.size(), 1u);
  ASSERT_EQ(four.size(), 1u);
  // One request per session: the race winner (and so the whole answer)
  // is independent of the worker count.
  EXPECT_EQ(one[0], four[0]);
}

}  // namespace
}  // namespace dspaddr
