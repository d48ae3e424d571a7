// Flag parsing and end-to-end behavior of the dspaddr CLI.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>

#include "agu/machine_desc.hpp"
#include "cli/app.hpp"
#include "cli/kernel_io.hpp"
#include "cli/options.hpp"
#include "cli/pipeline.hpp"
#include "support/json.hpp"

namespace dspaddr {
namespace {

const std::string kRoot = std::string(DSPADDR_SOURCE_DIR) + "/workloads/";

// ---------------------------------------------------------------- flags

TEST(CliOptions, RunDefaults) {
  const cli::RunOptions options =
      cli::parse_run_options({"--kernel", "f.c"});
  EXPECT_EQ(options.kernel_path, "f.c");
  EXPECT_FALSE(options.machine.has_value());
  EXPECT_FALSE(options.registers.has_value());
  EXPECT_FALSE(options.modify_range.has_value());
  EXPECT_EQ(options.format, cli::OutputFormat::kTable);
  EXPECT_FALSE(options.show_program);
}

TEST(CliOptions, RunAllFlags) {
  const cli::RunOptions options = cli::parse_run_options(
      {"--kernel", "f.kern", "--machine", "wide4", "--registers", "2",
       "--modify-range", "3", "--modify-registers", "4", "--iterations",
       "100", "--format", "csv", "--program"});
  EXPECT_EQ(options.kernel_path, "f.kern");
  EXPECT_EQ(options.machine, "wide4");
  EXPECT_EQ(options.registers, 2u);
  EXPECT_EQ(options.modify_range, 3);
  EXPECT_EQ(options.modify_registers, 4u);
  EXPECT_EQ(options.iterations, 100u);
  EXPECT_EQ(options.format, cli::OutputFormat::kCsv);
  EXPECT_TRUE(options.show_program);
}

TEST(CliOptions, MachineFileFlags) {
  const cli::RunOptions run = cli::parse_run_options(
      {"--kernel", "f.c", "--machine-file", "x.machine"});
  EXPECT_EQ(run.machine_file, "x.machine");

  const cli::BatchOptions batch = cli::parse_batch_options(
      {"--builtin", "fir", "--machine-file", "a.machine",
       "--machine-file=b.machine"});
  EXPECT_EQ(batch.machine_files,
            (std::vector<std::string>{"a.machine", "b.machine"}));

  const cli::CompareOptions compare = cli::parse_compare_options(
      {"--kernel", "fir", "--machine-file", "c.machine"});
  EXPECT_EQ(compare.machine_file, "c.machine");
}

TEST(CliOptions, MachinesSubcommand) {
  const cli::MachinesOptions list = cli::parse_machines_options({});
  EXPECT_EQ(list.format, cli::OutputFormat::kTable);
  EXPECT_TRUE(list.show.empty());

  const cli::MachinesOptions show = cli::parse_machines_options(
      {"show", "wide4", "--format", "json", "--machine-file", "m.machine"});
  EXPECT_EQ(show.show, "wide4");
  EXPECT_EQ(show.format, cli::OutputFormat::kJson);
  EXPECT_EQ(show.machine_files, (std::vector<std::string>{"m.machine"}));

  EXPECT_THROW(cli::parse_machines_options({"show"}), cli::UsageError);
  EXPECT_THROW(cli::parse_machines_options({"show", "a", "show", "b"}),
               cli::UsageError);
  EXPECT_THROW(cli::parse_machines_options({"frobnicate"}),
               cli::UsageError);
}

TEST(CliOptions, EqualsSyntax) {
  const cli::RunOptions options = cli::parse_run_options(
      {"--kernel=f.c", "--registers=8", "--format=csv"});
  EXPECT_EQ(options.kernel_path, "f.c");
  EXPECT_EQ(options.registers, 8u);
  EXPECT_EQ(options.format, cli::OutputFormat::kCsv);
}

TEST(CliOptions, Phase2AndTimeBudgetFlags) {
  const cli::RunOptions defaults =
      cli::parse_run_options({"--kernel", "f.c"});
  EXPECT_EQ(defaults.phase2, core::Phase2Options::Mode::kAuto);
  EXPECT_EQ(defaults.time_budget_ms, 0);

  const cli::RunOptions run = cli::parse_run_options(
      {"--kernel", "f.c", "--phase2", "exact", "--time-budget-ms", "250"});
  EXPECT_EQ(run.phase2, core::Phase2Options::Mode::kExact);
  EXPECT_EQ(run.time_budget_ms, 250);

  const cli::BatchOptions batch = cli::parse_batch_options(
      {"--builtin", "fir", "--phase2=heuristic", "--time-budget-ms=9"});
  EXPECT_EQ(batch.phase2, core::Phase2Options::Mode::kHeuristic);
  EXPECT_EQ(batch.time_budget_ms, 9);

  EXPECT_THROW(
      cli::parse_run_options({"--kernel", "f.c", "--phase2", "brute"}),
      cli::UsageError);
  EXPECT_THROW(cli::parse_run_options(
                   {"--kernel", "f.c", "--time-budget-ms", "-1"}),
               cli::UsageError);
}

TEST(CliOptions, Phase2JobsAndTiledFlags) {
  // Phase 2 runs on one thread: --phase2-jobs is an unknown flag on
  // both commands, whatever its value, while --phase2 tiled still
  // parses.
  for (const char* value : {"1", "4"}) {
    EXPECT_THROW(cli::parse_run_options({"--kernel", "f.c", "--phase2",
                                         "tiled", "--phase2-jobs", value}),
                 cli::UsageError)
        << value;
    EXPECT_THROW(cli::parse_batch_options(
                     {"--builtin", "fir", "--phase2=tiled",
                      std::string("--phase2-jobs=") + value}),
                 cli::UsageError)
        << value;
  }
  EXPECT_EQ(cli::parse_run_options({"--kernel", "f.c", "--phase2", "tiled"})
                .phase2,
            core::Phase2Options::Mode::kTiled);
  EXPECT_EQ(cli::parse_batch_options({"--builtin", "fir", "--phase2=tiled"})
                .phase2,
            core::Phase2Options::Mode::kTiled);
}

TEST(CliOptions, WindowFlags) {
  const cli::RunOptions defaults =
      cli::parse_run_options({"--kernel", "f.c"});
  EXPECT_EQ(defaults.phase2_window, 0u);
  EXPECT_FALSE(defaults.phase2_window_auto);

  const cli::RunOptions run = cli::parse_run_options(
      {"--kernel", "f.c", "--phase2", "tiled", "--phase2-window", "24"});
  EXPECT_EQ(run.phase2_window, 24u);
  EXPECT_FALSE(run.phase2_window_auto);

  // "auto" turns the tuner on and leaves the starting width at its
  // default.
  const cli::RunOptions tuned = cli::parse_run_options(
      {"--kernel", "f.c", "--phase2=tiled", "--phase2-window=auto"});
  EXPECT_TRUE(tuned.phase2_window_auto);
  EXPECT_EQ(tuned.phase2_window, 0u);

  const cli::BatchOptions batch = cli::parse_batch_options(
      {"--builtin", "fir", "--phase2=tiled", "--phase2-window=auto"});
  EXPECT_TRUE(batch.phase2_window_auto);

  // The steal grain is a constant of the parallel solver, not a flag.
  EXPECT_THROW(cli::parse_run_options(
                   {"--kernel", "f.c", "--phase2-steal-grain", "12"}),
               cli::UsageError);
  EXPECT_THROW(cli::parse_batch_options(
                   {"--builtin", "fir", "--phase2-steal-grain=4"}),
               cli::UsageError);
  EXPECT_THROW(
      cli::parse_run_options({"--kernel", "f.c", "--phase2-window", "4"}),
      cli::UsageError);  // below the minimum width of 8
  EXPECT_THROW(cli::parse_run_options(
                   {"--kernel", "f.c", "--phase2-window", "wide"}),
               cli::UsageError);
  EXPECT_THROW(
      cli::parse_batch_options({"--builtin", "fir", "--phase2-window=0"}),
      cli::UsageError);
}

TEST(CliOptions, RunRejectsBadInput) {
  EXPECT_THROW(cli::parse_run_options({}), cli::UsageError);
  EXPECT_THROW(cli::parse_run_options({"--kernel"}), cli::UsageError);
  EXPECT_THROW(cli::parse_run_options({"--kernel", "f.c", "--bogus"}),
               cli::UsageError);
  EXPECT_THROW(
      cli::parse_run_options({"--kernel", "f.c", "--registers", "0"}),
      cli::UsageError);
  EXPECT_THROW(
      cli::parse_run_options({"--kernel", "f.c", "--registers", "two"}),
      cli::UsageError);
  EXPECT_THROW(
      cli::parse_run_options({"--kernel", "f.c", "--format", "yaml"}),
      cli::UsageError);
  EXPECT_THROW(
      cli::parse_run_options({"--kernel", "f.c", "--modify-range", "-1"}),
      cli::UsageError);
}

TEST(CliOptions, BatchLists) {
  const cli::BatchOptions options = cli::parse_batch_options(
      {"--builtin", "fir,biquad", "--machines", "minimal2,wide4",
       "--registers", "1,2,4", "--modify-range", "1,2", "--jobs", "8",
       "--format", "table", "--out", "r.csv"});
  EXPECT_EQ(options.builtin_kernels,
            (std::vector<std::string>{"fir", "biquad"}));
  EXPECT_EQ(options.machines,
            (std::vector<std::string>{"minimal2", "wide4"}));
  EXPECT_EQ(options.register_counts, (std::vector<std::size_t>{1, 2, 4}));
  EXPECT_EQ(options.modify_ranges, (std::vector<std::int64_t>{1, 2}));
  EXPECT_EQ(options.jobs, 8u);
  EXPECT_EQ(options.format, cli::OutputFormat::kTable);
  EXPECT_EQ(options.output_path, "r.csv");
}

TEST(CliOptions, LayoutAndStrategyFlags) {
  const cli::RunOptions defaults =
      cli::parse_run_options({"--kernel", "f.c"});
  EXPECT_EQ(defaults.layout, "contiguous");
  EXPECT_EQ(defaults.strategy, "two-phase");

  const cli::RunOptions run = cli::parse_run_options(
      {"--kernel", "f.c", "--layout", "soa-liao", "--strategy", "naive"});
  EXPECT_EQ(run.layout, "soa-liao");
  EXPECT_EQ(run.strategy, "naive");

  const cli::BatchOptions batch = cli::parse_batch_options(
      {"--builtin", "fir", "--layout", "contiguous,goa",
       "--strategy=two-phase,round-robin"});
  EXPECT_EQ(batch.layouts,
            (std::vector<std::string>{"contiguous", "goa"}));
  EXPECT_EQ(batch.strategies,
            (std::vector<std::string>{"two-phase", "round-robin"}));

  // Unknown names fail at parse time, with the known sets in the text.
  EXPECT_THROW(
      cli::parse_run_options({"--kernel", "f.c", "--layout", "bogus"}),
      cli::UsageError);
  EXPECT_THROW(
      cli::parse_run_options({"--kernel", "f.c", "--strategy", "bogus"}),
      cli::UsageError);
  EXPECT_THROW(cli::parse_batch_options(
                   {"--builtin", "fir", "--strategy", "two-phase,nope"}),
               cli::UsageError);
}

TEST(CliOptions, CompareFlags) {
  const cli::CompareOptions defaults =
      cli::parse_compare_options({"--kernel", "fir"});
  EXPECT_EQ(defaults.kernel, "fir");
  EXPECT_TRUE(defaults.layouts.empty());
  EXPECT_TRUE(defaults.strategies.empty());
  EXPECT_EQ(defaults.format, cli::OutputFormat::kTable);

  const cli::CompareOptions options = cli::parse_compare_options(
      {"--kernel", "f.c", "--machine", "wide4", "--registers", "2",
       "--layout", "contiguous,soa-liao", "--strategy", "two-phase,naive",
       "--phase2", "heuristic", "--format", "json"});
  EXPECT_EQ(options.machine, "wide4");
  EXPECT_EQ(options.registers, 2u);
  EXPECT_EQ(options.layouts,
            (std::vector<std::string>{"contiguous", "soa-liao"}));
  EXPECT_EQ(options.strategies,
            (std::vector<std::string>{"two-phase", "naive"}));
  EXPECT_EQ(options.phase2, core::Phase2Options::Mode::kHeuristic);
  EXPECT_EQ(options.format, cli::OutputFormat::kJson);

  EXPECT_THROW(cli::parse_compare_options({}), cli::UsageError);
  EXPECT_THROW(cli::parse_compare_options({"--kernel", "f.c", "--bogus"}),
               cli::UsageError);
}

TEST(CliOptions, ListFlags) {
  EXPECT_EQ(cli::parse_list_options({}, "machines").format,
            cli::OutputFormat::kTable);
  EXPECT_EQ(cli::parse_list_options({"--format", "json"}, "machines").format,
            cli::OutputFormat::kJson);
  EXPECT_EQ(cli::parse_list_options({"--format=csv"}, "kernels").format,
            cli::OutputFormat::kCsv);
  EXPECT_THROW(cli::parse_list_options({"--bogus"}, "kernels"),
               cli::UsageError);
}

TEST(CliOptions, JsonFormat) {
  const cli::RunOptions run = cli::parse_run_options(
      {"--kernel", "f.c", "--format", "json"});
  EXPECT_EQ(run.format, cli::OutputFormat::kJson);
  // Batch stays table/CSV; JSON traffic goes through `serve`.
  EXPECT_THROW(
      cli::parse_batch_options({"--builtin", "fir", "--format", "json"}),
      cli::UsageError);
}

TEST(CliOptions, ServeFlags) {
  EXPECT_EQ(cli::parse_serve_options({}).cache_capacity, 256u);
  EXPECT_EQ(cli::parse_serve_options({"--cache-capacity", "0"})
                .cache_capacity,
            0u);
  EXPECT_EQ(cli::parse_serve_options({"--cache-capacity=9"}).cache_capacity,
            9u);
  EXPECT_EQ(cli::parse_serve_options({"--jobs", "8"}).jobs, 8u);
  EXPECT_EQ(cli::parse_serve_options({"--max-iterations=500"})
                .max_iterations,
            500);
  EXPECT_EQ(cli::parse_serve_options({}).max_iterations, 10'000'000);
  EXPECT_THROW(cli::parse_serve_options({"--bogus"}), cli::UsageError);
  EXPECT_THROW(cli::parse_serve_options({"--cache-capacity", "x"}),
               cli::UsageError);
  EXPECT_THROW(cli::parse_serve_options({"--jobs", "0"}), cli::UsageError);
  EXPECT_THROW(cli::parse_serve_options({"--max-iterations", "0"}),
               cli::UsageError);
}

TEST(CliOptions, StoreAndMetricsFlagsOnRunBatchServe) {
  const cli::RunOptions run = cli::parse_run_options(
      {"--kernel", "f.c", "--store", "cache.log", "--store-fsync",
       "--metrics-csv", "m.csv"});
  EXPECT_EQ(run.store_path, "cache.log");
  EXPECT_TRUE(run.store_fsync);
  EXPECT_EQ(run.metrics_csv, "m.csv");

  const cli::BatchOptions batch = cli::parse_batch_options(
      {"--builtin", "fir", "--store=cache.log", "--metrics-csv=m.csv"});
  EXPECT_EQ(batch.store_path, "cache.log");
  EXPECT_FALSE(batch.store_fsync);
  EXPECT_EQ(batch.metrics_csv, "m.csv");

  const cli::ServeOptions serve = cli::parse_serve_options(
      {"--store", "cache.log", "--store-fsync", "--metrics-csv=m.csv"});
  EXPECT_EQ(serve.store_path, "cache.log");
  EXPECT_TRUE(serve.store_fsync);
  EXPECT_EQ(serve.metrics_csv, "m.csv");

  // Defaults: no store, no fsync, no dump.
  EXPECT_TRUE(cli::parse_serve_options({}).store_path.empty());
  EXPECT_FALSE(cli::parse_serve_options({}).store_fsync);
  EXPECT_TRUE(cli::parse_serve_options({}).metrics_csv.empty());

  // --store-fsync is meaningless without a store on every command.
  EXPECT_THROW(
      cli::parse_run_options({"--kernel", "f.c", "--store-fsync"}),
      cli::UsageError);
  EXPECT_THROW(
      cli::parse_batch_options({"--builtin", "fir", "--store-fsync"}),
      cli::UsageError);
  EXPECT_THROW(cli::parse_serve_options({"--store-fsync"}),
               cli::UsageError);
}

TEST(CliOptions, JobsDefaultAndValidationAreSharedAcrossCommands) {
  // One helper backs --jobs on batch and serve: same default (the
  // hardware concurrency, at least 1) and the same rejections.
  EXPECT_GE(cli::default_jobs(), 1u);
  EXPECT_EQ(cli::parse_batch_options({"--builtin", "fir"}).jobs,
            cli::default_jobs());
  EXPECT_EQ(cli::parse_serve_options({}).jobs, cli::default_jobs());
  EXPECT_THROW(cli::parse_batch_options(
                   {"--builtin", "fir", "--jobs", "nope"}),
               cli::UsageError);
  EXPECT_THROW(cli::parse_serve_options({"--jobs", "nope"}),
               cli::UsageError);
  EXPECT_THROW(cli::parse_serve_options({"--jobs", "-2"}),
               cli::UsageError);
}

TEST(CliOptions, BatchRejectsBadInput) {
  // No kernels at all.
  EXPECT_THROW(cli::parse_batch_options({"--jobs", "2"}), cli::UsageError);
  EXPECT_THROW(cli::parse_batch_options({"--builtin", "fir", "--jobs", "0"}),
               cli::UsageError);
  EXPECT_THROW(
      cli::parse_batch_options({"--builtin", "fir,,biquad"}),
      cli::UsageError);
  EXPECT_THROW(
      cli::parse_batch_options({"--builtin", "fir", "--registers", "1,x"}),
      cli::UsageError);
}

// ------------------------------------------------------------ kernel IO

TEST(CliKernelIo, PathStem) {
  EXPECT_EQ(cli::path_stem("workloads/fir16.kern"), "fir16");
  EXPECT_EQ(cli::path_stem("paper_example.c"), "paper_example");
  EXPECT_EQ(cli::path_stem("/a/b/c.x.y"), "c.x");
  EXPECT_EQ(cli::path_stem("noext"), "noext");
}

TEST(CliKernelIo, LoadsBothFormats) {
  const ir::Kernel c = cli::load_kernel_file(kRoot + "paper_example.c");
  EXPECT_EQ(c.name(), "paper_example");
  EXPECT_EQ(c.accesses().size(), 7u);
  const ir::Kernel kern = cli::load_kernel_file(kRoot + "fir16.kern");
  EXPECT_EQ(kern.name(), "fir16");
}

TEST(CliKernelIo, MissingFileThrows) {
  EXPECT_THROW(cli::load_kernel_file(kRoot + "nope.c"), InvalidArgument);
}

// ------------------------------------------------------------- machine

TEST(CliPipeline, ResolveMachineAppliesOverrides) {
  cli::RunOptions options;
  options.machine = "wide4";
  options.registers = 2;
  options.modify_registers = 5;
  const agu::AguSpec machine = cli::resolve_machine(options);
  EXPECT_EQ(machine.name, "wide4");
  EXPECT_EQ(machine.address_registers(), 2u);
  EXPECT_EQ(machine.modify_registers(), 5u);
  EXPECT_EQ(machine.modify_range(), 2);  // kept from the machine
}

TEST(CliPipeline, ResolveMachineDefaultsToSingleRegister) {
  const agu::AguSpec machine = cli::resolve_machine(cli::RunOptions{});
  EXPECT_EQ(machine.address_registers(), 1u);
  EXPECT_EQ(machine.modify_registers(), 0u);
  EXPECT_EQ(machine.modify_range(), 1);
}

TEST(CliPipeline, ResolveMachineFromFile) {
  cli::RunOptions options;
  options.machine_file =
      std::string(DSPADDR_SOURCE_DIR) + "/workloads/machines/msp430x.machine";
  // Without --machine the file's first machine runs.
  const agu::AguSpec machine = cli::resolve_machine(options);
  EXPECT_EQ(machine.name, "msp430x");
  EXPECT_EQ(machine.modify_lo, 0);
  EXPECT_EQ(machine.modify_hi, 1);
  // With --machine, a file still leaves the catalog reachable.
  options.machine = "minimal2";
  EXPECT_EQ(cli::resolve_machine(options).name, "minimal2");
  options.machine = "nope";
  EXPECT_THROW(cli::resolve_machine(options), InvalidArgument);
}

// ----------------------------------------------------------- end to end

int run(const std::vector<std::string>& args, std::string& out,
        std::string& err) {
  std::ostringstream out_stream;
  std::ostringstream err_stream;
  const int code = cli::run_cli(args, out_stream, err_stream);
  out = out_stream.str();
  err = err_stream.str();
  return code;
}

TEST(CliApp, RunPaperExampleVerifies) {
  std::string out;
  std::string err;
  const int code = run({"run", "--kernel", kRoot + "paper_example.c",
                        "--registers", "2"},
                       out, err);
  EXPECT_EQ(code, 0) << err;
  EXPECT_NE(out.find("VERIFIED"), std::string::npos) << out;
  // K~ = 3 and the optimal K=2 cost of 2 from the paper's example.
  EXPECT_NE(out.find("K~=3"), std::string::npos) << out;
  EXPECT_NE(out.find("cost: 2/iteration"), std::string::npos) << out;
}

TEST(CliApp, RunReportsPhase2Provenance) {
  std::string out;
  std::string err;
  const int code = run({"run", "--kernel", kRoot + "paper_example.c",
                        "--registers", "2", "--phase2", "exact",
                        "--time-budget-ms", "5000"},
                       out, err);
  EXPECT_EQ(code, 0) << err;
  EXPECT_NE(out.find("phase 2 exact, proven optimal"), std::string::npos)
      << out;
}

TEST(CliApp, HeuristicPhase2ReportsNoProof) {
  std::string out;
  std::string err;
  const int code = run({"run", "--kernel", kRoot + "paper_example.c",
                        "--registers", "2", "--phase2", "heuristic"},
                       out, err);
  EXPECT_EQ(code, 0) << err;
  EXPECT_NE(out.find("phase 2 heuristic"), std::string::npos) << out;
}

TEST(CliApp, RunCsvMatchesBatchSchema) {
  std::string out;
  std::string err;
  const int code = run({"run", "--kernel", kRoot + "paper_example.c",
                        "--registers", "2", "--format", "csv"},
                       out, err);
  EXPECT_EQ(code, 0) << err;
  EXPECT_EQ(out.substr(0, 6), "kernel");
  EXPECT_NE(out.find("paper_example,custom,2,"), std::string::npos) << out;
}

TEST(CliApp, RunJsonFormatEmitsTheServeSchema) {
  std::string out;
  std::string err;
  const int code = run({"run", "--kernel", kRoot + "paper_example.c",
                        "--registers", "2", "--format", "json"},
                       out, err);
  EXPECT_EQ(code, 0) << err;
  const support::JsonValue json = support::JsonValue::parse(out);
  EXPECT_EQ(json.find("kernel")->find("name")->as_string(),
            "paper_example");
  EXPECT_EQ(json.find("machine")->find("registers")->as_int(), 2);
  const support::JsonValue* stages = json.find("stages");
  ASSERT_NE(stages, nullptr);
  EXPECT_EQ(stages->find("allocate")->find("cost")->as_int(), 2);
  EXPECT_TRUE(stages->find("simulate")->find("verified")->as_bool());
}

TEST(CliApp, RunJsonSurfacesExactSolverDiagnostics) {
  std::string out;
  std::string err;
  const int code = run({"run", "--kernel", kRoot + "paper_example.c",
                        "--registers", "2", "--phase2", "exact",
                        "--format", "json"},
                       out, err);
  EXPECT_EQ(code, 0) << err;
  const support::JsonValue json = support::JsonValue::parse(out);
  const support::JsonValue* phase2 =
      json.find("stages")->find("allocate")->find("phase2");
  ASSERT_NE(phase2, nullptr) << out;
  EXPECT_TRUE(phase2->find("proven")->as_bool());
  ASSERT_NE(phase2->find("table_cap_hits"), nullptr) << out;
  EXPECT_GE(phase2->find("nodes")->as_int(), 1);
}

TEST(CliApp, RunJsonCarriesTimings) {
  std::string out;
  std::string err;
  const int code = run({"run", "--kernel", kRoot + "paper_example.c",
                        "--registers", "2", "--format", "json"},
                       out, err);
  EXPECT_EQ(code, 0) << err;
  const support::JsonValue json = support::JsonValue::parse(out);
  const support::JsonValue* timings = json.find("timings");
  ASSERT_NE(timings, nullptr) << out;
  EXPECT_EQ(timings->find("tier")->as_string(), "cold");
  ASSERT_NE(timings->find("total_ms"), nullptr);
  const support::JsonValue* stage_ms = timings->find("stage_ms");
  ASSERT_NE(stage_ms, nullptr);
  for (const char* stage :
       {"lower", "allocate", "plan", "codegen", "simulate", "metrics"}) {
    ASSERT_NE(stage_ms->find(stage), nullptr) << stage;
  }
}

TEST(CliApp, RunStoreWarmsAcrossInvocations) {
  const std::string store_path =
      testing::TempDir() + "dspaddr_cli_run_store.log";
  const std::string csv_path =
      testing::TempDir() + "dspaddr_cli_run_metrics.csv";
  std::remove(store_path.c_str());
  std::remove(csv_path.c_str());
  const std::vector<std::string> args = {
      "run",     "--kernel",    kRoot + "paper_example.c",
      "--registers", "2",       "--format",
      "json",    "--store",     store_path};
  std::string cold_out;
  std::string warm_out;
  std::string err;
  EXPECT_EQ(run(args, cold_out, err), 0) << err;
  // Second invocation = a fresh process in real life: same binary,
  // same flags, new engine. The answer comes from the store.
  std::vector<std::string> warm_args = args;
  warm_args.push_back("--metrics-csv");
  warm_args.push_back(csv_path);
  EXPECT_EQ(run(warm_args, warm_out, err), 0) << err;
  const support::JsonValue cold = support::JsonValue::parse(cold_out);
  const support::JsonValue warm = support::JsonValue::parse(warm_out);
  EXPECT_EQ(cold.find("timings")->find("tier")->as_string(), "cold");
  EXPECT_EQ(warm.find("timings")->find("tier")->as_string(), "store_hit");
  // Identical result, modulo the wall-clock timings member.
  EXPECT_EQ(warm.find("stages")->dump(), cold.find("stages")->dump());
  // The metrics dump exists and shows the store hit.
  std::ifstream csv(csv_path);
  ASSERT_TRUE(csv.good()) << csv_path;
  std::string contents((std::istreambuf_iterator<char>(csv)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(contents.find("histogram,engine.request_us.store_hit,1,"),
            std::string::npos)
      << contents;
  EXPECT_NE(contents.find("counter,store.hits,1"), std::string::npos)
      << contents;
  std::remove(store_path.c_str());
  std::remove(csv_path.c_str());
}

TEST(CliApp, BatchIsDeterministicAcrossJobs) {
  const std::vector<std::string> base = {
      "batch", "--builtin", "fir,biquad", "--machines", "minimal2,wide4",
      "--registers", "1,2"};
  std::string serial;
  std::string parallel;
  std::string err;
  auto with_jobs = [&](const std::string& jobs) {
    std::vector<std::string> args = base;
    args.push_back("--jobs");
    args.push_back(jobs);
    return args;
  };
  EXPECT_EQ(run(with_jobs("1"), serial, err), 0) << err;
  EXPECT_EQ(run(with_jobs("8"), parallel, err), 0) << err;
  EXPECT_EQ(serial, parallel);
  EXPECT_FALSE(serial.empty());
}

TEST(CliApp, RunWithBaselineStrategyReportsItsCost) {
  std::string out;
  std::string err;
  const int code = run({"run", "--kernel", kRoot + "paper_example.c",
                        "--registers", "2", "--strategy", "naive"},
                       out, err);
  EXPECT_EQ(code, 0) << err;
  // naive runs the real phase structure, so its phase stats are shown;
  // cost 4 is the paper's arbitrary-merge number.
  EXPECT_NE(out.find("allocation (naive: phase 1"), std::string::npos)
      << out;
  EXPECT_NE(out.find("cost: 4/iteration"), std::string::npos) << out;
  EXPECT_NE(out.find("VERIFIED"), std::string::npos) << out;

  // A placement baseline has no phases to report.
  const int rr_code = run({"run", "--kernel", kRoot + "paper_example.c",
                           "--registers", "2", "--strategy",
                           "round-robin"},
                          out, err);
  EXPECT_EQ(rr_code, 0) << err;
  EXPECT_NE(out.find("allocation (round-robin):"), std::string::npos)
      << out;
}

TEST(CliApp, CompareMarksTwoPhaseAsBest) {
  std::string out;
  std::string err;
  const int code = run({"compare", "--kernel", "paper_example",
                        "--registers", "2", "--format", "csv"},
                       out, err);
  EXPECT_EQ(code, 0) << err;
  // CSV columns: layout,strategy,...,best at index 10.
  EXPECT_NE(out.find("contiguous,two-phase,7,64,2,"), std::string::npos)
      << out;
  bool two_phase_best = false;
  std::istringstream lines(out);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find(",two-phase,") != std::string::npos &&
        line.find(",yes,yes,") != std::string::npos) {
      two_phase_best = true;
    }
  }
  EXPECT_TRUE(two_phase_best) << out;
}

TEST(CliApp, CompareAcceptsFilesAndBuiltins) {
  std::string out;
  std::string err;
  // A workload file path works...
  EXPECT_EQ(run({"compare", "--kernel", kRoot + "paper_example.c",
                 "--registers", "2", "--strategy", "two-phase"},
                out, err),
            0)
      << err;
  EXPECT_NE(out.find("two-phase"), std::string::npos);
  // ...and a nonexistent name reports both interpretations failed.
  EXPECT_EQ(run({"compare", "--kernel", "no_such_kernel"}, out, err), 1);
  EXPECT_NE(err.find("neither"), std::string::npos) << err;
}

TEST(CliApp, CompareJsonCarriesReferenceAndRows) {
  std::string out;
  std::string err;
  const int code = run({"compare", "--kernel", "paper_example",
                        "--registers", "2", "--strategy",
                        "two-phase,naive", "--format", "json"},
                       out, err);
  EXPECT_EQ(code, 0) << err;
  const support::JsonValue json = support::JsonValue::parse(out);
  EXPECT_EQ(json.find("reference")->find("strategy")->as_string(),
            "two-phase");
  ASSERT_EQ(json.find("rows")->items().size(), 2u);
  EXPECT_EQ(json.find("rows")->items()[1].find("cost_delta")->as_int(), 2);
}

TEST(CliApp, MachinesAndKernelsHonorJsonFormat) {
  std::string out;
  std::string err;
  ASSERT_EQ(run({"machines", "--format", "json"}, out, err), 0) << err;
  const support::JsonValue machines = support::JsonValue::parse(out);
  ASSERT_TRUE(machines.is_array());
  ASSERT_FALSE(machines.items().empty());
  EXPECT_FALSE(machines.items()[0].find("name")->as_string().empty());
  EXPECT_GE(machines.items()[0].find("registers")->as_int(), 1);

  ASSERT_EQ(run({"kernels", "--format=json"}, out, err), 0) << err;
  const support::JsonValue kernels = support::JsonValue::parse(out);
  ASSERT_TRUE(kernels.is_array());
  bool has_fir = false;
  for (const support::JsonValue& kernel : kernels.items()) {
    if (kernel.find("name")->as_string() == "fir") {
      has_fir = true;
      EXPECT_EQ(kernel.find("arrays")->as_int(), 2);
    }
  }
  EXPECT_TRUE(has_fir);

  // CSV and bad flags are handled too.
  ASSERT_EQ(run({"machines", "--format", "csv"}, out, err), 0);
  EXPECT_EQ(out.substr(0, 5), "name,");
  EXPECT_EQ(run({"machines", "--format", "yaml"}, out, err), 2);
}

TEST(CliApp, MachinesShowRoundTrips) {
  std::string out;
  std::string err;
  ASSERT_EQ(run({"machines", "show", "wide4"}, out, err), 0) << err;
  // The text view is the canonical .machine form: parsing it back
  // yields the catalog spec exactly.
  const auto reparsed = agu::parse_machines(out, "show");
  ASSERT_EQ(reparsed.size(), 1u);
  EXPECT_EQ(reparsed[0], agu::builtin_machine("wide4"));

  ASSERT_EQ(run({"machines", "show", "wide4", "--format", "json"}, out,
                err),
            0)
      << err;
  EXPECT_EQ(agu::machine_from_json(support::JsonValue::parse(out)),
            agu::builtin_machine("wide4"));

  EXPECT_EQ(run({"machines", "show", "pdp11"}, out, err), 1);
  EXPECT_NE(err.find("unknown machine"), std::string::npos);
}

TEST(CliApp, MachinesListsFileMachines) {
  const std::string file = std::string(DSPADDR_SOURCE_DIR) +
                           "/workloads/machines/arm946e_wb.machine";
  std::string out;
  std::string err;
  ASSERT_EQ(run({"machines", "--machine-file", file}, out, err), 0) << err;
  EXPECT_NE(out.find("arm946e-wb"), std::string::npos);
  EXPECT_NE(out.find("pre"), std::string::npos);
  ASSERT_EQ(run({"machines", "show", "arm946e-wb", "--machine-file", file},
                out, err),
            0)
      << err;
  const auto reparsed = agu::parse_machines(out, "show");
  ASSERT_EQ(reparsed.size(), 1u);
  EXPECT_EQ(reparsed[0].addressing, agu::Addressing::kPreModify);
}

TEST(CliApp, RunHonorsMachineFile) {
  const std::string file = std::string(DSPADDR_SOURCE_DIR) +
                           "/workloads/machines/dsp56300.machine";
  std::string out;
  std::string err;
  const int code = run({"run", "--kernel", kRoot + "paper_example.c",
                        "--machine-file", file},
                       out, err);
  EXPECT_EQ(code, 0) << err;
  EXPECT_NE(out.find("machine: dsp56300"), std::string::npos) << out;
  EXPECT_NE(out.find("M=[-1, 3]"), std::string::npos) << out;
  EXPECT_NE(out.find("VERIFIED"), std::string::npos);
}

TEST(CliApp, BatchSweepsTheStrategyAxis) {
  std::string out;
  std::string err;
  const int code = run({"batch", "--builtin", "paper_example",
                        "--registers", "2", "--strategy",
                        "two-phase,naive", "--layout",
                        "contiguous,declaration-padded", "--machines",
                        "minimal2"},
                       out, err);
  EXPECT_EQ(code, 0) << err;
  // 1 kernel x 1 machine x 1 K x 1 M x 2 layouts x 2 strategies + header.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 5) << out;
  EXPECT_NE(out.find("contiguous,naive"), std::string::npos) << out;
  EXPECT_NE(out.find("declaration-padded,two-phase"), std::string::npos)
      << out;
}

TEST(CliApp, UnknownCommandFails) {
  std::string out;
  std::string err;
  EXPECT_EQ(run({"frobnicate"}, out, err), 2);
  EXPECT_NE(err.find("unknown command"), std::string::npos);
}

TEST(CliApp, UsageErrorsExitTwo) {
  std::string out;
  std::string err;
  EXPECT_EQ(run({"run"}, out, err), 2);
  EXPECT_NE(err.find("--kernel"), std::string::npos);
}

TEST(CliApp, HelpAndVersion) {
  std::string out;
  std::string err;
  EXPECT_EQ(run({"help"}, out, err), 0);
  EXPECT_NE(out.find("usage: dspaddr"), std::string::npos);
  EXPECT_NE(out.find("serve"), std::string::npos);
  EXPECT_EQ(run({"version"}, out, err), 0);
  EXPECT_NE(out.find("dspaddr "), std::string::npos);
  EXPECT_EQ(run({"machines"}, out, err), 0);
  EXPECT_NE(out.find("minimal2"), std::string::npos);
  EXPECT_EQ(run({"kernels"}, out, err), 0);
  EXPECT_NE(out.find("fir"), std::string::npos);
}

TEST(CliOptions, PortfolioRacingFlags) {
  const cli::RunOptions run = cli::parse_run_options(
      {"--kernel", "f.c", "--strategy", "auto", "--layout", "auto",
       "--jobs", "3", "--race-budget-ms", "25"});
  EXPECT_EQ(run.strategy, "auto");
  EXPECT_EQ(run.layout, "auto");
  EXPECT_EQ(run.jobs, 3u);
  EXPECT_EQ(run.race_budget_ms, 25);

  const cli::CompareOptions compare = cli::parse_compare_options(
      {"--kernel", "fir", "--strategy", "auto", "--jobs", "4",
       "--race-budget-ms", "10"});
  ASSERT_EQ(compare.strategies.size(), 1u);
  EXPECT_EQ(compare.strategies[0], "auto");
  EXPECT_EQ(compare.jobs, 4u);
  EXPECT_EQ(compare.race_budget_ms, 10);

  const cli::BatchOptions batch = cli::parse_batch_options(
      {"--builtin", "fir", "--strategy", "auto,two-phase",
       "--race-budget-ms", "7"});
  EXPECT_EQ(batch.race_budget_ms, 7);

  const cli::ServeOptions serve =
      cli::parse_serve_options({"--race-budget-ms", "15"});
  EXPECT_EQ(serve.race_budget_ms, 15);

  // Defaults: the deadline is off everywhere.
  EXPECT_EQ(cli::parse_run_options({"--kernel", "f.c"}).race_budget_ms, 0);
  EXPECT_EQ(cli::parse_serve_options({}).race_budget_ms, 0);
}

TEST(CliOptions, PortfolioFlagErrors) {
  // A negative or malformed deadline is a usage error.
  EXPECT_THROW(cli::parse_run_options(
                   {"--kernel", "f.c", "--race-budget-ms", "-1"}),
               cli::UsageError);
  EXPECT_THROW(cli::parse_run_options(
                   {"--kernel", "f.c", "--race-budget-ms", "soon"}),
               cli::UsageError);
  // compare: "auto" already covers every candidate, so mixing it into
  // a multi-element list is contradictory.
  EXPECT_THROW(cli::parse_compare_options(
                   {"--kernel", "fir", "--strategy", "auto,naive"}),
               cli::UsageError);
  EXPECT_THROW(cli::parse_compare_options(
                   {"--kernel", "fir", "--layout", "contiguous,auto"}),
               cli::UsageError);
}

TEST(CliApp, RunAutoRaceRendersThePortfolioTable) {
  std::string out;
  std::string err;
  EXPECT_EQ(run({"run", "--kernel", kRoot + "paper_example.c",
                 "--registers", "2", "--strategy", "auto", "--layout",
                 "auto"},
                out, err),
            0)
      << err;
  EXPECT_NE(out.find("portfolio race (winner "), std::string::npos) << out;
  EXPECT_NE(out.find("deltas vs winner"), std::string::npos);
}

}  // namespace
}  // namespace dspaddr
