#include "cli/app.hpp"

#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <system_error>

#include "agu/machine_desc.hpp"
#include "cli/kernel_io.hpp"
#include "cli/options.hpp"
#include "cli/pipeline.hpp"
#include "cli/serve.hpp"
#include "engine/portfolio.hpp"
#include "engine/serialize.hpp"
#include "engine/strategy.hpp"
#include "eval/batch.hpp"
#include "eval/compare.hpp"
#include "ir/kernels.hpp"
#include "store/result_store.hpp"
#include "support/check.hpp"
#include "support/csv.hpp"
#include "support/json.hpp"
#include "support/table.hpp"

namespace dspaddr::cli {
namespace {

constexpr const char* kVersion = "0.1.0";

/// The `--format=json` rendering of a portfolio race: the compare-style
/// rows plus the race's own decisions.
support::JsonValue portfolio_race_json(const engine::PortfolioReport& race,
                                       const std::string& kernel,
                                       const std::string& machine) {
  support::JsonValue json = support::JsonValue::object();
  json.set("winner_layout", support::JsonValue::string(race.winner_layout));
  json.set("winner_strategy",
           support::JsonValue::string(race.winner_strategy));
  json.set("learned_hit", support::JsonValue::boolean(race.learned_hit));
  json.set("short_circuit",
           support::JsonValue::boolean(race.short_circuit));
  json.set("reraced", support::JsonValue::boolean(race.reraced));
  json.set("race",
           eval::compare_to_json(
               eval::compare_from_portfolio(race, kernel, machine)));
  return json;
}

int command_run(const std::vector<std::string>& args, std::ostream& out) {
  const RunOptions options = parse_run_options(args);
  const ir::Kernel kernel = load_kernel_file(options.kernel_path);
  const agu::AguSpec machine = resolve_machine(options);
  core::Phase2Options phase2;
  phase2.mode = options.phase2;
  phase2.time_budget_ms = options.time_budget_ms;
  phase2.jobs = options.phase2_jobs;
  if (options.phase2_window != 0) {
    phase2.tile_width = options.phase2_window;
  }
  phase2.tile_width_auto = options.phase2_window_auto;
  // One-shot run: no in-process traffic to memoize across (capacity 0),
  // but with --store the persistent tier still answers repeats of
  // earlier invocations.
  engine::Engine::Options engine_options;
  engine_options.cache_capacity = 0;
  if (!options.store_path.empty()) {
    engine_options.store = std::make_shared<store::ResultStore>(
        store::ResultStore::Options{options.store_path,
                                    options.store_fsync});
  }
  engine::Engine engine(std::move(engine_options));
  engine::Request request;
  request.kernel = kernel;
  request.machine = machine;
  request.layout = options.layout;
  request.strategy = options.strategy;
  request.phase2 = phase2;
  request.iterations = options.iterations;

  engine::Result report;
  engine::PortfolioReport race;
  const bool raced = engine::Portfolio::is_auto(request);
  if (raced) {
    engine::PortfolioOptions portfolio_options;
    portfolio_options.jobs = options.jobs;
    portfolio_options.race_budget_ms = options.race_budget_ms;
    engine::Portfolio portfolio(engine, portfolio_options);
    report = portfolio.run(request, &race);
  } else {
    report = engine.run(request);
  }
  if (!options.metrics_csv.empty()) {
    engine::write_metrics_csv(options.metrics_csv, engine);
  }
  if (options.format == OutputFormat::kJson) {
    // JSON carries failures in-band (the "error" member), like a serve
    // response. The run surface alone appends per-call "timings" —
    // serve responses never carry them, keeping the shared schema
    // byte-identical across surfaces and reruns.
    std::string line = engine::result_to_json_line(report);
    line.pop_back();  // reopen the object for the run-only members
    support::JsonValue timings = support::JsonValue::object();
    support::JsonValue stage_ms = support::JsonValue::object();
    for (std::size_t i = 0; i < engine::kStageCount; ++i) {
      stage_ms.set(engine::stage_name(static_cast<engine::Stage>(i)),
                   support::JsonValue::number(report.stage_ms[i]));
    }
    timings.set("stage_ms", std::move(stage_ms));
    timings.set("total_ms", support::JsonValue::number(report.total_ms));
    timings.set("tier", support::JsonValue::string(
                            report.cache_hit   ? "ram_hit"
                            : report.store_hit ? "store_hit"
                                               : "cold"));
    line += ",\"timings\":" + timings.dump();
    if (raced) {
      line += ",\"portfolio\":" +
              portfolio_race_json(race, kernel.name(), machine.name).dump();
    }
    out << line << "}\n";
    return report.ok() && report.verified ? 0 : 1;
  }
  if (!report.ok()) {
    throw Error(std::string(engine::stage_name(report.error->stage)) +
                ": " + report.error->message);
  }
  if (options.format == OutputFormat::kCsv) {
    out << report_to_csv(report);
  } else {
    out << report_to_text(report, options.show_program);
    if (raced) {
      out << "\nportfolio race (winner " << race.winner_layout << "/"
          << race.winner_strategy
          << (race.short_circuit ? ", learned short-circuit" : "")
          << (race.reraced ? ", drift re-race" : "")
          << "; deltas vs winner, * marks the cost minimum):\n\n"
          << eval::compare_to_table(eval::compare_from_portfolio(
                                        race, kernel.name(), machine.name))
                 .to_string();
    }
  }
  return report.verified ? 0 : 1;
}

int command_batch(const std::vector<std::string>& args, std::ostream& out) {
  const BatchOptions options = parse_batch_options(args);

  eval::BatchConfig config;
  for (const std::string& path : options.kernel_paths) {
    config.kernels.push_back(load_kernel_file(path));
  }
  for (const std::string& name : options.builtin_kernels) {
    config.kernels.push_back(ir::builtin_kernel(name));
  }
  // The grid resolves names against the builtin catalog layered with
  // every --machine-file: a file can add new targets or replace a
  // builtin by name, and an empty --machines sweeps the whole registry.
  agu::MachineRegistry registry = agu::MachineRegistry::with_builtins();
  for (const std::string& path : options.machine_files) {
    registry.load_file(path);
  }
  if (options.machines.empty()) {
    config.machines = registry.all();
  } else {
    for (const std::string& name : options.machines) {
      config.machines.push_back(registry.get(name));
    }
  }
  config.register_counts = options.register_counts;
  config.modify_ranges = options.modify_ranges;
  config.layouts = options.layouts;
  config.strategies = options.strategies;
  config.jobs = options.jobs;
  config.race_budget_ms = options.race_budget_ms;
  config.phase2.mode = options.phase2;
  config.phase2.time_budget_ms = options.time_budget_ms;
  config.phase2.jobs = options.phase2_jobs;
  if (options.phase2_window != 0) {
    config.phase2.tile_width = options.phase2_window;
  }
  config.phase2.tile_width_auto = options.phase2_window_auto;
  if (!options.store_path.empty()) {
    config.store = std::make_shared<store::ResultStore>(
        store::ResultStore::Options{options.store_path,
                                    options.store_fsync});
  }
  config.metrics_csv = options.metrics_csv;

  const eval::BatchResult result = eval::run_batch(config);
  const std::string rendered = options.format == OutputFormat::kTable
                                   ? eval::batch_to_table(result).to_string()
                                   : eval::batch_to_csv(result).to_string();
  if (options.output_path.empty()) {
    out << rendered;
  } else {
    std::ofstream file(options.output_path);
    check_arg(file.good(),
              "cannot write output file '" + options.output_path + "'");
    file << rendered;
    file.flush();
    check_arg(file.good(),
              "failed writing output file '" + options.output_path + "'");
  }
  return result.failures == 0 ? 0 : 1;
}

/// compare's --kernel accepts a workload file path or a builtin kernel
/// name; an existing file wins over a same-named builtin.
ir::Kernel load_kernel_file_or_builtin(const std::string& name) {
  // Must be a *regular* file: a directory opens "successfully" via
  // ifstream and would bypass the builtin fallback with a confusing
  // parse error.
  std::error_code ec;
  if (std::filesystem::is_regular_file(name, ec)) {
    return load_kernel_file(name);
  }
  try {
    return ir::builtin_kernel(name);
  } catch (const Error&) {
    throw Error("'" + name +
                "' is neither a readable workload file nor a builtin "
                "kernel");
  }
}

/// True when a compare axis list is the single value "auto" (the parse
/// step already rejects "auto" mixed with other names).
bool is_auto_axis(const std::vector<std::string>& names) {
  return names.size() == 1 && names.front() == engine::kAutoStrategy;
}

int command_compare(const std::vector<std::string>& args,
                    std::ostream& out) {
  const CompareOptions options = parse_compare_options(args);

  eval::CompareConfig config;
  config.kernel = load_kernel_file_or_builtin(options.kernel);
  config.machine = resolve_machine(options);
  config.layouts = options.layouts;
  config.strategies = options.strategies;
  config.phase2.mode = options.phase2;
  config.phase2.time_budget_ms = options.time_budget_ms;
  config.iterations = options.iterations;
  config.jobs = options.jobs;

  eval::CompareResult result;
  bool raced = false;
  engine::PortfolioReport race;
  if (is_auto_axis(options.layouts) || is_auto_axis(options.strategies)) {
    // An auto axis races instead of gridding: losers get cancelled the
    // moment their lower bound crosses the incumbent, so the table
    // arrives at the winner's latency, not the grid's.
    engine::Request request;
    request.kernel = config.kernel;
    request.machine = config.machine;
    request.layout = is_auto_axis(options.layouts)
                         ? std::string(engine::kAutoStrategy)
                         : options.layouts.empty() ? engine::kDefaultLayout
                                                   : options.layouts.front();
    request.strategy = is_auto_axis(options.strategies)
                           ? std::string(engine::kAutoStrategy)
                           : options.strategies.empty()
                               ? engine::kDefaultStrategy
                               : options.strategies.front();
    request.phase2 = config.phase2;
    request.iterations = options.iterations;
    engine::Engine engine;
    engine::PortfolioOptions portfolio_options;
    portfolio_options.jobs = options.jobs;
    portfolio_options.race_budget_ms = options.race_budget_ms;
    engine::Portfolio portfolio(engine, portfolio_options);
    portfolio.run(request, &race);
    result = eval::compare_from_portfolio(race, config.kernel.name(),
                                          config.machine.name);
    raced = true;
  } else {
    result = eval::run_compare(config);
  }
  if (options.format == OutputFormat::kJson) {
    out << eval::compare_to_json(result).dump() << "\n";
  } else if (options.format == OutputFormat::kCsv) {
    out << eval::compare_to_csv(result).to_string();
  } else {
    out << "compare: " << result.kernel << " on " << result.machine
        << (raced ? " (raced; deltas vs winner " : " (deltas vs ")
        << result.reference_layout << "/" << result.reference_strategy
        << "; * marks the cost minimum)\n\n"
        << eval::compare_to_table(result).to_string();
  }
  return result.failures == 0 ? 0 : 1;
}

int command_serve(const std::vector<std::string>& args, std::istream& in,
                  std::ostream& out) {
  const ServeOptions options = parse_serve_options(args);
  return run_serve(in, out, options);
}

/// Renders the modify window of the listing: the paper's symmetric M
/// prints as a single number; richer machines show the full window.
std::string window_text(const agu::MachineSpec& machine) {
  if (machine.modify_lo == -machine.modify_hi) {
    return std::to_string(machine.modify_range());
  }
  return "[" + std::to_string(machine.modify_lo) + ", " +
         std::to_string(machine.modify_hi) + "]";
}

int command_machines(const std::vector<std::string>& args,
                     std::ostream& out) {
  const MachinesOptions options = parse_machines_options(args);
  agu::MachineRegistry registry = agu::MachineRegistry::with_builtins();
  for (const std::string& path : options.machine_files) {
    registry.load_file(path);
  }
  if (!options.show.empty()) {
    const agu::MachineSpec machine = registry.get(options.show);
    if (options.format == OutputFormat::kJson) {
      out << agu::machine_to_json(machine).dump() << "\n";
    } else {
      // The canonical .machine text doubles as the human-readable view
      // and a valid --machine-file (parse(emit(spec)) == spec).
      out << agu::machine_to_text(machine);
    }
    return 0;
  }
  if (options.format == OutputFormat::kJson) {
    support::JsonValue list = support::JsonValue::array();
    for (const agu::AguSpec& machine : registry.all()) {
      list.push_back(agu::machine_to_json(machine));
    }
    out << list.dump() << "\n";
    return 0;
  }
  if (options.format == OutputFormat::kCsv) {
    support::CsvWriter csv(
        {"name", "K", "L", "M", "addressing", "description"});
    for (const agu::AguSpec& machine : registry.all()) {
      csv.add_row({machine.name,
                   std::to_string(machine.address_registers()),
                   std::to_string(machine.modify_registers()),
                   window_text(machine), to_string(machine.addressing),
                   machine.description});
    }
    out << csv.to_string();
    return 0;
  }
  support::Table table(
      {"name", "K", "L", "M", "addressing", "description"});
  for (const agu::AguSpec& machine : registry.all()) {
    table.add_row({machine.name,
                   std::to_string(machine.address_registers()),
                   std::to_string(machine.modify_registers()),
                   window_text(machine), to_string(machine.addressing),
                   machine.description});
  }
  out << table.to_string();
  return 0;
}

int command_kernels(const std::vector<std::string>& args,
                    std::ostream& out) {
  const ListOptions options = parse_list_options(args, "kernels");
  if (options.format == OutputFormat::kJson) {
    support::JsonValue list = support::JsonValue::array();
    for (const ir::Kernel& kernel : ir::builtin_kernels()) {
      support::JsonValue entry = support::JsonValue::object();
      entry.set("name", support::JsonValue::string(kernel.name()));
      entry.set("arrays",
                support::JsonValue::number(
                    static_cast<std::int64_t>(kernel.arrays().size())));
      entry.set("accesses",
                support::JsonValue::number(static_cast<std::int64_t>(
                    kernel.accesses().size())));
      entry.set("iterations",
                support::JsonValue::number(kernel.iterations()));
      entry.set("description",
                support::JsonValue::string(kernel.description()));
      list.push_back(std::move(entry));
    }
    out << list.dump() << "\n";
    return 0;
  }
  if (options.format == OutputFormat::kCsv) {
    support::CsvWriter csv({"name", "arrays", "accesses", "iterations",
                            "description"});
    for (const ir::Kernel& kernel : ir::builtin_kernels()) {
      csv.add_row({kernel.name(), std::to_string(kernel.arrays().size()),
                   std::to_string(kernel.accesses().size()),
                   std::to_string(kernel.iterations()),
                   kernel.description()});
    }
    out << csv.to_string();
    return 0;
  }
  support::Table table({"name", "arrays", "accesses", "iterations",
                        "description"});
  for (const ir::Kernel& kernel : ir::builtin_kernels()) {
    table.add_row({kernel.name(), std::to_string(kernel.arrays().size()),
                   std::to_string(kernel.accesses().size()),
                   std::to_string(kernel.iterations()),
                   kernel.description()});
  }
  out << table.to_string();
  return 0;
}

}  // namespace

std::string usage_text() {
  return R"(dspaddr — register-constrained address computation pipeline

usage: dspaddr <command> [options]

commands:
  run       Run one kernel through the whole pipeline
              --kernel <file>        workload file (.c or .kern) [required]
              --machine <name>       catalog AGU supplying K/L/M defaults
              --machine-file <file>  .machine file layered over the
                                     catalog (--machine may then name any
                                     machine it defines; without --machine
                                     its first machine runs)
              --registers <K>        address registers (overrides machine)
              --modify-range <M>     free post-modify range (overrides)
              --modify-registers <L> modify registers (overrides)
              --iterations <n>       simulated iterations (default: kernel)
              --layout <name>        memory-layout strategy (contiguous,
                                     declaration-padded, soa-liao, goa,
                                     or auto to race them)
              --strategy <name>      allocation strategy (two-phase, exact,
                                     naive, random-merge, round-robin,
                                     greedy-online, or auto to race them;
                                     see README "Portfolio racing")
              --phase2 <mode>        auto|exact|heuristic|tiled phase-2
                                     solver (default: auto — exact for
                                     small kernels; tiled = windowed
                                     exact solves, stitched)
              --phase2-jobs <n>      worker threads of the phase-2
                                     search (default: 1, at most 64;
                                     costs are identical at any level)
              --time-budget-ms <ms>  wall-clock cap of the exact search
                                     (default: 0 = node budget only)
              --jobs <n>             racers in flight when an axis is
                                     auto (default: all hardware
                                     threads; the winner is identical
                                     at any level)
              --race-budget-ms <ms>  wall-clock deadline of an auto
                                     race (default: 0 = run every
                                     racer to completion or early
                                     bound-cancellation)
              --format table|csv|json
                                     output format (default: table); json
                                     uses the serve response schema plus
                                     a per-call "timings" member
              --program              also print the address program
              --store <file>         persistent result store: repeats of
                                     earlier --store runs answer from
                                     the log instead of recomputing
              --store-fsync          fsync the store on every append
              --metrics-csv <file>   dump the metrics registry as CSV
                                     on exit
  batch     Sweep kernels x machines x registers x modify ranges
            x layouts x strategies
              --kernel <file>        workload file (repeatable)
              --builtin <names>      builtin kernels, comma list
              --machines <names>     machine names (default: the whole
                                     registry incl. --machine-file ones)
              --machine-file <file>  .machine file layered over the
                                     catalog (repeatable)
              --registers <list>     K values, comma list
              --modify-range <list>  M values, comma list
              --layout <list>        layout strategies, comma list
                                     (auto entries race per cell)
              --strategy <list>      allocation strategies, comma list
                                     (auto entries race per cell)
              --jobs <n>             worker threads (default: all
                                     hardware threads; CSV bytes never
                                     depend on the level)
              --race-budget-ms <ms>  wall-clock deadline of each auto
                                     cell's race (default: 0; nonzero
                                     trades deterministic auto rows
                                     for a latency cap)
              --phase2 <mode>        auto|exact|heuristic|tiled phase-2
                                     solver
              --phase2-jobs <n>      phase-2 search threads per row
                                     (default: 1, at most 64; cost
                                     columns never depend on the level)
              --time-budget-ms <ms>  wall-clock cap of the exact search
              --format csv|table     output format (default: csv)
              --out <file>           write output to a file
              --store <file>         persistent result store shared by
                                     the sweep's engine
              --store-fsync          fsync the store on every append
              --metrics-csv <file>   dump the metrics registry as CSV
                                     on exit
  compare   Run one kernel across a strategy set on a shared engine and
            print a cost/cycles delta table
              --kernel <name|file>   builtin kernel or workload file [required]
              --machine/--machine-file/--registers/--modify-range/
              --modify-registers     as in run
              --layout <list>        layouts to compare (default:
                                     contiguous); auto (alone) races
                                     every layout instead of gridding
              --strategy <list>      strategies (default: all
                                     registered); auto (alone) races
              --jobs <n>             grid worker threads, or racers in
                                     flight of an auto race (default:
                                     all hardware threads; grid bytes
                                     identical at any level)
              --race-budget-ms <ms>  wall-clock deadline of an auto
                                     race (default: 0 = none)
              --phase2, --time-budget-ms, --iterations as in run
              --format table|csv|json (default: table)
  serve     JSON-lines service loop: one request object per stdin line,
            one response object per stdout line, in input order
            whatever the concurrency (see README "Serving at scale")
              --cache-capacity <n>   engine result-cache size
                                     (default: 256, 0 disables)
              --jobs <n>             pipeline worker threads (default:
                                     all hardware threads; responses
                                     are byte-identical at any level)
              --max-iterations <n>   per-request cap on simulated
                                     iterations (default: 10000000);
                                     larger requests are rejected
                                     in-band
              --race-budget-ms <ms>  wall-clock deadline of each
                                     "auto" request's race (default:
                                     0; requests can override with a
                                     "race_budget_ms" member)
              --store <file>         persistent result store under the
                                     RAM cache: a restarted serve
                                     answers previously-seen requests
                                     from the log, byte-identically
              --store-fsync          fsync the store on every append
              --metrics-csv <file>   dump the metrics registry as CSV
                                     when the session ends
  machines  List the AGU machine registry (--format table|csv|json);
            `machines show <name>` prints one full declarative spec
            (.machine text, or --format json)
              --machine-file <file>  .machine file layered over the
                                     catalog (repeatable)
  kernels   List the builtin kernel library (--format table|csv|json)
  version   Print the tool version
  help      Print this text
)";
}

int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err) {
  if (args.empty()) {
    err << usage_text();
    return 2;
  }
  const std::string& command = args.front();
  const std::vector<std::string> rest(args.begin() + 1, args.end());
  try {
    if (command == "run") {
      return command_run(rest, out);
    }
    if (command == "batch") {
      return command_batch(rest, out);
    }
    if (command == "compare") {
      return command_compare(rest, out);
    }
    if (command == "serve") {
      return command_serve(rest, std::cin, out);
    }
    if (command == "machines") {
      return command_machines(rest, out);
    }
    if (command == "kernels") {
      return command_kernels(rest, out);
    }
    if (command == "version") {
      out << "dspaddr " << kVersion << "\n";
      return 0;
    }
    if (command == "help" || command == "--help" || command == "-h") {
      out << usage_text();
      return 0;
    }
    err << "dspaddr: unknown command '" << command << "'\n\n"
        << usage_text();
    return 2;
  } catch (const UsageError& e) {
    err << "dspaddr: " << e.what() << "\n\n" << usage_text();
    return 2;
  } catch (const Error& e) {
    err << "dspaddr: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace dspaddr::cli
