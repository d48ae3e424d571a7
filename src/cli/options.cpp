#include "cli/options.hpp"

#include <limits>
#include <thread>

#include "engine/portfolio.hpp"
#include "support/strings.hpp"

namespace dspaddr::cli {
namespace {

/// Cursor over one subcommand's arguments with flag-value helpers.
class ArgCursor {
public:
  explicit ArgCursor(const std::vector<std::string>& args) : args_(args) {}

  bool done() const { return index_ >= args_.size(); }
  const std::string& peek() const { return args_[index_]; }
  const std::string& take() { return args_[index_++]; }

  /// Consumes the value of flag `flag` (the next argument).
  std::string take_value(const std::string& flag) {
    if (done()) {
      throw UsageError("missing value for " + flag);
    }
    return take();
  }

private:
  const std::vector<std::string>& args_;
  std::size_t index_ = 0;
};

std::int64_t parse_int(const std::string& text, const std::string& flag,
                       std::int64_t min_value) {
  std::size_t consumed = 0;
  std::int64_t value = 0;
  try {
    value = std::stoll(text, &consumed);
  } catch (const std::exception&) {
    throw UsageError(flag + ": expected an integer, got '" + text + "'");
  }
  if (consumed != text.size()) {
    throw UsageError(flag + ": expected an integer, got '" + text + "'");
  }
  if (value < min_value) {
    throw UsageError(flag + ": value must be >= " +
                     std::to_string(min_value) + ", got " + text);
  }
  return value;
}

std::size_t parse_size(const std::string& text, const std::string& flag,
                       std::size_t min_value) {
  const std::int64_t value =
      parse_int(text, flag, static_cast<std::int64_t>(min_value));
  return static_cast<std::size_t>(value);
}

std::size_t parse_phase2_jobs(const std::string& text) {
  const std::size_t jobs = parse_size(text, "--phase2-jobs", 1);
  if (jobs > core::kMaxPhase2Jobs) {
    throw UsageError("--phase2-jobs: value must be <= " +
                     std::to_string(core::kMaxPhase2Jobs) + ", got " + text);
  }
  return jobs;
}

/// Recognizes `--flag value` and `--flag=value`; returns true and leaves
/// the value in `value` when `arg` matches `flag`.
bool match_flag(const std::string& arg, const std::string& flag,
                ArgCursor& cursor, std::string& value) {
  if (arg == flag) {
    value = cursor.take_value(flag);
    return true;
  }
  const std::string prefix = flag + "=";
  if (arg.rfind(prefix, 0) == 0) {
    value = arg.substr(prefix.size());
    return true;
  }
  return false;
}

}  // namespace

OutputFormat parse_format(const std::string& text) {
  if (text == "table") {
    return OutputFormat::kTable;
  }
  if (text == "csv") {
    return OutputFormat::kCsv;
  }
  if (text == "json") {
    return OutputFormat::kJson;
  }
  throw UsageError("--format: expected 'table', 'csv' or 'json', got '" +
                   text + "'");
}

namespace {

/// Validates one layout name against the engine registry; "auto" asks
/// the portfolio engine to race every registered layout.
std::string parse_layout_name(const std::string& text) {
  if (text == engine::kAutoStrategy) {
    return text;
  }
  if (engine::StrategyRegistry::builtin().layout(text) == nullptr) {
    throw UsageError("--layout: unknown layout strategy '" + text +
                     "' (auto, " + engine::known_layout_names() + ")");
  }
  return text;
}

/// Validates one allocation-strategy name against the engine registry;
/// "auto" races every registered allocator.
std::string parse_strategy_name(const std::string& text) {
  if (text == engine::kAutoStrategy) {
    return text;
  }
  if (engine::StrategyRegistry::builtin().allocation(text) == nullptr) {
    throw UsageError("--strategy: unknown allocation strategy '" + text +
                     "' (auto, " + engine::known_strategy_names() + ")");
  }
  return text;
}

std::vector<std::string> parse_layout_list(const std::string& text) {
  std::vector<std::string> layouts;
  for (const std::string& name : parse_name_list(text, "--layout")) {
    layouts.push_back(parse_layout_name(name));
  }
  return layouts;
}

std::vector<std::string> parse_strategy_list(const std::string& text) {
  std::vector<std::string> strategies;
  for (const std::string& name : parse_name_list(text, "--strategy")) {
    strategies.push_back(parse_strategy_name(name));
  }
  return strategies;
}

}  // namespace

std::size_t default_jobs() {
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 1 : static_cast<std::size_t>(hardware);
}

std::size_t parse_jobs(const std::string& text) {
  return parse_size(text, "--jobs", 1);
}

core::Phase2Options::Mode parse_phase2_mode(const std::string& text) {
  if (text == "auto") {
    return core::Phase2Options::Mode::kAuto;
  }
  if (text == "exact") {
    return core::Phase2Options::Mode::kExact;
  }
  if (text == "heuristic") {
    return core::Phase2Options::Mode::kHeuristic;
  }
  if (text == "tiled") {
    return core::Phase2Options::Mode::kTiled;
  }
  throw UsageError(
      "--phase2: expected 'auto', 'exact', 'heuristic' or 'tiled', got '" +
      text + "'");
}

std::vector<std::string> parse_name_list(const std::string& text,
                                         const std::string& flag) {
  std::vector<std::string> names;
  for (const std::string& field : support::split(text, ',')) {
    const std::string name{support::trim(field)};
    if (name.empty()) {
      throw UsageError(flag + ": empty name in list '" + text + "'");
    }
    names.push_back(name);
  }
  if (names.empty()) {
    throw UsageError(flag + ": expected a non-empty comma list");
  }
  return names;
}

std::vector<std::size_t> parse_size_list(const std::string& text,
                                         const std::string& flag,
                                         std::size_t min_value) {
  std::vector<std::size_t> values;
  for (const std::string& field : parse_name_list(text, flag)) {
    values.push_back(parse_size(field, flag, min_value));
  }
  return values;
}

std::vector<std::int64_t> parse_int_list(const std::string& text,
                                         const std::string& flag,
                                         std::int64_t min_value) {
  std::vector<std::int64_t> values;
  for (const std::string& field : parse_name_list(text, flag)) {
    values.push_back(parse_int(field, flag, min_value));
  }
  return values;
}

RunOptions parse_run_options(const std::vector<std::string>& args) {
  RunOptions options;
  ArgCursor cursor(args);
  std::string value;
  while (!cursor.done()) {
    const std::string arg = cursor.take();
    if (match_flag(arg, "--kernel", cursor, value)) {
      options.kernel_path = value;
    } else if (match_flag(arg, "--machine", cursor, value)) {
      options.machine = value;
    } else if (match_flag(arg, "--machine-file", cursor, value)) {
      options.machine_file = value;
    } else if (match_flag(arg, "--registers", cursor, value)) {
      options.registers = parse_size(value, "--registers", 1);
    } else if (match_flag(arg, "--modify-range", cursor, value)) {
      options.modify_range = parse_int(value, "--modify-range", 0);
    } else if (match_flag(arg, "--modify-registers", cursor, value)) {
      options.modify_registers = parse_size(value, "--modify-registers", 0);
    } else if (match_flag(arg, "--iterations", cursor, value)) {
      options.iterations = static_cast<std::uint64_t>(
          parse_int(value, "--iterations", 1));
    } else if (match_flag(arg, "--layout", cursor, value)) {
      options.layout = parse_layout_name(value);
    } else if (match_flag(arg, "--strategy", cursor, value)) {
      options.strategy = parse_strategy_name(value);
    } else if (match_flag(arg, "--phase2", cursor, value)) {
      options.phase2 = parse_phase2_mode(value);
    } else if (match_flag(arg, "--phase2-jobs", cursor, value)) {
      options.phase2_jobs = parse_phase2_jobs(value);
    } else if (match_flag(arg, "--phase2-window", cursor, value)) {
      if (value == "auto") {
        options.phase2_window_auto = true;
      } else {
        options.phase2_window = parse_size(value, "--phase2-window", 8);
      }
    } else if (match_flag(arg, "--time-budget-ms", cursor, value)) {
      options.time_budget_ms = parse_int(value, "--time-budget-ms", 0);
    } else if (match_flag(arg, "--jobs", cursor, value)) {
      options.jobs = parse_jobs(value);
    } else if (match_flag(arg, "--race-budget-ms", cursor, value)) {
      options.race_budget_ms = parse_int(value, "--race-budget-ms", 0);
    } else if (match_flag(arg, "--format", cursor, value)) {
      options.format = parse_format(value);
    } else if (arg == "--program") {
      options.show_program = true;
    } else if (match_flag(arg, "--store", cursor, value)) {
      options.store_path = value;
    } else if (arg == "--store-fsync") {
      options.store_fsync = true;
    } else if (match_flag(arg, "--metrics-csv", cursor, value)) {
      options.metrics_csv = value;
    } else {
      throw UsageError("run: unknown argument '" + arg + "'");
    }
  }
  if (options.kernel_path.empty()) {
    throw UsageError("run: --kernel <file> is required");
  }
  if (options.store_fsync && options.store_path.empty()) {
    throw UsageError("run: --store-fsync requires --store <file>");
  }
  return options;
}

BatchOptions parse_batch_options(const std::vector<std::string>& args) {
  BatchOptions options;
  ArgCursor cursor(args);
  std::string value;
  while (!cursor.done()) {
    const std::string arg = cursor.take();
    if (match_flag(arg, "--kernel", cursor, value)) {
      options.kernel_paths.push_back(value);
    } else if (match_flag(arg, "--builtin", cursor, value)) {
      const auto names = parse_name_list(value, "--builtin");
      options.builtin_kernels.insert(options.builtin_kernels.end(),
                                     names.begin(), names.end());
    } else if (match_flag(arg, "--machines", cursor, value)) {
      options.machines = parse_name_list(value, "--machines");
    } else if (match_flag(arg, "--machine-file", cursor, value)) {
      options.machine_files.push_back(value);
    } else if (match_flag(arg, "--registers", cursor, value)) {
      options.register_counts = parse_size_list(value, "--registers", 1);
    } else if (match_flag(arg, "--modify-range", cursor, value)) {
      options.modify_ranges = parse_int_list(value, "--modify-range", 0);
    } else if (match_flag(arg, "--layout", cursor, value)) {
      options.layouts = parse_layout_list(value);
    } else if (match_flag(arg, "--strategy", cursor, value)) {
      options.strategies = parse_strategy_list(value);
    } else if (match_flag(arg, "--jobs", cursor, value)) {
      options.jobs = parse_jobs(value);
    } else if (match_flag(arg, "--phase2", cursor, value)) {
      options.phase2 = parse_phase2_mode(value);
    } else if (match_flag(arg, "--phase2-jobs", cursor, value)) {
      options.phase2_jobs = parse_phase2_jobs(value);
    } else if (match_flag(arg, "--phase2-window", cursor, value)) {
      if (value == "auto") {
        options.phase2_window_auto = true;
      } else {
        options.phase2_window = parse_size(value, "--phase2-window", 8);
      }
    } else if (match_flag(arg, "--time-budget-ms", cursor, value)) {
      options.time_budget_ms = parse_int(value, "--time-budget-ms", 0);
    } else if (match_flag(arg, "--race-budget-ms", cursor, value)) {
      options.race_budget_ms = parse_int(value, "--race-budget-ms", 0);
    } else if (match_flag(arg, "--format", cursor, value)) {
      options.format = parse_format(value);
    } else if (match_flag(arg, "--out", cursor, value)) {
      options.output_path = value;
    } else if (match_flag(arg, "--store", cursor, value)) {
      options.store_path = value;
    } else if (arg == "--store-fsync") {
      options.store_fsync = true;
    } else if (match_flag(arg, "--metrics-csv", cursor, value)) {
      options.metrics_csv = value;
    } else {
      throw UsageError("batch: unknown argument '" + arg + "'");
    }
  }
  if (options.kernel_paths.empty() && options.builtin_kernels.empty()) {
    throw UsageError(
        "batch: at least one --kernel <file> or --builtin <names> is "
        "required");
  }
  if (options.format == OutputFormat::kJson) {
    throw UsageError(
        "batch: --format json is not supported (pipe requests through "
        "'dspaddr serve' for JSON-lines output)");
  }
  if (options.store_fsync && options.store_path.empty()) {
    throw UsageError("batch: --store-fsync requires --store <file>");
  }
  return options;
}

CompareOptions parse_compare_options(const std::vector<std::string>& args) {
  CompareOptions options;
  ArgCursor cursor(args);
  std::string value;
  while (!cursor.done()) {
    const std::string arg = cursor.take();
    if (match_flag(arg, "--kernel", cursor, value)) {
      options.kernel = value;
    } else if (match_flag(arg, "--machine", cursor, value)) {
      options.machine = value;
    } else if (match_flag(arg, "--machine-file", cursor, value)) {
      options.machine_file = value;
    } else if (match_flag(arg, "--registers", cursor, value)) {
      options.registers = parse_size(value, "--registers", 1);
    } else if (match_flag(arg, "--modify-range", cursor, value)) {
      options.modify_range = parse_int(value, "--modify-range", 0);
    } else if (match_flag(arg, "--modify-registers", cursor, value)) {
      options.modify_registers = parse_size(value, "--modify-registers", 0);
    } else if (match_flag(arg, "--iterations", cursor, value)) {
      options.iterations = static_cast<std::uint64_t>(
          parse_int(value, "--iterations", 1));
    } else if (match_flag(arg, "--layout", cursor, value)) {
      options.layouts = parse_layout_list(value);
    } else if (match_flag(arg, "--strategy", cursor, value)) {
      options.strategies = parse_strategy_list(value);
    } else if (match_flag(arg, "--phase2", cursor, value)) {
      options.phase2 = parse_phase2_mode(value);
    } else if (match_flag(arg, "--time-budget-ms", cursor, value)) {
      options.time_budget_ms = parse_int(value, "--time-budget-ms", 0);
    } else if (match_flag(arg, "--jobs", cursor, value)) {
      options.jobs = parse_jobs(value);
    } else if (match_flag(arg, "--race-budget-ms", cursor, value)) {
      options.race_budget_ms = parse_int(value, "--race-budget-ms", 0);
    } else if (match_flag(arg, "--format", cursor, value)) {
      options.format = parse_format(value);
    } else {
      throw UsageError("compare: unknown argument '" + arg + "'");
    }
  }
  if (options.kernel.empty()) {
    throw UsageError("compare: --kernel <file-or-builtin> is required");
  }
  // An "auto" axis already races every candidate; gridding it against
  // other names would double-run the same cells ambiguously.
  for (const std::vector<std::string>* list :
       {&options.layouts, &options.strategies}) {
    if (list->size() > 1) {
      for (const std::string& name : *list) {
        if (name == engine::kAutoStrategy) {
          throw UsageError(
              "compare: 'auto' must be the only value of its list (it "
              "already covers every registered candidate)");
        }
      }
    }
  }
  return options;
}

ServeOptions parse_serve_options(const std::vector<std::string>& args) {
  ServeOptions options;
  ArgCursor cursor(args);
  std::string value;
  while (!cursor.done()) {
    const std::string arg = cursor.take();
    if (match_flag(arg, "--cache-capacity", cursor, value)) {
      options.cache_capacity = parse_size(value, "--cache-capacity", 0);
    } else if (match_flag(arg, "--jobs", cursor, value)) {
      options.jobs = parse_jobs(value);
    } else if (match_flag(arg, "--max-iterations", cursor, value)) {
      options.max_iterations = parse_int(value, "--max-iterations", 1);
    } else if (match_flag(arg, "--race-budget-ms", cursor, value)) {
      options.race_budget_ms = parse_int(value, "--race-budget-ms", 0);
    } else if (match_flag(arg, "--store", cursor, value)) {
      options.store_path = value;
    } else if (arg == "--store-fsync") {
      options.store_fsync = true;
    } else if (match_flag(arg, "--metrics-csv", cursor, value)) {
      options.metrics_csv = value;
    } else {
      throw UsageError("serve: unknown argument '" + arg + "'");
    }
  }
  if (options.store_fsync && options.store_path.empty()) {
    throw UsageError("serve: --store-fsync requires --store <file>");
  }
  return options;
}

MachinesOptions parse_machines_options(const std::vector<std::string>& args) {
  MachinesOptions options;
  ArgCursor cursor(args);
  std::string value;
  bool show_seen = false;
  while (!cursor.done()) {
    const std::string arg = cursor.take();
    if (match_flag(arg, "--format", cursor, value)) {
      options.format = parse_format(value);
    } else if (match_flag(arg, "--machine-file", cursor, value)) {
      options.machine_files.push_back(value);
    } else if (arg == "show") {
      if (show_seen) {
        throw UsageError("machines: 'show' given twice");
      }
      options.show = cursor.take_value("machines show");
      show_seen = true;
    } else {
      throw UsageError("machines: unknown argument '" + arg + "'");
    }
  }
  return options;
}

ListOptions parse_list_options(const std::vector<std::string>& args,
                               const std::string& command) {
  ListOptions options;
  ArgCursor cursor(args);
  std::string value;
  while (!cursor.done()) {
    const std::string arg = cursor.take();
    if (match_flag(arg, "--format", cursor, value)) {
      options.format = parse_format(value);
    } else {
      throw UsageError(command + ": unknown argument '" + arg + "'");
    }
  }
  return options;
}

}  // namespace dspaddr::cli
