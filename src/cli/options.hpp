// Command-line option parsing for the dspaddr tool.
//
// Kept free of I/O so that flag handling is unit-testable: each parse_*
// function consumes the argument vector of one subcommand and either
// returns a fully-validated options struct or throws UsageError with a
// message the tool prints alongside the usage text.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/allocator.hpp"
#include "engine/strategy.hpp"
#include "support/check.hpp"

namespace dspaddr::cli {

/// Thrown on malformed command lines (unknown flag, missing value, ...).
class UsageError : public Error {
public:
  explicit UsageError(const std::string& what) : Error(what) {}
};

enum class OutputFormat {
  kTable,
  kCsv,
  /// engine::Result serialization, same schema as `serve` responses.
  kJson,
};

/// Parses "csv" / "table" / "json"; throws UsageError otherwise.
OutputFormat parse_format(const std::string& text);

/// Parses "auto" / "exact" / "heuristic" / "tiled"; throws UsageError
/// otherwise.
core::Phase2Options::Mode parse_phase2_mode(const std::string& text);

/// Default worker count of `--jobs`: the hardware concurrency, at
/// least 1. Shared by batch and serve so the two surfaces can never
/// disagree about what "use the machine" means.
std::size_t default_jobs();

/// Parses a `--jobs` value: a positive integer (0 and non-numeric
/// values are rejected with the same message on every subcommand).
std::size_t parse_jobs(const std::string& text);

/// Options of `dspaddr run`: one kernel through the whole pipeline.
struct RunOptions {
  std::string kernel_path;
  /// Builtin machine supplying defaults for K, L and M.
  std::optional<std::string> machine;
  /// `.machine` file layered over the catalog (--machine can then name
  /// any machine it defines; without --machine its first machine runs).
  std::optional<std::string> machine_file;
  /// Explicit overrides; win over the machine's values.
  std::optional<std::size_t> registers;
  std::optional<std::int64_t> modify_range;
  std::optional<std::size_t> modify_registers;
  /// Simulated loop iterations (default: the kernel's own count).
  std::optional<std::uint64_t> iterations;
  /// Memory-layout strategy (engine registry name, or "auto" to race
  /// every registered layout through the portfolio engine).
  std::string layout = engine::kDefaultLayout;
  /// Allocation strategy (engine registry name, or "auto").
  std::string strategy = engine::kDefaultStrategy;
  /// Phase-2 solver selection (auto: exact for small kernels).
  core::Phase2Options::Mode phase2 = core::Phase2Options::Mode::kAuto;
  /// Wall-clock budget of the exact phase-2 search; 0 = node cap only.
  std::int64_t time_budget_ms = 0;
  /// Tiled window width (--phase2-window): 0 keeps the default fixed
  /// width; N >= 8 sets it; "auto" enables per-window auto-tuning.
  std::size_t phase2_window = 0;
  bool phase2_window_auto = false;
  /// Racers in flight when a layout/strategy axis is "auto". The
  /// winner is identical at any level; only the wall clock moves.
  std::size_t jobs = default_jobs();
  /// Wall-clock deadline of an "auto" race in milliseconds; 0 = every
  /// racer runs to completion (or early bound-cancellation).
  std::int64_t race_budget_ms = 0;
  OutputFormat format = OutputFormat::kTable;
  /// Also print the generated address program.
  bool show_program = false;
  /// Persistent result store (store/result_store.hpp); empty = none.
  /// Repeated runs against the same file answer from the store.
  std::string store_path;
  /// fsync the store after every append (--store-fsync).
  bool store_fsync = false;
  /// Write the metrics registry as CSV to this path on exit; empty =
  /// no dump.
  std::string metrics_csv;
};

/// Options of `dspaddr batch`: a kernels x machines x K x M grid.
struct BatchOptions {
  /// Kernel files (repeatable --kernel).
  std::vector<std::string> kernel_paths;
  /// Builtin kernel names (comma list), e.g. "fir,biquad".
  std::vector<std::string> builtin_kernels;
  /// Machine names (comma list); empty = the whole registry (builtin
  /// catalog plus every --machine-file machine).
  std::vector<std::string> machines;
  /// `.machine` files layered over the catalog (repeatable).
  std::vector<std::string> machine_files;
  /// K values to sweep; empty = each machine's own K.
  std::vector<std::size_t> register_counts;
  /// M values to sweep; empty = each machine's own M.
  std::vector<std::int64_t> modify_ranges;
  /// Layout strategies to sweep (comma list); empty = default layout.
  /// "auto" entries race every registered layout per cell.
  std::vector<std::string> layouts;
  /// Allocation strategies to sweep; empty = default strategy. "auto"
  /// entries race every registered allocator per cell.
  std::vector<std::string> strategies;
  /// Worker threads of the grid runner; never affects the CSV bytes.
  std::size_t jobs = default_jobs();
  /// Wall-clock deadline of each cell's "auto" race; 0 = none. A
  /// deadline makes which racers finish timing-dependent, so it is the
  /// one batch flag that can change the CSV bytes of auto cells.
  std::int64_t race_budget_ms = 0;
  /// Phase-2 solver selection (auto: exact for small kernels).
  core::Phase2Options::Mode phase2 = core::Phase2Options::Mode::kAuto;
  /// Wall-clock budget of the exact phase-2 search; 0 = node cap only.
  std::int64_t time_budget_ms = 0;
  /// Tiled window width (--phase2-window): 0 = default fixed width,
  /// N >= 8 sets it, "auto" tunes per window.
  std::size_t phase2_window = 0;
  bool phase2_window_auto = false;
  OutputFormat format = OutputFormat::kCsv;
  /// Output file; empty = stdout.
  std::string output_path;
  /// Persistent result store shared by the sweep's engine; empty =
  /// none. A later sweep over the same file answers repeated cells
  /// from the store.
  std::string store_path;
  /// fsync the store after every append (--store-fsync).
  bool store_fsync = false;
  /// Write the metrics registry as CSV to this path on exit; empty =
  /// no dump.
  std::string metrics_csv;
};

/// Options of `dspaddr compare`: one kernel across a strategy set.
struct CompareOptions {
  /// Workload file path or builtin kernel name (files win on ambiguity).
  std::string kernel;
  /// Builtin machine supplying defaults for K, L and M.
  std::optional<std::string> machine;
  /// `.machine` file layered over the catalog.
  std::optional<std::string> machine_file;
  /// Explicit overrides; win over the machine's values.
  std::optional<std::size_t> registers;
  std::optional<std::int64_t> modify_range;
  std::optional<std::size_t> modify_registers;
  std::optional<std::uint64_t> iterations;
  /// Layouts to compare (comma list); empty = default layout. "auto"
  /// (alone) races every registered layout instead of gridding.
  std::vector<std::string> layouts;
  /// Allocation strategies to compare; empty = all registered. "auto"
  /// (alone) races every registered allocator instead of gridding.
  std::vector<std::string> strategies;
  core::Phase2Options::Mode phase2 = core::Phase2Options::Mode::kAuto;
  std::int64_t time_budget_ms = 0;
  /// Worker threads of the grid (or racers in flight of an "auto"
  /// race). Grid output bytes are identical at any level; an auto
  /// race's winner is too, but which losers show as cancelled is not.
  std::size_t jobs = default_jobs();
  /// Wall-clock deadline of an "auto" race; 0 = none.
  std::int64_t race_budget_ms = 0;
  OutputFormat format = OutputFormat::kTable;
};

/// Options of `dspaddr serve`: the pipelined JSON-lines request loop.
struct ServeOptions {
  /// Engine result-cache capacity (0 disables caching).
  std::size_t cache_capacity = 256;
  /// Worker threads of the request pipeline (reader thread → shared
  /// TaskPool → ordered writer). Responses always come back in input
  /// order, byte-identical whatever the level.
  std::size_t jobs = default_jobs();
  /// Per-request cap on the *effective* simulated iteration count;
  /// larger requests are rejected as in-band request errors so one
  /// huge request cannot stall the whole pipeline window.
  std::int64_t max_iterations = 10'000'000;
  /// Wall-clock deadline of each "auto" request's race (overridable
  /// per request by a "race_budget_ms" member); 0 = none.
  std::int64_t race_budget_ms = 0;
  /// Persistent result store under the RAM cache (--store=PATH); empty
  /// = RAM-only. A restarted serve against the same file warm-starts
  /// from it.
  std::string store_path;
  /// fsync the store after every append (--store-fsync).
  bool store_fsync = false;
  /// Write the metrics registry as CSV to this path on exit; empty =
  /// no dump.
  std::string metrics_csv;
};

/// Options of the read-only catalog listings (machines / kernels).
struct ListOptions {
  OutputFormat format = OutputFormat::kTable;
};

/// Options of `dspaddr machines`: the registry listing, plus
/// `machines show <name>` for one full declarative spec.
struct MachinesOptions {
  OutputFormat format = OutputFormat::kTable;
  /// `.machine` files layered over the catalog (repeatable).
  std::vector<std::string> machine_files;
  /// Name given to `machines show`; empty = list all.
  std::string show;
};

RunOptions parse_run_options(const std::vector<std::string>& args);
BatchOptions parse_batch_options(const std::vector<std::string>& args);
CompareOptions parse_compare_options(const std::vector<std::string>& args);
ServeOptions parse_serve_options(const std::vector<std::string>& args);
ListOptions parse_list_options(const std::vector<std::string>& args,
                               const std::string& command);
MachinesOptions parse_machines_options(const std::vector<std::string>& args);

/// Splits a comma list into non-empty fields ("a,b" -> {"a", "b"});
/// throws UsageError on empty fields.
std::vector<std::string> parse_name_list(const std::string& text,
                                         const std::string& flag);

/// Comma list of sizes, each >= `min_value`.
std::vector<std::size_t> parse_size_list(const std::string& text,
                                         const std::string& flag,
                                         std::size_t min_value);

/// Comma list of signed integers, each >= `min_value`.
std::vector<std::int64_t> parse_int_list(const std::string& text,
                                         const std::string& flag,
                                         std::int64_t min_value);

}  // namespace dspaddr::cli
