// JSON serialization of engine results and requests.
//
// One schema backs every machine-readable surface: `dspaddr run
// --format=json` emits exactly the object a `dspaddr serve` response
// carries (serve adds an optional "id" echo, run appends "timings" and,
// for a race, "portfolio"), and the persistent store's record
// (engine/result_codec.hpp) holds the same members after "machine".
// One writer produces them all: append_result_members appends a
// Result's members straight to a string, with no JsonValue tree. The
// serialization is deterministic — member order is fixed and per-call
// data (cache_hit, wall times) is deliberately excluded, so identical
// requests always produce byte-identical lines; the serve CI smoke
// depends on this.
//
// Schema (stages appear only when they ran; `error` only on failure):
//   {"kernel": {"name", "arrays", "accesses", "iterations", "data_ops"},
//    "machine": {"name", "description", "classes", "modify_lo",
//                "modify_hi", "inc", "dec", "addressing",
//                "registers", "modify_registers", "modify_range"}
//               (the full declarative spec, agu::machine_to_json),
//    "layout": "contiguous",
//    "strategy": "two-phase",
//    "stop_after": "metrics",
//    "error": {"stage", "message"},
//    "stages": {
//      "lower":    {"accesses", "layout_extent"},
//      "allocate": {"k_tilde", "cost", "intra_cost", "wrap_cost",
//                   "phase1_exact", "merges",
//                   "phase2": {"exact", "proven", "gap", "lower_bound",
//                              "nodes", "table_cap_hits",
//                              "subtree_tasks", "steals",
//                              "steal_attempts", "splits", "windows",
//                              "windows_proven", "window_widths"}},
//      "plan":     {"modify_registers": [{"value", "covered"}, ...],
//                   "covered_per_iteration", "residual_cost"},
//      "codegen":  {"setup_instructions", "body_instructions",
//                   "setup_address_words", "body_address_words"},
//      "simulate": {"iterations", "verified", "failure",
//                   "accesses_executed", "extra_instructions",
//                   "address_cycles"},
//      "metrics":  {"baseline_size_words", "optimized_size_words",
//                   "baseline_cycles", "optimized_cycles",
//                   "size_reduction_percent",
//                   "speed_reduction_percent"}}}
#pragma once

#include <string>

#include "engine/engine.hpp"
#include "engine/portfolio.hpp"
#include "ir/kernel.hpp"
#include "support/json.hpp"

namespace dspaddr::engine {

/// Appends `result`'s members after "machine" — "layout", "strategy",
/// "stop_after", the optional "error" and "stages" with one member per
/// completed stage — separated by commas, without enclosing braces.
/// The only writer of a Result: result_to_json_line wraps these members
/// in the kernel and machine, encode_result in the record version and
/// its "detail".
void append_result_members(std::string& out, const Result& result);

/// The one-line response (see the schema above, no trailing newline):
/// {"kernel":…,"machine":…, then append_result_members, then }.
std::string result_to_json_line(const Result& result);

/// result_to_json_line parsed back into a tree, for callers that want
/// to walk the response.
support::JsonValue result_to_json(const Result& result);

/// The cache counters as a JSON object — the serve `{"stats":true}`
/// response body: aggregate {"hits", "misses", "evictions", "entries",
/// "capacity"} plus a "shards" array with the same fields per shard.
support::JsonValue cache_stats_to_json(const CacheStats& stats);

/// Persistent-store counters as a JSON object: {"records", "bytes",
/// "recovered_records", "appended_records", "appended_bytes",
/// "truncated_bytes", "shadowed_bytes", "compactions",
/// "compacted_bytes", "hits", "misses"}.
support::JsonValue store_stats_to_json(const store::StoreStats& stats);

/// Portfolio counters as a JSON object: {"races", "short_circuits",
/// "reraces", "learned_entries"} — the deterministic subset (see
/// engine::PortfolioStats); cancellation counts are timing-dependent
/// and live only in the metrics registry.
support::JsonValue portfolio_stats_to_json(const PortfolioStats& stats);

/// The serve `{"metrics":true}` response body: {"counters": {name:
/// value}, "gauges": {name: {"value", "max"}}, "histograms": {name:
/// {"count", "sum_us", "max_us", "p50_us", "p95_us", "p99_us"}},
/// "cache": cache_stats_to_json (sans shards), "store":
/// store_stats_to_json (only when `store` is non-null)}. Member order
/// follows instrument registration order — the schema is deterministic;
/// the values are wall-clock measurements and are never byte-compared.
support::JsonValue metrics_report_json(const obs::RegistrySnapshot& snapshot,
                                       const CacheStats& cache,
                                       const store::StoreStats* store);

/// The --metrics-csv rendering of the same report: header
/// `kind,name,count,sum_us,max_us,p50_us,p95_us,p99_us,value,max`, one
/// row per instrument (unused columns empty), then cache.* / store.*
/// counters as counter rows. Ends with a newline.
std::string metrics_report_csv(const obs::RegistrySnapshot& snapshot,
                               const CacheStats& cache,
                               const store::StoreStats* store);

/// Writes metrics_report_csv for `engine` (registry snapshot, cache
/// counters, store counters when attached) to `path` — the shared
/// implementation of every surface's --metrics-csv flag. Throws Error
/// when the file cannot be written.
void write_metrics_csv(const std::string& path, const Engine& engine);

/// Parses an inline kernel object:
///   {"name"?, "description"?, "iterations"?, "data_ops"?,
///    "arrays": [{"name", "size"}, ...],
///    "accesses": [{"array", "offset"?, "stride"?, "write"?}, ...]}
/// Throws Error on malformed input.
ir::Kernel kernel_from_json(const support::JsonValue& json);

}  // namespace dspaddr::engine
