// `dspaddr serve` — the pipelined JSON-lines optimization service.
//
// Reads one JSON request object per input line, answers with one JSON
// response object per output line (flushed per line), and keeps a
// single engine::Engine alive for the whole session so repeated
// requests hit the fingerprint cache. Requests are computed
// concurrently on `--jobs` runtime::TaskPool workers behind a reader
// thread, and a runtime::OrderedCollector re-sequences the responses,
// so output order — and, thanks to the cache's single-flight misses,
// every byte including `stats` counters — is identical whatever the
// jobs level. A bounded in-flight window backpressures the reader so
// one slow request cannot buffer unbounded work. This turns the
// binary into a long-lived service a frontend can keep a pipe to:
//
//   $ printf '%s\n' '{"builtin":"fir","machine":"wide4"}' | dspaddr serve
//
// Request object (one per line):
//   exactly one kernel source:
//     "builtin": "<name>"          builtin kernel (see `dspaddr kernels`)
//     "kernel_file": "<path>"      workload file (.c or .kern)
//     "kernel": {...}              inline kernel (engine/serialize.hpp)
//   optional:
//     "id": <any>                  echoed back verbatim in the response
//     "machine": "<name>"          builtin AGU supplying K/L/M defaults
//     "registers" / "modify_range" / "modify_registers": overrides
//     "iterations": <n>            simulated iterations
//     "phase2": "auto"|"exact"|"heuristic"|"tiled",
//     "phase2_window": <width >= 8>|"auto", "time_budget_ms": <ms>
//     "stop_after": "<stage>"      run a pipeline prefix
//   special (drains the pipeline first, so counters are settled):
//     {"stats": true}              answers {"stats": {hits, misses,
//                                  evictions, entries, capacity,
//                                  shards: [...], phase2: {...},
//                                  store: {...} (with --store)}}
//     {"clear_cache": true}        drops the RAM result cache; answers
//                                  {"cleared": true, "dropped": <n>}
//                                  (the --store log is untouched)
//     {"metrics": true}            answers {"metrics": {counters,
//                                  gauges, histograms, cache, store}}
//                                  — engine/serialize.hpp
//                                  metrics_report_json; schema
//                                  deterministic, values wall-clock
//
// With --store=PATH the engine runs two-tier: RAM LRU over the
// persistent result log (store/result_store.hpp), so a restarted serve
// session answers previously-seen requests from disk, byte-identically
// and with zero phase-2 work. --metrics-csv=PATH dumps the metrics
// registry as CSV when the session ends.
//
// Responses carry the engine::Result schema of engine/serialize.hpp
// (plus the "id" echo). A malformed request produces
// {"error": {"stage": "request", "message": ...}} and the loop
// continues — one bad line never takes the service down.
#pragma once

#include <istream>
#include <ostream>

#include "cli/options.hpp"

namespace dspaddr::cli {

/// Runs the serve loop until EOF on `in`; returns the process exit
/// code (0 — per-request failures are reported in-band).
int run_serve(std::istream& in, std::ostream& out,
              const ServeOptions& options);

}  // namespace dspaddr::cli
