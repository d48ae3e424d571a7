#include "cli/serve.hpp"

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>

#include "cli/kernel_io.hpp"
#include "cli/machine_resolve.hpp"
#include "engine/engine.hpp"
#include "engine/portfolio.hpp"
#include "engine/serialize.hpp"
#include "engine/strategy.hpp"
#include "ir/kernels.hpp"
#include "obs/metrics.hpp"
#include "runtime/ordered_collector.hpp"
#include "runtime/task_pool.hpp"
#include "store/result_store.hpp"
#include "support/check.hpp"
#include "support/json.hpp"
#include "support/strings.hpp"

namespace dspaddr::cli {
namespace {

using support::JsonValue;

/// Keys a request object may carry; anything else is a hard error so
/// that a typo ("machne") fails loudly instead of being ignored.
constexpr const char* kKnownKeys[] = {
    "id",          "stats",      "clear_cache",
    "metrics",     "builtin",    "kernel_file",
    "kernel",      "machine",    "machine_file",
    "machine_spec", "registers", "modify_range",
    "modify_registers", "iterations", "phase2",
    "phase2_jobs", "phase2_window",
    "time_budget_ms", "stop_after",
    "layout",      "strategy",   "race_budget_ms",
};

void check_known_keys(const JsonValue& json) {
  for (const JsonValue::Member& member : json.members()) {
    bool known = false;
    for (const char* key : kKnownKeys) {
      if (member.first == key) {
        known = true;
        break;
      }
    }
    check_arg(known, "unknown request field '" + member.first + "'");
  }
}

std::int64_t int_field(const JsonValue& json, const char* key,
                       std::int64_t min_value, std::int64_t fallback) {
  const JsonValue* value = json.find(key);
  if (value == nullptr) {
    return fallback;
  }
  const std::int64_t parsed = value->as_int();
  check_arg(parsed >= min_value,
            std::string(key) + ": value must be >= " +
                std::to_string(min_value));
  return parsed;
}

ir::Kernel kernel_from_request(const JsonValue& json) {
  const JsonValue* builtin = json.find("builtin");
  const JsonValue* file = json.find("kernel_file");
  const JsonValue* inline_kernel = json.find("kernel");
  const int sources = (builtin != nullptr) + (file != nullptr) +
                      (inline_kernel != nullptr);
  check_arg(sources == 1,
            "request needs exactly one of 'builtin', 'kernel_file' or "
            "'kernel'");
  if (builtin != nullptr) {
    return ir::builtin_kernel(builtin->as_string());
  }
  if (file != nullptr) {
    return load_kernel_file(file->as_string());
  }
  return engine::kernel_from_json(*inline_kernel);
}

agu::AguSpec machine_from_request(const JsonValue& json) {
  // The serve surface resolves machines exactly like run/batch: name
  // layered over files, inline specs exclusive with both, numeric
  // overrides last.
  MachineSelector selector;
  selector.default_description = "request-defined AGU";
  if (const JsonValue* name = json.find("machine")) {
    selector.name = name->as_string();
  }
  if (const JsonValue* file = json.find("machine_file")) {
    selector.file = file->as_string();
  }
  selector.inline_spec = json.find("machine_spec");
  if (json.find("registers") != nullptr) {
    selector.registers =
        static_cast<std::size_t>(int_field(json, "registers", 1, 1));
  }
  if (json.find("modify_range") != nullptr) {
    selector.modify_range = int_field(json, "modify_range", 0, 0);
  }
  if (json.find("modify_registers") != nullptr) {
    selector.modify_registers =
        static_cast<std::size_t>(int_field(json, "modify_registers", 0, 0));
  }
  return resolve_machine(selector);
}

engine::Request request_from_json(const JsonValue& json,
                                  std::int64_t max_iterations) {
  engine::Request request;
  request.kernel = kernel_from_request(json);
  request.machine = machine_from_request(json);
  if (const JsonValue* iterations = json.find("iterations")) {
    const std::int64_t value = iterations->as_int();
    check_arg(value >= 1, "iterations: value must be >= 1");
    request.iterations = static_cast<std::uint64_t>(value);
  }
  if (const JsonValue* layout = json.find("layout")) {
    request.layout = layout->as_string();
    check_arg(request.layout == engine::kAutoStrategy ||
                  engine::StrategyRegistry::builtin().layout(
                      request.layout) != nullptr,
              "layout: unknown strategy '" + request.layout + "' (auto, " +
                  engine::known_layout_names() + ")");
  }
  if (const JsonValue* strategy = json.find("strategy")) {
    request.strategy = strategy->as_string();
    check_arg(request.strategy == engine::kAutoStrategy ||
                  engine::StrategyRegistry::builtin().allocation(
                      request.strategy) != nullptr,
              "strategy: unknown strategy '" + request.strategy +
                  "' (auto, " + engine::known_strategy_names() + ")");
  }
  check_arg(json.find("race_budget_ms") == nullptr ||
                engine::Portfolio::is_auto(request),
            "race_budget_ms: only meaningful when layout or strategy is "
            "'auto'");
  if (const JsonValue* phase2 = json.find("phase2")) {
    request.phase2.mode = parse_phase2_mode(phase2->as_string());
  }
  // Defaults to 1 (sequential): a jobs level changes only diagnostics,
  // never costs, but cached/batched responses must stay reproducible
  // unless a request opts in.
  const std::int64_t phase2_jobs = int_field(json, "phase2_jobs", 1, 1);
  check_arg(phase2_jobs <= static_cast<std::int64_t>(core::kMaxPhase2Jobs),
            "phase2_jobs: value must be <= " +
                std::to_string(core::kMaxPhase2Jobs));
  request.phase2.jobs = static_cast<std::size_t>(phase2_jobs);
  // "phase2_window": a width (>= 8) or the string "auto" — the same
  // surface as the CLI's --phase2-window.
  if (const JsonValue* window = json.find("phase2_window")) {
    if (window->is_string()) {
      check_arg(window->as_string() == "auto",
                "phase2_window: expected a width >= 8 or \"auto\"");
      request.phase2.tile_width_auto = true;
    } else {
      const std::int64_t width = window->as_int();
      check_arg(width >= 8, "phase2_window: expected a width >= 8");
      request.phase2.tile_width = static_cast<std::size_t>(width);
    }
  }
  request.phase2.time_budget_ms = int_field(json, "time_budget_ms", 0, 0);
  if (const JsonValue* stop_after = json.find("stop_after")) {
    const std::optional<engine::Stage> stage =
        engine::stage_from_name(stop_after->as_string());
    check_arg(stage.has_value(),
              "stop_after: unknown stage '" + stop_after->as_string() +
                  "' (lower, allocate, plan, codegen, simulate, metrics)");
    request.stop_after = *stage;
  }
  // The simulator is O(iterations); a long-lived service must bound
  // the work one request can demand (--max-iterations), or a single
  // huge request stalls everything queued behind it. Cap the
  // *effective* simulated count when the simulate stage will run:
  // without an override the simulator uses the kernel's own
  // iterations, which an inline kernel or a workload file controls
  // just as freely as the "iterations" field.
  if (request.stop_after >= engine::Stage::kSimulate) {
    const std::uint64_t effective_iterations = request.iterations.value_or(
        static_cast<std::uint64_t>(request.kernel.iterations()));
    check_arg(effective_iterations <=
                  static_cast<std::uint64_t>(max_iterations),
              "iterations: effective count " +
                  std::to_string(effective_iterations) + " exceeds the " +
                  std::to_string(max_iterations) +
                  " per-request serve limit (--max-iterations)");
  }
  return request;
}

/// What one input line asks for. Control lines (stats, clear_cache,
/// metrics) observe or mutate the whole engine, so the pipeline drains
/// before they run — that is what keeps their counters deterministic
/// whatever the --jobs level.
enum class RequestKind { kPipeline, kStats, kClearCache, kMetrics };

RequestKind classify(const JsonValue& json) {
  const JsonValue* stats = json.find("stats");
  if (stats != nullptr && stats->as_bool()) {
    return RequestKind::kStats;
  }
  const JsonValue* clear_cache = json.find("clear_cache");
  if (clear_cache != nullptr && clear_cache->as_bool()) {
    return RequestKind::kClearCache;
  }
  const JsonValue* metrics = json.find("metrics");
  if (metrics != nullptr && metrics->as_bool()) {
    return RequestKind::kMetrics;
  }
  return RequestKind::kPipeline;
}

JsonValue error_response(const JsonValue* id, const std::string& message) {
  JsonValue response = JsonValue::object();
  if (id != nullptr) {
    response.set("id", *id);
  }
  JsonValue error = JsonValue::object();
  error.set("stage", JsonValue::string("request"));
  error.set("message", JsonValue::string(message));
  response.set("error", std::move(error));
  return response;
}

/// Runs one pipeline request end to end (worker-side). Never throws:
/// every failure is folded into the in-band error member.
std::string pipeline_response(const JsonValue& request_json,
                              engine::Engine& engine,
                              engine::Portfolio& portfolio,
                              std::int64_t max_iterations) {
  try {
    check_known_keys(request_json);
    const engine::Request request =
        request_from_json(request_json, max_iterations);
    engine::Result result;
    if (engine::Portfolio::is_auto(request)) {
      // An auto request races through the shared portfolio (which
      // learns across the session's traffic); the response carries the
      // winner's result, with the resolved layout/strategy members
      // showing what "auto" picked.
      std::optional<std::int64_t> budget;
      if (request_json.find("race_budget_ms") != nullptr) {
        budget = int_field(request_json, "race_budget_ms", 0, 0);
      }
      result = portfolio.run(request, nullptr, budget);
    } else {
      result = engine.run(request);
    }
    // The response is exactly the --format=json object, with the "id"
    // echo (when the request has one) spliced in as its first member.
    // result_to_json never has an "id" member and always has others.
    std::string response = engine::result_to_json_line(result);
    if (const JsonValue* id = request_json.find("id")) {
      response.replace(0, 1, "{\"id\":" + id->dump() + ",");
    }
    return response;
  } catch (const std::exception& e) {
    // Echo the id even on a rejected request, so clients can still
    // correlate it with its response.
    return error_response(request_json.find("id"), e.what()).dump();
  }
}

/// Handles a stats / clear_cache control line (reader-side, after the
/// pipeline drained). Never throws.
std::string control_response(const JsonValue& request_json,
                             RequestKind kind, engine::Engine& engine,
                             engine::Portfolio& portfolio) {
  JsonValue response = JsonValue::object();
  try {
    if (const JsonValue* id = request_json.find("id")) {
      response.set("id", *id);
    }
    check_known_keys(request_json);
    if (kind == RequestKind::kStats) {
      // A stats probe carries nothing but itself (and an id).
      for (const JsonValue::Member& member : request_json.members()) {
        check_arg(member.first == "stats" || member.first == "id",
                  "stats request cannot carry field '" + member.first +
                      "'");
      }
      JsonValue stats =
          engine::cache_stats_to_json(engine.cache_stats());
      // Aggregate phase-2 work alongside the cache counters: the
      // engine's `engine.phase2.*` counters, prefix stripped, in
      // registration order. Both are deterministic in the request
      // sequence (single-flight), so the whole stats line stays
      // byte-identical across --jobs levels.
      constexpr std::string_view kPhase2 = "engine.phase2.";
      JsonValue phase2 = JsonValue::object();
      for (const auto& [name, value] : engine.metrics()->snapshot().counters) {
        if (name.compare(0, kPhase2.size(), kPhase2) == 0) {
          phase2.set(name.substr(kPhase2.size()),
                     JsonValue::number(static_cast<std::int64_t>(value)));
        }
      }
      stats.set("phase2", std::move(phase2));
      if (engine.store() != nullptr) {
        stats.set("store",
                  engine::store_stats_to_json(engine.store()->stats()));
      }
      // Portfolio counters are deterministic in the request sequence
      // like the rest of the stats line (races and short-circuits are
      // decided by traffic, not scheduling).
      stats.set("portfolio",
                engine::portfolio_stats_to_json(portfolio.stats()));
      response.set("stats", std::move(stats));
    } else if (kind == RequestKind::kMetrics) {
      for (const JsonValue::Member& member : request_json.members()) {
        check_arg(member.first == "metrics" || member.first == "id",
                  "metrics request cannot carry field '" + member.first +
                      "'");
      }
      const store::StoreStats store_stats =
          engine.store() != nullptr ? engine.store()->stats()
                                    : store::StoreStats{};
      response.set("metrics",
                   engine::metrics_report_json(
                       engine.metrics()->snapshot(), engine.cache_stats(),
                       engine.store() != nullptr ? &store_stats : nullptr));
    } else {
      // The control mirror of {"stats": true}: long sessions drop the
      // result cache in-band instead of restarting the process.
      for (const JsonValue::Member& member : request_json.members()) {
        check_arg(member.first == "clear_cache" || member.first == "id",
                  "clear_cache request cannot carry field '" +
                      member.first + "'");
      }
      const std::size_t dropped = engine.clear_cache();
      response.set("cleared", JsonValue::boolean(true));
      response.set("dropped",
                   JsonValue::number(static_cast<std::int64_t>(dropped)));
    }
  } catch (const std::exception& e) {
    return error_response(request_json.find("id"), e.what()).dump();
  }
  return response.dump();
}

/// Joins a thread on scope exit so that an exception on the reader
/// path can never leak a running writer (which would std::terminate).
class JoinGuard {
 public:
  explicit JoinGuard(std::thread thread) : thread_(std::move(thread)) {}
  ~JoinGuard() {
    if (thread_.joinable()) {
      thread_.join();
    }
  }

 private:
  std::thread thread_;
};

}  // namespace

int run_serve(std::istream& in, std::ostream& out,
              const ServeOptions& options) {
  // One registry for the whole session: the engine registers its
  // instruments first (construction), the transport's own follow — a
  // fixed registration order, so the metrics schema is deterministic.
  engine::Engine::Options engine_options;
  engine_options.cache_capacity = options.cache_capacity;
  engine_options.metrics = std::make_shared<obs::Registry>();
  if (!options.store_path.empty()) {
    // A bad store path (unwritable, foreign version) fails the whole
    // command loudly before any request is read — it cannot silently
    // degrade to RAM-only.
    engine_options.store = std::make_shared<store::ResultStore>(
        store::ResultStore::Options{options.store_path,
                                    options.store_fsync});
  }
  engine::Engine engine(std::move(engine_options));
  // The session's one portfolio: auto requests race through it and it
  // learns winners across the whole traffic mix. Registered after the
  // engine's instruments and before the transport's, so the metrics
  // schema stays registration-order deterministic.
  engine::PortfolioOptions portfolio_options;
  portfolio_options.jobs = options.jobs < 1 ? 1 : options.jobs;
  portfolio_options.race_budget_ms = options.race_budget_ms;
  engine::Portfolio portfolio(engine, portfolio_options);
  obs::Counter& requests_total =
      engine.metrics()->counter("serve.requests");
  obs::Counter& control_total =
      engine.metrics()->counter("serve.control_lines");
  obs::Gauge& inflight_gauge = engine.metrics()->gauge("serve.inflight");
  obs::Gauge& queue_depth_gauge =
      engine.metrics()->gauge("serve.queue_depth");
  const std::size_t jobs = options.jobs < 1 ? 1 : options.jobs;
  // The in-flight window: requests submitted but not yet written. It
  // bounds both the task queue and the results parked in the ordered
  // collector behind a slow request, so memory stays O(jobs) however
  // fast the client streams lines in.
  const std::size_t window = 4 * jobs;

  // Declared before the pool so teardown is safe on every path: the
  // pool's destructor joins its workers (which push into the
  // collector) before the collector dies.
  runtime::OrderedCollector<std::string> collector;
  std::mutex flight_mutex;
  std::condition_variable flight_freed;
  std::size_t in_flight = 0;

  runtime::TaskPool pool(jobs, window);

  std::thread writer_thread([&] {
    // One line per response, flushed immediately and strictly in input
    // order: callers block on the answer to their last request, not on
    // a buffer boundary, and never see reordered answers. The catch
    // keeps a teardown-path pop failure (e.g. a sequence gap after an
    // aborted session) from terminating the process.
    try {
      std::string line;
      while (collector.pop(line)) {
        out << line << "\n" << std::flush;
        {
          std::lock_guard<std::mutex> lock(flight_mutex);
          --in_flight;
          inflight_gauge.record(static_cast<std::int64_t>(in_flight));
        }
        flight_freed.notify_all();
      }
    } catch (const std::exception&) {
      // The reader's own failure is what gets reported; just exit.
    }
  });
  JoinGuard writer_joiner{std::move(writer_thread)};
  // close() is idempotent-safe here: normal shutdown below closes the
  // collector before the guard joins; on an exception the guard would
  // hang without this second chance, so close on every path.
  struct CloseGuard {
    runtime::OrderedCollector<std::string>& collector;
    ~CloseGuard() { collector.close(); }
  } collector_closer{collector};

  // A task that failed to push its response (the pool captured the
  // exception) leaves a permanent gap in the sequence; surfacing it
  // here turns what would be a silent wedge of writer and window into
  // a loud process failure. The timed wait is the polling hook.
  const auto surface_task_failure = [&] {
    if (pool.failure_count() > 0) {
      pool.rethrow_first_failure();
    }
  };
  const auto acquire_slot = [&] {
    std::unique_lock<std::mutex> lock(flight_mutex);
    while (in_flight >= window) {
      surface_task_failure();
      flight_freed.wait_for(lock, std::chrono::milliseconds(50));
    }
    ++in_flight;
    inflight_gauge.record(static_cast<std::int64_t>(in_flight));
  };
  const auto drain = [&] {
    std::unique_lock<std::mutex> lock(flight_mutex);
    while (in_flight != 0) {
      surface_task_failure();
      flight_freed.wait_for(lock, std::chrono::milliseconds(50));
    }
  };

  std::size_t seq = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (support::trim(line).empty()) {
      continue;
    }
    // Parse on the reader thread — it is cheap next to the pipeline
    // and control lines must be told apart before dispatch. A line
    // that does not even parse is answered directly.
    JsonValue request_json;
    RequestKind kind = RequestKind::kPipeline;
    std::string early_error;
    try {
      request_json = JsonValue::parse(line);
      check_arg(request_json.is_object(), "request must be a JSON object");
      kind = classify(request_json);
    } catch (const std::exception& e) {
      early_error = e.what();
    }

    if (!early_error.empty()) {
      const JsonValue* id =
          request_json.is_object() ? request_json.find("id") : nullptr;
      acquire_slot();
      collector.push(seq++, error_response(id, early_error).dump());
      continue;
    }
    if (kind != RequestKind::kPipeline) {
      // Quiesce the pipeline so the probe observes (or clears) a
      // settled cache: the counters then depend only on the request
      // sequence, never on worker interleaving.
      drain();
      control_total.add();
      acquire_slot();
      collector.push(seq++,
                     control_response(request_json, kind, engine, portfolio));
      continue;
    }
    requests_total.add();
    acquire_slot();
    const std::size_t my_seq = seq++;
    pool.submit([&collector, &engine, &portfolio, my_seq, max_iterations =
                     options.max_iterations,
                 request = std::move(request_json)] {
      // my_seq must reach the collector: a skipped index gaps the
      // sequence. pipeline_response handles std::exception itself;
      // this guards the truly exceptional rest (bad_alloc in the
      // error path, ...). Should push *itself* throw, the pool
      // captures it and the reader's waits rethrow it loudly.
      std::string response;
      try {
        response =
            pipeline_response(request, engine, portfolio, max_iterations);
      } catch (...) {
        response =
            "{\"error\":{\"stage\":\"request\","
            "\"message\":\"internal error building the response\"}}";
      }
      collector.push(my_seq, std::move(response));
    });
    queue_depth_gauge.record(
        static_cast<std::int64_t>(pool.queue_depth()));
  }

  drain();
  collector.close();

  if (!options.metrics_csv.empty()) {
    engine::write_metrics_csv(options.metrics_csv, engine);
  }
  return 0;
}

}  // namespace dspaddr::cli
