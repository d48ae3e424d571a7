// perfbench_trace — the benchmark's traced run: an in-process,
// single-threaded replay of one workload's generated requests that
// times each public call a request crosses and reports per-layer
// numbers. End-to-end metrics never come from here (run.py measures
// them against `dspaddr serve` with tracing off).
//
//   perfbench_trace --replay FILE --compose FILE --work-dir DIR
//                   [--store-seed LOG] [--cache-capacity N]
//
// --replay holds the request lines in the order the serve loop sent
// them. They are replayed three times through one Engine (+ Portfolio
// for `auto` lines) configured like the serve process: untraced, traced
// and untraced again. The traced pass records spans around JSON parse,
// Engine::run (named by the tier that answered) and response rendering;
// the untraced passes give the tracing overhead. Its spans are the
// workload's traffic.
//
// --compose holds the workload's cold requests. Each is run through the
// stage functions Engine::run composes (layout + lower, fingerprint,
// allocate with the phase-2 solver timed on its own, plan, codegen,
// simulate, compare), then encoded, appended to a scratch store, read
// back and decoded. The composed cost and cycles must equal a cacheless
// Engine::run of the same request. Exact solves are also run at jobs = 2
// (the work-stealing probe). Tiers a workload's traffic never reaches
// (RAM hit, store hit, cold run, race) are timed by probes on the same
// requests. Spans of this pass are marked `compose`, or `probe` for the
// calls the traffic itself does not make.
//
// Spans (name, start, end, parent, request, source) stay in memory and
// are written to DIR/spans.csv at the end; stdout gets one JSON summary.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "agu/codegen.hpp"
#include "agu/metrics.hpp"
#include "agu/simulator.hpp"
#include "cli/machine_resolve.hpp"
#include "cli/options.hpp"
#include "core/allocator.hpp"
#include "core/exact.hpp"
#include "core/modify_registers.hpp"
#include "core/tiled.hpp"
#include "engine/engine.hpp"
#include "engine/fingerprint.hpp"
#include "engine/portfolio.hpp"
#include "engine/result_codec.hpp"
#include "engine/serialize.hpp"
#include "engine/strategy.hpp"
#include "ir/kernels.hpp"
#include "ir/layout.hpp"
#include "store/result_store.hpp"
#include "support/json.hpp"

namespace {

using namespace dspaddr;
using support::JsonValue;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------------------ spans

/// Where a span's call came from: the replayed traffic, the compose
/// pass over the workload's requests, or a probe (a call the workload's
/// own traffic does not make).
enum class Source { kTraffic, kCompose, kProbe };
constexpr const char* kSourceNames[] = {"traffic", "compose", "probe"};

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  int request = -1;
  Source source = Source::kTraffic;
};

class Tracer {
 public:
  int open(std::string name, int request, Source source) {
    Span span;
    span.name = std::move(name);
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.request = request;
    span.source = source;
    spans_.push_back(std::move(span));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    spans_.back().start_ns = now_ns();
    return stack_.back();
  }
  void close(int index) {
    spans_[index].end_ns = now_ns();
    stack_.pop_back();
  }
  void rename(int index, std::string name) { spans_[index].name = std::move(name); }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span: its duration minus what its children
  /// cover (single-threaded, so children never overlap).
  std::vector<std::int64_t> self_ns() const {
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end_ns - spans_[i].start_ns;
    }
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        self[span.parent] -= span.end_ns - span.start_ns;
      }
    }
    return self;
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// One span over a scope; a null tracer makes it free (untraced pass).
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, int request,
        Source source = Source::kTraffic)
      : tracer_(tracer),
        index_(tracer ? tracer->open(name, request, source) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) {
      tracer_->close(index_);
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void rename(const char* name) {
    if (tracer_ != nullptr) {
      tracer_->rename(index_, name);
    }
  }

 private:
  Tracer* tracer_;
  int index_;
};

// --------------------------------------------------------------- requests

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot read " + path);
  }
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) {
      lines.push_back(line);
    }
  }
  return lines;
}

/// The engine::Request `dspaddr serve` builds for a request line, for
/// the members the benchmark's generators emit.
engine::Request build_request(const JsonValue& json) {
  engine::Request request;
  if (const JsonValue* builtin = json.find("builtin")) {
    request.kernel = ir::builtin_kernel(builtin->as_string());
  } else {
    request.kernel = engine::kernel_from_json(*json.find("kernel"));
  }
  cli::MachineSelector selector;
  selector.default_description = "request-defined AGU";
  if (const JsonValue* name = json.find("machine")) {
    selector.name = name->as_string();
  }
  if (const JsonValue* file = json.find("machine_file")) {
    selector.file = file->as_string();
  }
  if (const JsonValue* registers = json.find("registers")) {
    selector.registers = static_cast<std::size_t>(registers->as_int());
  }
  if (const JsonValue* range = json.find("modify_range")) {
    selector.modify_range = range->as_int();
  }
  request.machine = cli::resolve_machine(selector);
  if (const JsonValue* layout = json.find("layout")) {
    request.layout = layout->as_string();
  }
  if (const JsonValue* strategy = json.find("strategy")) {
    request.strategy = strategy->as_string();
  }
  if (const JsonValue* phase2 = json.find("phase2")) {
    request.phase2.mode = cli::parse_phase2_mode(phase2->as_string());
  }
  if (const JsonValue* window = json.find("phase2_window")) {
    if (window->is_string()) {
      request.phase2.tile_width_auto = true;
    } else {
      request.phase2.tile_width = static_cast<std::size_t>(window->as_int());
    }
  }
  if (const JsonValue* iterations = json.find("iterations")) {
    request.iterations = static_cast<std::uint64_t>(iterations->as_int());
  }
  return request;
}

std::shared_ptr<store::ResultStore> open_store_copy(const std::string& seed,
                                                    const fs::path& path) {
  fs::remove(path);
  if (!seed.empty()) {
    fs::copy_file(seed, path);
  }
  return std::make_shared<store::ResultStore>(
      store::ResultStore::Options{path.string()});
}

// ------------------------------------------------------------------ replay

struct ReplayOutcome {
  double wall_s = 0.0;
  std::vector<double> inproc_us;
  std::vector<std::size_t> response_bytes;
  engine::CacheStats cache;
  std::size_t auto_lines = 0;
  std::size_t errors = 0;
};

/// Replays `lines` the way serve answers them, through one engine
/// configured like the serve process: with a copy of the seeded log as
/// its store when the workload's serve has one.
ReplayOutcome replay(const std::vector<std::string>& lines,
                     std::size_t cache_capacity, const std::string& seed,
                     const fs::path& store_path, Tracer* tracer) {
  engine::Engine::Options options(cache_capacity);
  if (!seed.empty()) {
    options.store = open_store_copy(seed, store_path);
  }
  engine::Engine engine(std::move(options));
  engine::Portfolio portfolio(engine);
  ReplayOutcome out;
  const std::int64_t start = now_ns();
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const int id = static_cast<int>(i);
    const std::int64_t t0 = now_ns();
    try {
      Scope request_span(tracer, "request", id);
      JsonValue json;
      {
        Scope span(tracer, "support.json_parse", id);
        json = JsonValue::parse(lines[i]);
      }
      const engine::Request request = build_request(json);
      engine::Result result;
      {
        Scope span(tracer, "engine.run", id);
        if (engine::Portfolio::is_auto(request)) {
          result = portfolio.run(request);
          span.rename("engine.race");
          ++out.auto_lines;
        } else {
          result = engine.run(request);
          span.rename(result.cache_hit   ? "engine.ram_hit"
                      : result.store_hit ? "engine.store_hit"
                                         : "engine.cold");
        }
      }
      std::string text;
      {
        Scope span(tracer, "engine.render", id);
        text = engine::result_to_json(result).dump();
      }
      if (!result.ok() || !result.verified) {
        ++out.errors;
      }
      out.response_bytes.push_back(text.size());
    } catch (const std::exception& e) {
      std::cerr << "replay line " << i << ": " << e.what() << "\n";
      ++out.errors;
    }
    out.inproc_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  out.wall_s = static_cast<double>(now_ns() - start) / 1e9;
  out.cache = engine.cache_stats();
  return out;
}

// ----------------------------------------------------------------- compose

struct ComposeTotals {
  std::uint64_t exact_nodes = 0;
  std::uint64_t table_cap_hits = 0;
  std::uint64_t solve_nodes = 0;
  double solve_s = 0.0;
  /// Work-stealing probe: jobs-1 and jobs-2 wall time of the same
  /// solves, worker busy time at jobs 2, and proven-cost agreement.
  double steal_seq_s = 0.0;
  double steal_par_s = 0.0;
  double steal_busy_s = 0.0;
  std::size_t steal_compared = 0;
  std::size_t steal_matched = 0;
  /// Phase-2 nodes of the request being composed.
  std::uint64_t request_nodes = 0;
  /// The request's exact solve, for the jobs-2 probe run after the
  /// allocate span closes: its options, jobs-1 wall time and result.
  std::optional<core::ExactOptions> probe_options;
  double probe_seq_s = 0.0;
  core::ExactResult probe_seq;
  std::size_t composed = 0;
  std::size_t mismatches = 0;
  std::size_t errors = 0;
  std::vector<std::string> messages;
};

double seconds_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) / 1e9;
}

/// The allocate stage as `RegisterAllocator::run` composes it for the
/// two-phase and exact strategies — phase 1 + merging, then the phase-2
/// solver called (and timed) from outside — or the strategy's own
/// allocate for the baselines.
core::Allocation compose_allocate(const ir::AccessSequence& seq,
                                  core::ProblemConfig config,
                                  const std::string& strategy, Tracer* tracer,
                                  int id, ComposeTotals& totals) {
  if (strategy != "two-phase" && strategy != "exact") {
    return engine::StrategyRegistry::builtin().allocation(strategy)->allocate(
        seq, config);
  }
  using Mode = core::Phase2Options::Mode;
  if (strategy == "exact") {
    config.phase2.mode = Mode::kExact;
  }
  const core::Phase2Options phase2 = config.phase2;
  core::ProblemConfig heuristic_config = config;
  heuristic_config.phase2.mode = Mode::kHeuristic;
  std::optional<core::Allocation> heuristic;
  {
    Scope span(tracer, "core.heuristic", id, Source::kCompose);
    heuristic.emplace(core::RegisterAllocator(heuristic_config).run(seq));
  }
  std::vector<core::Path> paths = heuristic->paths();
  const int heuristic_cost = heuristic->cost();
  const core::CostModel model = config.cost_model();
  const bool want_exact =
      phase2.mode == Mode::kExact ||
      (phase2.mode == Mode::kAuto && seq.size() <= phase2.exact_access_limit);
  if (heuristic_cost == 0 || seq.empty()) {
    // Trivially optimal: the allocator runs no search either.
  } else if (want_exact) {
    core::ExactOptions options;
    options.max_nodes = phase2.max_nodes;
    options.warm_start = paths;
    const std::int64_t t0 = now_ns();
    core::ExactResult exact;
    {
      Scope span(tracer, "core.solve", id, Source::kCompose);
      exact = core::exact_min_cost_allocation(seq, model, config.registers,
                                              options);
    }
    const double seq_s = seconds_between(t0, now_ns());
    totals.request_nodes = exact.nodes;
    totals.exact_nodes += exact.nodes;
    totals.solve_nodes += exact.nodes;
    totals.table_cap_hits += exact.table_cap_hits;
    totals.solve_s += seq_s;
    if (exact.cost < heuristic_cost) {
      paths = exact.paths;
    }
    totals.probe_options = options;
    totals.probe_seq_s = seq_s;
    totals.probe_seq = std::move(exact);
  } else if (phase2.mode == Mode::kTiled) {
    core::TiledOptions options;
    options.tile_width = phase2.tile_width;
    options.tile_overlap = phase2.tile_overlap;
    options.auto_width = phase2.tile_width_auto;
    options.max_nodes = phase2.max_nodes;
    core::TiledResult tiled;
    {
      Scope span(tracer, "core.tiled", id, Source::kCompose);
      tiled = core::tiled_min_cost_allocation(seq, model, config.registers,
                                              options);
    }
    totals.request_nodes = tiled.nodes;
    totals.exact_nodes += tiled.nodes;
    totals.table_cap_hits += tiled.table_cap_hits;
    if (tiled.cost < heuristic_cost) {
      paths = tiled.paths;
    }
  }
  return core::Allocation(seq, model, std::move(paths), heuristic->stats());
}

void mismatch(ComposeTotals& totals, const std::string& message) {
  ++totals.mismatches;
  if (totals.messages.size() < 8) {
    totals.messages.push_back(message);
  }
}

/// The work-stealing probe: the request's exact solve again on two
/// workers, compared with the sequential solve.
void steal_probe(const ir::AccessSequence& seq, const core::ProblemConfig& config,
                 Tracer& tracer, int id, ComposeTotals& totals) {
  core::ExactOptions options = *totals.probe_options;
  options.jobs = 2;
  const std::int64_t t0 = now_ns();
  core::ExactResult parallel;
  {
    Scope span(&tracer, "runtime.steal_solve", id, Source::kProbe);
    parallel = core::exact_min_cost_allocation(seq, config.cost_model(),
                                               config.registers, options);
  }
  totals.steal_seq_s += totals.probe_seq_s;
  totals.steal_par_s += seconds_between(t0, now_ns());
  totals.steal_busy_s += static_cast<double>(parallel.worker_busy_us) / 1e6;
  if (totals.probe_seq.proven && parallel.proven) {
    ++totals.steal_compared;
    totals.steal_matched += totals.probe_seq.cost == parallel.cost ? 1 : 0;
  }
}

/// Runs every compose line through the stage functions, checks the
/// composition against a cacheless engine, then times the store round
/// trip and the tier probes on the same request.
ComposeTotals compose(const std::vector<std::string>& lines, int first_id,
                      const fs::path& work_dir, Tracer& tracer) {
  ComposeTotals totals;
  engine::Engine reference(engine::Engine::Options{0});
  auto scratch = open_store_copy("", work_dir / "compose.log");
  engine::Engine::Options probe_options(lines.size() + 1);
  probe_options.store = scratch;
  engine::Engine probe(std::move(probe_options));

  for (std::size_t i = 0; i < lines.size(); ++i) {
    const int id = first_id + static_cast<int>(i);
    try {
      const engine::Request request = build_request(JsonValue::parse(lines[i]));
      if (engine::Portfolio::is_auto(request)) {
        continue;  // races are timed on the replay, not composed
      }
      const agu::AguSpec& machine = request.machine;
      Scope request_span(&tracer, "compose", id, Source::kCompose);
      ir::AccessSequence seq;
      {
        Scope span(&tracer, "ir.lower", id, Source::kCompose);
        const ir::ArrayLayout layout =
            engine::StrategyRegistry::builtin().layout(request.layout)->place(
                request.kernel, machine);
        seq = ir::lower(request.kernel, layout);
      }
      std::string key;
      {
        Scope span(&tracer, "engine.fingerprint", id, Source::kCompose);
        key = engine::request_fingerprint(request, seq);
      }
      core::ProblemConfig config;
      config.modify_range = machine.modify_range();
      config.modify_lo = machine.modify_lo;
      config.modify_hi = machine.modify_hi;
      config.free_widths = machine.free_widths;
      config.registers = machine.address_registers();
      config.phase2 = request.phase2;
      std::optional<core::Allocation> allocation;
      totals.request_nodes = 0;
      totals.probe_options.reset();
      {
        Scope span(&tracer, "core.allocate", id, Source::kCompose);
        allocation.emplace(compose_allocate(seq, config, request.strategy,
                                            &tracer, id, totals));
      }
      if (totals.probe_options.has_value()) {
        steal_probe(seq, config, tracer, id, totals);
      }
      core::ModifyRegisterPlan plan;
      {
        Scope span(&tracer, "core.plan", id, Source::kCompose);
        plan = core::plan_modify_registers(seq, *allocation,
                                           machine.modify_registers());
      }
      agu::Program program;
      {
        Scope span(&tracer, "agu.codegen", id, Source::kCompose);
        program =
            agu::generate_code(seq, *allocation, plan, machine.addressing);
      }
      const std::uint64_t iterations = request.iterations.value_or(
          static_cast<std::uint64_t>(request.kernel.iterations()));
      bool verified = false;
      {
        Scope span(&tracer, "agu.simulate", id, Source::kCompose);
        const agu::SimResult sim =
            agu::Simulator{}.run(program, seq, iterations);
        verified =
            agu::verified_against_cost(sim, iterations, plan.residual_cost);
      }
      agu::AddressingComparison comparison;
      {
        Scope span(&tracer, "agu.compare", id, Source::kCompose);
        comparison = agu::compare_addressing(request.kernel, *allocation);
      }
      ++totals.composed;

      engine::Result result;
      {
        Scope span(&tracer, "engine.cold", id, Source::kProbe);
        result = reference.run(request);
      }
      if (!result.ok() || !verified || !result.verified ||
          allocation->cost() != result.allocation_cost ||
          comparison.optimized.cycles != result.optimized_cycles ||
          comparison.optimized.size_words != result.optimized_size_words ||
          totals.request_nodes != result.stats.phase2_nodes) {
        mismatch(totals, "compose line " + std::to_string(i) + ": cost " +
                             std::to_string(allocation->cost()) + " vs " +
                             std::to_string(result.allocation_cost) +
                             ", cycles " +
                             std::to_string(comparison.optimized.cycles) +
                             " vs " + std::to_string(result.optimized_cycles) +
                             ", nodes " + std::to_string(totals.request_nodes) +
                             " vs " +
                             std::to_string(result.stats.phase2_nodes));
      }

      std::string encoded;
      {
        Scope span(&tracer, "engine.encode", id, Source::kCompose);
        encoded = engine::encode_result(result);
      }
      {
        Scope span(&tracer, "store.append", id, Source::kCompose);
        scratch->append(key, encoded);
      }
      std::optional<std::string> stored;
      {
        Scope span(&tracer, "store.get", id, Source::kCompose);
        stored = scratch->get(key);
      }
      engine::Result decoded;
      {
        Scope span(&tracer, "engine.decode", id, Source::kCompose);
        decoded = engine::decode_result(*stored);
      }
      if (decoded.optimized_cycles != result.optimized_cycles) {
        mismatch(totals, "compose line " + std::to_string(i) +
                             ": decoded result differs");
      }
      // The first probe run is a store hit, or a RAM hit when an earlier
      // line had the same fingerprint; the second is a RAM hit.
      bool hit = false;
      {
        Scope span(&tracer, "engine.store_hit", id, Source::kProbe);
        const engine::Result first = probe.run(request);
        hit = first.store_hit || first.cache_hit;
        if (!first.store_hit) {
          span.rename("engine.ram_hit");
        }
      }
      {
        Scope span(&tracer, "engine.ram_hit", id, Source::kProbe);
        hit = hit && probe.run(request).cache_hit;
      }
      if (!hit) {
        mismatch(totals, "compose line " + std::to_string(i) +
                             ": probe engine missed both tiers");
      }
    } catch (const std::exception& e) {
      ++totals.errors;
      if (totals.messages.size() < 8) {
        totals.messages.push_back("compose line " + std::to_string(i) + ": " +
                                  e.what());
      }
    }
  }
  return totals;
}

/// Races (strategy "auto") the `count` shortest compose lines on a fresh
/// engine — the race probe for workloads whose traffic has no auto lines.
void race_probe(const std::vector<std::string>& lines, std::size_t count,
                int first_id, Tracer& tracer) {
  std::vector<std::pair<std::size_t, engine::Request>> requests;
  for (const std::string& line : lines) {
    engine::Request request = build_request(JsonValue::parse(line));
    request.strategy = engine::kAutoStrategy;
    requests.emplace_back(request.kernel.accesses().size(), std::move(request));
  }
  std::stable_sort(requests.begin(), requests.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  engine::Engine engine(engine::Engine::Options{0});
  engine::PortfolioOptions options;
  options.learn = false;
  engine::Portfolio portfolio(engine, options);
  for (std::size_t i = 0; i < std::min(count, requests.size()); ++i) {
    Scope span(&tracer, "engine.race", first_id + static_cast<int>(i),
               Source::kProbe);
    portfolio.run(requests[i].second);
  }
}

// ----------------------------------------------------------------- summary

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

JsonValue span_summary(const Tracer& tracer) {
  constexpr std::size_t kSources = std::size(kSourceNames);
  struct Samples {
    std::vector<double> total_us[kSources];
    std::vector<double> self_us[kSources];
  };
  std::map<std::string, Samples> by_name;
  const std::vector<std::int64_t> self = tracer.self_ns();
  for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
    const Span& span = tracer.spans()[i];
    Samples& samples = by_name[span.name];
    const auto source = static_cast<std::size_t>(span.source);
    samples.total_us[source].push_back(
        static_cast<double>(span.end_ns - span.start_ns) / 1e3);
    samples.self_us[source].push_back(static_cast<double>(self[i]) / 1e3);
  }
  JsonValue out = JsonValue::object();
  for (const auto& [name, samples] : by_name) {
    // The traffic wins, then the compose pass, then a probe: the first
    // with ten samples, else the one with the most.
    std::size_t pick = 0;
    for (std::size_t source = 1; source < kSources; ++source) {
      if (std::min<std::size_t>(samples.total_us[source].size(), 10) >
          std::min<std::size_t>(samples.total_us[pick].size(), 10)) {
        pick = source;
      }
    }
    JsonValue entry = JsonValue::object();
    entry.set("n", JsonValue::number(
                       static_cast<std::int64_t>(samples.total_us[pick].size())));
    entry.set("median_us", JsonValue::number(median(samples.total_us[pick])));
    entry.set("self_median_us",
              JsonValue::number(median(samples.self_us[pick])));
    entry.set("source", JsonValue::string(kSourceNames[pick]));
    out.set(name, std::move(entry));
  }
  return out;
}

void write_spans(const Tracer& tracer, const fs::path& path) {
  std::ofstream out(path);
  out << "name,request,parent,start_ns,end_ns,self_ns,source\n";
  const std::vector<std::int64_t> self = tracer.self_ns();
  const std::int64_t origin =
      tracer.spans().empty() ? 0 : tracer.spans().front().start_ns;
  for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
    const Span& span = tracer.spans()[i];
    out << span.name << ',' << span.request << ',' << span.parent << ','
        << span.start_ns - origin << ',' << span.end_ns - origin << ','
        << self[i] << ',' << kSourceNames[static_cast<int>(span.source)]
        << '\n';
  }
}

JsonValue numbers(const std::vector<double>& values) {
  JsonValue out = JsonValue::array();
  for (double value : values) {
    out.push_back(JsonValue::number(value));
  }
  return out;
}

int run(int argc, char** argv) {
  std::string replay_path, compose_path, store_seed, work;
  std::size_t cache_capacity = 256;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--replay") {
      replay_path = value;
    } else if (flag == "--compose") {
      compose_path = value;
    } else if (flag == "--store-seed") {
      store_seed = value;
    } else if (flag == "--cache-capacity") {
      cache_capacity = std::stoul(value);
    } else if (flag == "--work-dir") {
      work = value;
    } else {
      throw std::runtime_error("unknown flag " + flag);
    }
  }
  if (replay_path.empty() || compose_path.empty() || work.empty()) {
    throw std::runtime_error(
        "usage: perfbench_trace --replay FILE --compose FILE --work-dir DIR "
        "[--store-seed LOG] [--cache-capacity N]");
  }
  const fs::path work_dir(work);
  const std::vector<std::string> replay_lines = read_lines(replay_path);
  const std::vector<std::string> compose_lines = read_lines(compose_path);
  Tracer tracer;

  // Store open on the workload's seeded log (an empty log without one).
  std::vector<double> open_s;
  for (int i = 0; i < 3; ++i) {
    const fs::path path = work_dir / "open.log";
    fs::remove(path);
    if (!store_seed.empty()) {
      fs::copy_file(store_seed, path);
    }
    const std::int64_t t0 = now_ns();
    {
      Scope span(&tracer, "store.open", -1, Source::kProbe);
      store::ResultStore opened(store::ResultStore::Options{path.string()});
    }
    open_s.push_back(seconds_between(t0, now_ns()));
  }

  const fs::path replay_store = work_dir / "replay.log";
  const ReplayOutcome before =
      replay(replay_lines, cache_capacity, store_seed, replay_store, nullptr);
  const ReplayOutcome traced =
      replay(replay_lines, cache_capacity, store_seed, replay_store, &tracer);
  const ReplayOutcome after =
      replay(replay_lines, cache_capacity, store_seed, replay_store, nullptr);
  const double untraced_s = std::min(before.wall_s, after.wall_s);

  const int compose_id = static_cast<int>(replay_lines.size());
  const ComposeTotals totals =
      compose(compose_lines, compose_id, work_dir, tracer);
  if (traced.auto_lines == 0) {
    race_probe(compose_lines, 3,
               compose_id + static_cast<int>(compose_lines.size()), tracer);
  }
  write_spans(tracer, work_dir / "spans.csv");

  const std::uint64_t lookups = traced.cache.hits + traced.cache.misses;
  std::vector<double> bytes(traced.response_bytes.begin(),
                            traced.response_bytes.end());
  JsonValue out = JsonValue::object();
  out.set("spans", span_summary(tracer));
  JsonValue values = JsonValue::object();
  values.set("store.open_s", JsonValue::number(median(open_s)));
  values.set("engine.response_bytes", JsonValue::number(median(bytes)));
  values.set("runtime.ram_hit_share",
             JsonValue::number(lookups == 0 ? 0.0
                                            : static_cast<double>(
                                                  traced.cache.hits) /
                                                  static_cast<double>(lookups)));
  values.set("core.exact_nodes", JsonValue::number(static_cast<std::int64_t>(
                                     totals.exact_nodes)));
  values.set("core.table_cap_hits",
             JsonValue::number(static_cast<std::int64_t>(totals.table_cap_hits)));
  values.set("core.nodes_per_s",
             JsonValue::number(totals.solve_s > 0.0
                                   ? static_cast<double>(totals.solve_nodes) /
                                         totals.solve_s
                                   : 0.0));
  values.set("runtime.steal_speedup",
             JsonValue::number(totals.steal_par_s > 0.0
                                   ? totals.steal_seq_s / totals.steal_par_s
                                   : 0.0));
  values.set("runtime.steal_idle_share",
             JsonValue::number(totals.steal_par_s > 0.0
                                   ? 1.0 - totals.steal_busy_s /
                                               (2.0 * totals.steal_par_s)
                                   : 0.0));
  values.set("runtime.steal_cost_match",
             JsonValue::number(totals.steal_compared == 0
                                   ? 1.0
                                   : static_cast<double>(totals.steal_matched) /
                                         static_cast<double>(
                                             totals.steal_compared)));
  values.set("trace.overhead_share",
             JsonValue::number(traced.wall_s / untraced_s - 1.0));
  out.set("values", std::move(values));
  out.set("inproc_us", numbers(traced.inproc_us));
  JsonValue checks = JsonValue::object();
  checks.set("replayed", JsonValue::number(
                             static_cast<std::int64_t>(replay_lines.size())));
  checks.set("replay_errors",
             JsonValue::number(static_cast<std::int64_t>(
                 before.errors + traced.errors + after.errors)));
  checks.set("composed",
             JsonValue::number(static_cast<std::int64_t>(totals.composed)));
  checks.set("compose_mismatches",
             JsonValue::number(static_cast<std::int64_t>(totals.mismatches)));
  checks.set("compose_errors",
             JsonValue::number(static_cast<std::int64_t>(totals.errors)));
  JsonValue messages = JsonValue::array();
  for (const std::string& message : totals.messages) {
    messages.push_back(JsonValue::string(message));
  }
  checks.set("messages", std::move(messages));
  out.set("checks", std::move(checks));
  std::cout << out.dump() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_trace: " << e.what() << "\n";
    return 1;
  }
}
