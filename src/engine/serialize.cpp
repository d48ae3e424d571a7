#include "engine/serialize.hpp"

#include <fstream>

#include "agu/machine_desc.hpp"
#include "support/check.hpp"

namespace dspaddr::engine {
namespace {

using support::JsonValue;

JsonValue from_size(std::size_t value) {
  return JsonValue::number(static_cast<std::int64_t>(value));
}

JsonValue from_u64(std::uint64_t value) {
  return JsonValue::number(static_cast<std::int64_t>(value));
}

JsonValue kernel_summary(const ir::Kernel& kernel) {
  JsonValue json = JsonValue::object();
  json.set("name", JsonValue::string(kernel.name()));
  json.set("arrays", from_size(kernel.arrays().size()));
  json.set("accesses", from_size(kernel.accesses().size()));
  json.set("iterations", JsonValue::number(kernel.iterations()));
  json.set("data_ops", JsonValue::number(kernel.data_ops()));
  return json;
}

JsonValue machine_summary(const agu::AguSpec& machine) {
  // The full declarative spec: round-trips through
  // agu::machine_from_json and still carries the flat
  // registers/modify_registers/modify_range summary older consumers
  // read.
  return agu::machine_to_json(machine);
}

JsonValue allocate_stage(const Result& result) {
  JsonValue json = JsonValue::object();
  json.set("k_tilde", result.k_tilde.has_value()
                          ? from_size(*result.k_tilde)
                          : JsonValue::null());
  json.set("cost", JsonValue::number(
                       static_cast<std::int64_t>(result.allocation_cost)));
  json.set("intra_cost",
           JsonValue::number(static_cast<std::int64_t>(result.intra_cost)));
  json.set("wrap_cost",
           JsonValue::number(static_cast<std::int64_t>(result.wrap_cost)));
  json.set("phase1_exact", JsonValue::boolean(result.stats.phase1_exact));
  json.set("merges", from_size(result.stats.merges));
  JsonValue phase2 = JsonValue::object();
  phase2.set("exact", JsonValue::boolean(result.stats.phase2_exact));
  phase2.set("proven", JsonValue::boolean(result.stats.phase2_proven));
  phase2.set("gap", JsonValue::number(
                        static_cast<std::int64_t>(result.stats.phase2_gap)));
  phase2.set("lower_bound",
             JsonValue::number(static_cast<std::int64_t>(
                 result.stats.phase2_lower_bound)));
  phase2.set("nodes", from_u64(result.stats.phase2_nodes));
  phase2.set("table_cap_hits", from_u64(result.stats.phase2_table_cap_hits));
  phase2.set("subtree_tasks", from_u64(result.stats.phase2_subtree_tasks));
  // Like subtree_tasks and node counts, the work-stealing counters are
  // schedule-dependent at phase2_jobs > 1 (and exactly 0 at jobs == 1);
  // the cost/proof fields above never vary with jobs.
  phase2.set("steals", from_u64(result.stats.phase2_steals));
  phase2.set("steal_attempts",
             from_u64(result.stats.phase2_steal_attempts));
  phase2.set("splits", from_u64(result.stats.phase2_splits));
  phase2.set("windows", from_size(result.stats.phase2_windows));
  phase2.set("windows_proven",
             from_size(result.stats.phase2_windows_proven));
  JsonValue widths = JsonValue::array();
  for (const std::size_t width : result.stats.phase2_window_widths) {
    widths.push_back(from_size(width));
  }
  phase2.set("window_widths", std::move(widths));
  // phase2_nodes_per_sec (and the worker busy time behind the bench's
  // idle fraction) is wall-clock derived and deliberately NOT
  // serialized: responses stay byte-identical across reruns and jobs
  // levels (modulo the documented node-count variance).
  json.set("phase2", std::move(phase2));
  return json;
}

JsonValue plan_stage(const Result& result) {
  JsonValue json = JsonValue::object();
  JsonValue values = JsonValue::array();
  for (const core::ModifyRegister& mr : result.plan.values) {
    JsonValue entry = JsonValue::object();
    entry.set("value", JsonValue::number(mr.value));
    entry.set("covered",
              JsonValue::number(static_cast<std::int64_t>(mr.covered)));
    values.push_back(std::move(entry));
  }
  json.set("modify_registers", std::move(values));
  json.set("covered_per_iteration",
           JsonValue::number(static_cast<std::int64_t>(
               result.plan.covered_per_iteration)));
  json.set("residual_cost",
           JsonValue::number(
               static_cast<std::int64_t>(result.plan.residual_cost)));
  return json;
}

JsonValue codegen_stage(const Result& result) {
  JsonValue json = JsonValue::object();
  json.set("setup_instructions", from_size(result.program.setup.size()));
  json.set("body_instructions", from_size(result.program.body.size()));
  json.set("setup_address_words",
           from_size(result.program.setup_address_words()));
  json.set("body_address_words",
           from_size(result.program.body_address_words()));
  return json;
}

JsonValue simulate_stage(const Result& result) {
  JsonValue json = JsonValue::object();
  json.set("iterations", from_u64(result.iterations));
  json.set("verified", JsonValue::boolean(result.verified));
  if (!result.sim.failure.empty()) {
    json.set("failure", JsonValue::string(result.sim.failure));
  }
  json.set("accesses_executed", from_u64(result.sim.accesses_executed));
  json.set("extra_instructions", from_u64(result.sim.extra_instructions));
  json.set("address_cycles", from_u64(result.sim.address_cycles));
  return json;
}

JsonValue metrics_stage(const Result& result) {
  JsonValue json = JsonValue::object();
  json.set("baseline_size_words",
           JsonValue::number(result.baseline_size_words));
  json.set("optimized_size_words",
           JsonValue::number(result.optimized_size_words));
  json.set("baseline_cycles", JsonValue::number(result.baseline_cycles));
  json.set("optimized_cycles", JsonValue::number(result.optimized_cycles));
  json.set("size_reduction_percent",
           JsonValue::number(result.size_reduction_percent));
  json.set("speed_reduction_percent",
           JsonValue::number(result.speed_reduction_percent));
  return json;
}

}  // namespace

support::JsonValue result_to_json(const Result& result) {
  JsonValue json = JsonValue::object();
  json.set("kernel", kernel_summary(result.kernel));
  json.set("machine", machine_summary(result.machine));
  json.set("layout", JsonValue::string(result.layout));
  json.set("strategy", JsonValue::string(result.strategy));
  json.set("stop_after", JsonValue::string(stage_name(result.stop_after)));
  if (result.error.has_value()) {
    JsonValue error = JsonValue::object();
    error.set("stage", JsonValue::string(stage_name(result.error->stage)));
    error.set("message", JsonValue::string(result.error->message));
    json.set("error", std::move(error));
  }
  JsonValue stages = JsonValue::object();
  if (result.stage_done(Stage::kLower)) {
    JsonValue lower = JsonValue::object();
    lower.set("accesses", from_size(result.accesses));
    lower.set("layout_extent", JsonValue::number(result.layout_extent));
    stages.set("lower", std::move(lower));
  }
  if (result.stage_done(Stage::kAllocate)) {
    stages.set("allocate", allocate_stage(result));
  }
  if (result.stage_done(Stage::kPlan)) {
    stages.set("plan", plan_stage(result));
  }
  if (result.stage_done(Stage::kCodegen)) {
    stages.set("codegen", codegen_stage(result));
  }
  if (result.stage_done(Stage::kSimulate)) {
    stages.set("simulate", simulate_stage(result));
  }
  if (result.stage_done(Stage::kMetrics)) {
    stages.set("metrics", metrics_stage(result));
  }
  json.set("stages", std::move(stages));
  return json;
}

std::string result_to_json_line(const Result& result) {
  return result_to_json(result).dump();
}

support::JsonValue cache_stats_to_json(const CacheStats& stats) {
  const auto counters_json = [](std::uint64_t hits, std::uint64_t misses,
                                std::uint64_t evictions,
                                std::size_t entries, std::size_t capacity) {
    JsonValue json = JsonValue::object();
    json.set("hits", from_u64(hits));
    json.set("misses", from_u64(misses));
    json.set("evictions", from_u64(evictions));
    json.set("entries", from_size(entries));
    json.set("capacity", from_size(capacity));
    return json;
  };
  JsonValue json = counters_json(stats.hits, stats.misses, stats.evictions,
                                 stats.entries, stats.capacity);
  JsonValue shards = JsonValue::array();
  for (const runtime::CacheCounters& shard : stats.shards) {
    shards.push_back(counters_json(shard.hits, shard.misses,
                                   shard.evictions, shard.entries,
                                   shard.capacity));
  }
  json.set("shards", std::move(shards));
  return json;
}

support::JsonValue store_stats_to_json(const store::StoreStats& stats) {
  JsonValue json = JsonValue::object();
  json.set("records", from_size(stats.records));
  json.set("bytes", from_u64(stats.bytes));
  json.set("recovered_records", from_size(stats.recovered_records));
  json.set("appended_records", from_u64(stats.appended_records));
  json.set("appended_bytes", from_u64(stats.appended_bytes));
  json.set("truncated_bytes", from_u64(stats.truncated_bytes));
  json.set("shadowed_bytes", from_u64(stats.shadowed_bytes));
  json.set("compactions", from_u64(stats.compactions));
  json.set("compacted_bytes", from_u64(stats.compacted_bytes));
  json.set("hits", from_u64(stats.hits));
  json.set("misses", from_u64(stats.misses));
  return json;
}

support::JsonValue portfolio_stats_to_json(const PortfolioStats& stats) {
  JsonValue json = JsonValue::object();
  json.set("races", from_u64(stats.races));
  json.set("short_circuits", from_u64(stats.short_circuits));
  json.set("reraces", from_u64(stats.reraces));
  json.set("learned_entries", from_size(stats.learned_entries));
  return json;
}

namespace {

JsonValue histogram_summary(const obs::HistogramSnapshot& snapshot) {
  JsonValue json = JsonValue::object();
  json.set("count", from_u64(snapshot.count));
  json.set("sum_us", from_u64(snapshot.sum_us));
  json.set("max_us", from_u64(snapshot.max_us));
  json.set("p50_us", from_u64(snapshot.percentile_us(50.0)));
  json.set("p95_us", from_u64(snapshot.percentile_us(95.0)));
  json.set("p99_us", from_u64(snapshot.percentile_us(99.0)));
  return json;
}

}  // namespace

support::JsonValue metrics_report_json(const obs::RegistrySnapshot& snapshot,
                                       const CacheStats& cache,
                                       const store::StoreStats* store) {
  JsonValue json = JsonValue::object();
  JsonValue counters = JsonValue::object();
  for (const auto& [name, value] : snapshot.counters) {
    counters.set(name, from_u64(value));
  }
  json.set("counters", std::move(counters));
  JsonValue gauges = JsonValue::object();
  for (const auto& [name, levels] : snapshot.gauges) {
    JsonValue gauge = JsonValue::object();
    gauge.set("value", JsonValue::number(levels.first));
    gauge.set("max", JsonValue::number(levels.second));
    gauges.set(name, std::move(gauge));
  }
  json.set("gauges", std::move(gauges));
  JsonValue histograms = JsonValue::object();
  for (const auto& [name, hist] : snapshot.histograms) {
    histograms.set(name, histogram_summary(hist));
  }
  json.set("histograms", std::move(histograms));
  // The tier counters ride along so one probe answers "where did my
  // requests go" without a second round trip; shards are a stats-level
  // detail and stay out.
  JsonValue tier = JsonValue::object();
  tier.set("hits", from_u64(cache.hits));
  tier.set("misses", from_u64(cache.misses));
  tier.set("evictions", from_u64(cache.evictions));
  tier.set("entries", from_size(cache.entries));
  tier.set("capacity", from_size(cache.capacity));
  json.set("cache", std::move(tier));
  if (store != nullptr) {
    json.set("store", store_stats_to_json(*store));
  }
  return json;
}

std::string metrics_report_csv(const obs::RegistrySnapshot& snapshot,
                               const CacheStats& cache,
                               const store::StoreStats* store) {
  std::string csv =
      "kind,name,count,sum_us,max_us,p50_us,p95_us,p99_us,value,max\n";
  const auto counter_row = [&](const std::string& name,
                               std::uint64_t value) {
    csv += "counter," + name + "," + std::to_string(value) + ",,,,,,,\n";
  };
  for (const auto& [name, value] : snapshot.counters) {
    counter_row(name, value);
  }
  for (const auto& [name, levels] : snapshot.gauges) {
    csv += "gauge," + name + ",,,,,,," + std::to_string(levels.first) + "," +
           std::to_string(levels.second) + "\n";
  }
  for (const auto& [name, hist] : snapshot.histograms) {
    csv += "histogram," + name + "," + std::to_string(hist.count) + "," +
           std::to_string(hist.sum_us) + "," + std::to_string(hist.max_us) +
           "," + std::to_string(hist.percentile_us(50.0)) + "," +
           std::to_string(hist.percentile_us(95.0)) + "," +
           std::to_string(hist.percentile_us(99.0)) + ",,\n";
  }
  counter_row("cache.hits", cache.hits);
  counter_row("cache.misses", cache.misses);
  counter_row("cache.evictions", cache.evictions);
  counter_row("cache.entries", cache.entries);
  counter_row("cache.capacity", cache.capacity);
  if (store != nullptr) {
    counter_row("store.records", store->records);
    counter_row("store.bytes", store->bytes);
    counter_row("store.recovered_records", store->recovered_records);
    counter_row("store.appended_records", store->appended_records);
    counter_row("store.appended_bytes", store->appended_bytes);
    counter_row("store.truncated_bytes", store->truncated_bytes);
    counter_row("store.shadowed_bytes", store->shadowed_bytes);
    counter_row("store.compactions", store->compactions);
    counter_row("store.compacted_bytes", store->compacted_bytes);
    counter_row("store.hits", store->hits);
    counter_row("store.misses", store->misses);
  }
  return csv;
}

void write_metrics_csv(const std::string& path, const Engine& engine) {
  const std::optional<store::StoreStats> store_stats =
      engine.store() != nullptr
          ? std::optional<store::StoreStats>(engine.store()->stats())
          : std::nullopt;
  std::ofstream file(path, std::ios::trunc);
  check_arg(file.good(),
            "--metrics-csv: cannot open '" + path + "' for writing");
  file << metrics_report_csv(
      engine.metrics()->snapshot(), engine.cache_stats(),
      store_stats.has_value() ? &*store_stats : nullptr);
  file.flush();
  check_arg(file.good(), "--metrics-csv: failed writing '" + path + "'");
}

ir::Kernel kernel_from_json(const support::JsonValue& json) {
  check_arg(json.is_object(), "kernel: expected a JSON object");

  std::string name = "inline";
  if (const JsonValue* value = json.find("name")) {
    name = value->as_string();
  }
  std::string description;
  if (const JsonValue* value = json.find("description")) {
    description = value->as_string();
  }
  ir::Kernel kernel(std::move(name), std::move(description));

  const JsonValue* arrays = json.find("arrays");
  check_arg(arrays != nullptr && arrays->is_array(),
            "kernel: 'arrays' must be an array of {name, size}");
  for (const JsonValue& entry : arrays->items()) {
    const JsonValue* array_name = entry.find("name");
    const JsonValue* array_size = entry.find("size");
    check_arg(array_name != nullptr && array_size != nullptr,
              "kernel: each array needs 'name' and 'size'");
    kernel.add_array(array_name->as_string(), array_size->as_int());
  }

  if (const JsonValue* iterations = json.find("iterations")) {
    kernel.set_iterations(iterations->as_int());
  }
  if (const JsonValue* data_ops = json.find("data_ops")) {
    kernel.set_data_ops(data_ops->as_int());
  }

  const JsonValue* accesses = json.find("accesses");
  check_arg(accesses != nullptr && accesses->is_array(),
            "kernel: 'accesses' must be an array of {array, offset, "
            "stride, write}");
  for (const JsonValue& entry : accesses->items()) {
    const JsonValue* array = entry.find("array");
    check_arg(array != nullptr, "kernel: each access needs 'array'");
    std::int64_t offset = 0;
    if (const JsonValue* value = entry.find("offset")) {
      offset = value->as_int();
    }
    std::int64_t stride = 1;
    if (const JsonValue* value = entry.find("stride")) {
      stride = value->as_int();
    }
    bool is_write = false;
    if (const JsonValue* value = entry.find("write")) {
      is_write = value->as_bool();
    }
    kernel.add_access(array->as_string(), offset, stride, is_write);
  }
  return kernel;
}

}  // namespace dspaddr::engine
