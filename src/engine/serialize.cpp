#include "engine/serialize.hpp"

#include <fstream>

#include "agu/machine_desc.hpp"
#include "support/check.hpp"

namespace dspaddr::engine {
namespace {

using support::json_put_bool;
using support::json_put_double;
using support::json_put_int;
using support::json_put_string;
using support::json_put_uint;
using support::JsonValue;

JsonValue from_size(std::size_t value) {
  return JsonValue::number(static_cast<std::int64_t>(value));
}

JsonValue from_u64(std::uint64_t value) {
  return JsonValue::number(static_cast<std::int64_t>(value));
}

void append_kernel(std::string& out, const ir::Kernel& kernel) {
  json_put_string(out, "{\"name\":", kernel.name());
  json_put_uint(out, ",\"arrays\":", kernel.arrays().size());
  json_put_uint(out, ",\"accesses\":", kernel.accesses().size());
  json_put_int(out, ",\"iterations\":", kernel.iterations());
  json_put_int(out, ",\"data_ops\":", kernel.data_ops());
  out += '}';
}

}  // namespace

void append_result_members(std::string& out, const Result& result) {
  json_put_string(out, "\"layout\":", result.layout);
  json_put_string(out, ",\"strategy\":", result.strategy);
  json_put_string(out, ",\"stop_after\":", stage_name(result.stop_after));
  if (result.error.has_value()) {
    json_put_string(out, ",\"error\":{\"stage\":",
                    stage_name(result.error->stage));
    json_put_string(out, ",\"message\":", result.error->message);
    out += '}';
  }
  // Completed stages form a prefix that starts at lower, so every stage
  // after it opens with a separator.
  out += ",\"stages\":{";
  if (result.stage_done(Stage::kLower)) {
    json_put_uint(out, "\"lower\":{\"accesses\":", result.accesses);
    json_put_int(out, ",\"layout_extent\":", result.layout_extent);
    out += '}';
  }
  if (result.stage_done(Stage::kAllocate)) {
    const core::AllocationStats& stats = result.stats;
    out += ",\"allocate\":{\"k_tilde\":";
    if (result.k_tilde.has_value()) {
      json_put_uint(out, "", *result.k_tilde);
    } else {
      out += "null";
    }
    json_put_int(out, ",\"cost\":", result.allocation_cost);
    json_put_int(out, ",\"intra_cost\":", result.intra_cost);
    json_put_int(out, ",\"wrap_cost\":", result.wrap_cost);
    json_put_bool(out, ",\"phase1_exact\":", stats.phase1_exact);
    json_put_uint(out, ",\"merges\":", stats.merges);
    json_put_bool(out, ",\"phase2\":{\"exact\":", stats.phase2_exact);
    json_put_bool(out, ",\"proven\":", stats.phase2_proven);
    json_put_int(out, ",\"gap\":", stats.phase2_gap);
    json_put_int(out, ",\"lower_bound\":", stats.phase2_lower_bound);
    json_put_uint(out, ",\"nodes\":", stats.phase2_nodes);
    json_put_uint(out, ",\"table_cap_hits\":", stats.phase2_table_cap_hits);
    json_put_uint(out, ",\"windows\":", stats.phase2_windows);
    json_put_uint(out, ",\"windows_proven\":", stats.phase2_windows_proven);
    out += ",\"window_widths\":[";
    for (std::size_t i = 0; i < stats.phase2_window_widths.size(); ++i) {
      json_put_uint(out, i == 0 ? "" : ",", stats.phase2_window_widths[i]);
    }
    out += "]}}";
  }
  if (result.stage_done(Stage::kPlan)) {
    out += ",\"plan\":{\"modify_registers\":[";
    for (std::size_t i = 0; i < result.plan.values.size(); ++i) {
      const core::ModifyRegister& mr = result.plan.values[i];
      json_put_int(out, i == 0 ? "{\"value\":" : ",{\"value\":", mr.value);
      json_put_int(out, ",\"covered\":", mr.covered);
      out += '}';
    }
    json_put_int(out, "],\"covered_per_iteration\":",
                 result.plan.covered_per_iteration);
    json_put_int(out, ",\"residual_cost\":", result.plan.residual_cost);
    out += '}';
  }
  if (result.stage_done(Stage::kCodegen)) {
    const agu::Program& program = result.program;
    json_put_uint(out, ",\"codegen\":{\"setup_instructions\":",
                  program.setup.size());
    json_put_uint(out, ",\"body_instructions\":", program.body.size());
    json_put_uint(out, ",\"setup_address_words\":",
                  program.setup_address_words());
    json_put_uint(out, ",\"body_address_words\":",
                  program.body_address_words());
    out += '}';
  }
  if (result.stage_done(Stage::kSimulate)) {
    const agu::SimResult& sim = result.sim;
    json_put_uint(out, ",\"simulate\":{\"iterations\":", result.iterations);
    json_put_bool(out, ",\"verified\":", result.verified);
    if (!sim.failure.empty()) {
      json_put_string(out, ",\"failure\":", sim.failure);
    }
    json_put_uint(out, ",\"accesses_executed\":", sim.accesses_executed);
    json_put_uint(out, ",\"extra_instructions\":", sim.extra_instructions);
    json_put_uint(out, ",\"address_cycles\":", sim.address_cycles);
    out += '}';
  }
  if (result.stage_done(Stage::kMetrics)) {
    json_put_int(out, ",\"metrics\":{\"baseline_size_words\":",
                 result.baseline_size_words);
    json_put_int(out, ",\"optimized_size_words\":",
                 result.optimized_size_words);
    json_put_int(out, ",\"baseline_cycles\":", result.baseline_cycles);
    json_put_int(out, ",\"optimized_cycles\":", result.optimized_cycles);
    json_put_double(out, ",\"size_reduction_percent\":",
                    result.size_reduction_percent);
    json_put_double(out, ",\"speed_reduction_percent\":",
                    result.speed_reduction_percent);
    out += '}';
  }
  out += '}';
}

std::string result_to_json_line(const Result& result) {
  std::string out;
  out.reserve(2048);
  out += "{\"kernel\":";
  append_kernel(out, result.kernel);
  // The full declarative spec: round-trips through
  // agu::machine_from_json and still carries the flat
  // registers/modify_registers/modify_range summary older consumers
  // read.
  out += ",\"machine\":";
  out += agu::machine_to_json(result.machine).dump();
  out += ',';
  append_result_members(out, result);
  out += '}';
  return out;
}

support::JsonValue result_to_json(const Result& result) {
  return JsonValue::parse(result_to_json_line(result));
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
