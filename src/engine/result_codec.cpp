#include "engine/result_codec.hpp"

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "support/check.hpp"
#include "support/json.hpp"

namespace dspaddr::engine {
namespace {

using support::JsonValue;

constexpr std::int64_t kCodecVersion = 1;

// The writer appends the record straight to one string with the
// support/json.hpp primitives — no JsonValue tree — and produces the
// bytes JsonValue::dump() would for the same members in the same
// order. Each put_* appends `prefix` (the separator, the member's
// quoted name and its colon, plus any opening braces) and then the
// value. Sizes and counters are written as int64, as the reader
// expects.

void put_int(std::string& out, const char* prefix, std::int64_t value) {
  out += prefix;
  support::json_append_int(out, value);
}

void put_uint(std::string& out, const char* prefix, std::uint64_t value) {
  put_int(out, prefix, static_cast<std::int64_t>(value));
}

void put_bool(std::string& out, const char* prefix, bool value) {
  out += prefix;
  out += value ? "true" : "false";
}

void put_optional(std::string& out, const char* prefix,
                  const std::optional<std::size_t>& value) {
  if (value.has_value()) {
    put_uint(out, prefix, *value);
  } else {
    out += prefix;
    out += "null";
  }
}

void put_string(std::string& out, const char* prefix, std::string_view value) {
  out += prefix;
  support::json_append_string(out, value);
}

void put_double(std::string& out, const char* prefix, double value) {
  out += prefix;
  support::json_append_double(out, value);
}

// Instructions are dense: one array [op, reg, value, access,
// next_iteration, mr] per instruction, opcodes/addressing as integers.
// The codec version (not names) gates compatibility — this is a
// node-local cache format, not an interchange format.
void put_instructions(std::string& out, const char* prefix,
                      const std::vector<agu::Instruction>& instructions) {
  out += prefix;
  out += '[';
  for (std::size_t i = 0; i < instructions.size(); ++i) {
    const agu::Instruction& instruction = instructions[i];
    put_int(out, i == 0 ? "[" : ",[", static_cast<int>(instruction.op));
    put_uint(out, ",", instruction.reg);
    put_int(out, ",", instruction.value);
    put_uint(out, ",", instruction.access);
    put_bool(out, ",", instruction.next_iteration);
    put_int(out, ",", instruction.mr);
    out += ']';
  }
  out += ']';
}

agu::Instruction instruction_from_json(const JsonValue& json) {
  check_arg(json.is_array() && json.items().size() == 6,
            "result codec: instruction must be a 6-element array");
  const auto& items = json.items();
  agu::Instruction instruction;
  const std::int64_t op = items[0].as_int();
  check_arg(op >= 0 && op <= static_cast<std::int64_t>(agu::Opcode::kLdmr),
            "result codec: unknown opcode");
  instruction.op = static_cast<agu::Opcode>(op);
  instruction.reg = static_cast<std::size_t>(items[1].as_int());
  instruction.value = items[2].as_int();
  instruction.access = static_cast<std::size_t>(items[3].as_int());
  instruction.next_iteration = items[4].as_bool();
  instruction.mr = static_cast<std::int32_t>(items[5].as_int());
  return instruction;
}

agu::Program program_from_json(const JsonValue& json) {
  check_arg(json.is_object(), "result codec: 'program' must be an object");
  agu::Program program;
  const JsonValue* setup = json.find("setup");
  const JsonValue* body = json.find("body");
  check_arg(setup != nullptr && setup->is_array() && body != nullptr &&
                body->is_array(),
            "result codec: program needs 'setup' and 'body' arrays");
  for (const JsonValue& entry : setup->items()) {
    program.setup.push_back(instruction_from_json(entry));
  }
  for (const JsonValue& entry : body->items()) {
    program.body.push_back(instruction_from_json(entry));
  }
  const JsonValue* registers = json.find("registers");
  const JsonValue* modify = json.find("modify_registers");
  const JsonValue* addressing = json.find("addressing");
  check_arg(registers != nullptr && modify != nullptr &&
                addressing != nullptr,
            "result codec: program needs registers/modify_registers/"
            "addressing");
  program.register_count = static_cast<std::size_t>(registers->as_int());
  program.modify_register_count = static_cast<std::size_t>(modify->as_int());
  const std::int64_t mode = addressing->as_int();
  check_arg(mode >= 0 &&
                mode <= static_cast<std::int64_t>(agu::Addressing::kPreModify),
            "result codec: unknown addressing mode");
  program.addressing = static_cast<agu::Addressing>(mode);
  return program;
}

core::AllocationStats stats_from_json(const JsonValue& json) {
  check_arg(json.is_object(), "result codec: 'stats' must be an object");
  const auto required = [&](const char* key) -> const JsonValue& {
    const JsonValue* value = json.find(key);
    check_arg(value != nullptr,
              std::string("result codec: stats missing '") + key + "'");
    return *value;
  };
  core::AllocationStats stats;
  const JsonValue& k_tilde = required("k_tilde");
  if (!k_tilde.is_null()) {
    stats.k_tilde = static_cast<std::size_t>(k_tilde.as_int());
  }
  stats.lower_bound =
      static_cast<std::size_t>(required("lower_bound").as_int());
  const JsonValue& upper_bound = required("upper_bound");
  if (!upper_bound.is_null()) {
    stats.upper_bound = static_cast<std::size_t>(upper_bound.as_int());
  }
  stats.phase1_exact = required("phase1_exact").as_bool();
  stats.search_nodes =
      static_cast<std::uint64_t>(required("search_nodes").as_int());
  stats.merges = static_cast<std::size_t>(required("merges").as_int());
  stats.phase2_exact = required("phase2_exact").as_bool();
  stats.phase2_proven = required("phase2_proven").as_bool();
  stats.phase2_nodes =
      static_cast<std::uint64_t>(required("phase2_nodes").as_int());
  stats.phase2_lower_bound =
      static_cast<int>(required("phase2_lower_bound").as_int());
  stats.phase2_gap = static_cast<int>(required("phase2_gap").as_int());
  stats.phase2_table_cap_hits =
      static_cast<std::uint64_t>(required("phase2_table_cap_hits").as_int());
  stats.phase2_subtree_tasks =
      static_cast<std::uint64_t>(required("phase2_subtree_tasks").as_int());
  // Records written before the work-stealing fields existed fail the
  // required() check above on an *earlier* key only if that key is
  // also absent; these three are new, so they get the same strict
  // treatment — a stale store entry decodes as corrupt and the engine
  // self-heals by recomputing and re-appending.
  stats.phase2_steals =
      static_cast<std::uint64_t>(required("phase2_steals").as_int());
  stats.phase2_steal_attempts =
      static_cast<std::uint64_t>(required("phase2_steal_attempts").as_int());
  stats.phase2_splits =
      static_cast<std::uint64_t>(required("phase2_splits").as_int());
  stats.phase2_windows =
      static_cast<std::size_t>(required("phase2_windows").as_int());
  stats.phase2_windows_proven =
      static_cast<std::size_t>(required("phase2_windows_proven").as_int());
  const JsonValue& widths = required("phase2_window_widths");
  check_arg(widths.is_array(),
            "result codec: 'phase2_window_widths' must be an array");
  for (const JsonValue& width : widths.items()) {
    stats.phase2_window_widths.push_back(
        static_cast<std::size_t>(width.as_int()));
  }
  return stats;
}

core::ModifyRegisterPlan plan_from_json(const JsonValue& json) {
  check_arg(json.is_object(), "result codec: 'plan' must be an object");
  core::ModifyRegisterPlan plan;
  const JsonValue* values = json.find("values");
  const JsonValue* covered = json.find("covered_per_iteration");
  const JsonValue* residual = json.find("residual_cost");
  check_arg(values != nullptr && values->is_array() && covered != nullptr &&
                residual != nullptr,
            "result codec: plan needs values/covered_per_iteration/"
            "residual_cost");
  for (const JsonValue& entry : values->items()) {
    check_arg(entry.is_array() && entry.items().size() == 2,
              "result codec: plan value must be a [value, covered] pair");
    core::ModifyRegister mr;
    mr.value = entry.items()[0].as_int();
    mr.covered = static_cast<int>(entry.items()[1].as_int());
    plan.values.push_back(mr);
  }
  plan.covered_per_iteration = static_cast<int>(covered->as_int());
  plan.residual_cost = static_cast<int>(residual->as_int());
  return plan;
}

agu::SimResult sim_from_json(const JsonValue& json) {
  check_arg(json.is_object(), "result codec: 'sim' must be an object");
  const auto required = [&](const char* key) -> const JsonValue& {
    const JsonValue* value = json.find(key);
    check_arg(value != nullptr,
              std::string("result codec: sim missing '") + key + "'");
    return *value;
  };
  agu::SimResult sim;
  sim.verified = required("verified").as_bool();
  if (const JsonValue* failure = json.find("failure")) {
    sim.failure = failure->as_string();
  }
  sim.iterations = static_cast<std::uint64_t>(required("iterations").as_int());
  sim.accesses_executed =
      static_cast<std::uint64_t>(required("accesses_executed").as_int());
  sim.setup_instructions =
      static_cast<std::uint64_t>(required("setup_instructions").as_int());
  sim.extra_instructions =
      static_cast<std::uint64_t>(required("extra_instructions").as_int());
  sim.address_cycles =
      static_cast<std::uint64_t>(required("address_cycles").as_int());
  return sim;
}

}  // namespace

std::string encode_result(const Result& result) {
  std::string out;
  out.reserve(2048);
  put_int(out, "{\"v\":", kCodecVersion);
  put_string(out, ",\"stop_after\":", stage_name(result.stop_after));
  put_string(out, ",\"layout\":", result.layout);
  put_string(out, ",\"strategy\":", result.strategy);
  if (result.error.has_value()) {
    put_string(out, ",\"error\":{\"stage\":",
               stage_name(result.error->stage));
    put_string(out, ",\"message\":", result.error->message);
    out += '}';
  }
  put_uint(out, ",\"accesses\":", result.accesses);
  put_int(out, ",\"layout_extent\":", result.layout_extent);
  put_optional(out, ",\"k_tilde\":", result.k_tilde);

  const core::AllocationStats& stats = result.stats;
  put_optional(out, ",\"stats\":{\"k_tilde\":", stats.k_tilde);
  put_uint(out, ",\"lower_bound\":", stats.lower_bound);
  put_optional(out, ",\"upper_bound\":", stats.upper_bound);
  put_bool(out, ",\"phase1_exact\":", stats.phase1_exact);
  put_uint(out, ",\"search_nodes\":", stats.search_nodes);
  put_uint(out, ",\"merges\":", stats.merges);
  put_bool(out, ",\"phase2_exact\":", stats.phase2_exact);
  put_bool(out, ",\"phase2_proven\":", stats.phase2_proven);
  put_uint(out, ",\"phase2_nodes\":", stats.phase2_nodes);
  put_int(out, ",\"phase2_lower_bound\":", stats.phase2_lower_bound);
  put_int(out, ",\"phase2_gap\":", stats.phase2_gap);
  put_uint(out, ",\"phase2_table_cap_hits\":", stats.phase2_table_cap_hits);
  put_uint(out, ",\"phase2_subtree_tasks\":", stats.phase2_subtree_tasks);
  put_uint(out, ",\"phase2_steals\":", stats.phase2_steals);
  put_uint(out, ",\"phase2_steal_attempts\":", stats.phase2_steal_attempts);
  put_uint(out, ",\"phase2_splits\":", stats.phase2_splits);
  put_uint(out, ",\"phase2_windows\":", stats.phase2_windows);
  put_uint(out, ",\"phase2_windows_proven\":", stats.phase2_windows_proven);
  out += ",\"phase2_window_widths\":[";
  for (std::size_t i = 0; i < stats.phase2_window_widths.size(); ++i) {
    put_uint(out, i == 0 ? "" : ",", stats.phase2_window_widths[i]);
  }
  // phase2_nodes_per_sec is wall-clock derived: never serialized.
  out += "]}";

  put_int(out, ",\"allocation_cost\":", result.allocation_cost);
  put_int(out, ",\"intra_cost\":", result.intra_cost);
  put_int(out, ",\"wrap_cost\":", result.wrap_cost);
  put_string(out, ",\"allocation_text\":", result.allocation_text);

  out += ",\"plan\":{\"values\":[";
  for (std::size_t i = 0; i < result.plan.values.size(); ++i) {
    const core::ModifyRegister& mr = result.plan.values[i];
    put_int(out, i == 0 ? "[" : ",[", mr.value);
    put_int(out, ",", mr.covered);
    out += ']';
  }
  put_int(out, "],\"covered_per_iteration\":",
          result.plan.covered_per_iteration);
  put_int(out, ",\"residual_cost\":", result.plan.residual_cost);
  out += '}';

  const agu::Program& program = result.program;
  put_instructions(out, ",\"program\":{\"setup\":", program.setup);
  put_instructions(out, ",\"body\":", program.body);
  put_uint(out, ",\"registers\":", program.register_count);
  put_uint(out, ",\"modify_registers\":", program.modify_register_count);
  put_int(out, ",\"addressing\":", static_cast<int>(program.addressing));
  out += '}';

  put_uint(out, ",\"iterations\":", result.iterations);
  const agu::SimResult& sim = result.sim;
  put_bool(out, ",\"sim\":{\"verified\":", sim.verified);
  if (!sim.failure.empty()) {
    put_string(out, ",\"failure\":", sim.failure);
  }
  put_uint(out, ",\"iterations\":", sim.iterations);
  put_uint(out, ",\"accesses_executed\":", sim.accesses_executed);
  put_uint(out, ",\"setup_instructions\":", sim.setup_instructions);
  put_uint(out, ",\"extra_instructions\":", sim.extra_instructions);
  put_uint(out, ",\"address_cycles\":", sim.address_cycles);
  // The trace is only recorded under Simulator::Options::record_trace,
  // which the engine never enables: not serialized.
  out += '}';

  put_bool(out, ",\"verified\":", result.verified);
  put_int(out, ",\"metrics\":{\"baseline_size_words\":",
          result.baseline_size_words);
  put_int(out, ",\"baseline_cycles\":", result.baseline_cycles);
  put_int(out, ",\"optimized_size_words\":", result.optimized_size_words);
  put_int(out, ",\"optimized_cycles\":", result.optimized_cycles);
  put_double(out, ",\"size_reduction_percent\":",
             result.size_reduction_percent);
  put_double(out, ",\"speed_reduction_percent\":",
             result.speed_reduction_percent);
  out += "}}";
  return out;
}

Result decode_result(std::string_view encoded) {
  const JsonValue json = JsonValue::parse(encoded);
  check_arg(json.is_object(), "result codec: expected a JSON object");
  const auto required = [&](const char* key) -> const JsonValue& {
    const JsonValue* value = json.find(key);
    check_arg(value != nullptr,
              std::string("result codec: missing '") + key + "'");
    return *value;
  };
  check_arg(required("v").as_int() == kCodecVersion,
            "result codec: foreign codec version");

  Result result;
  const std::optional<Stage> stop_after =
      stage_from_name(required("stop_after").as_string());
  check_arg(stop_after.has_value(), "result codec: unknown stop_after stage");
  result.stop_after = *stop_after;
  result.layout = required("layout").as_string();
  result.strategy = required("strategy").as_string();
  if (const JsonValue* error = json.find("error")) {
    const JsonValue* stage = error->find("stage");
    const JsonValue* message = error->find("message");
    check_arg(stage != nullptr && message != nullptr,
              "result codec: error needs 'stage' and 'message'");
    const std::optional<Stage> error_stage =
        stage_from_name(stage->as_string());
    check_arg(error_stage.has_value(), "result codec: unknown error stage");
    result.error = StageError{*error_stage, message->as_string()};
  }
  result.accesses = static_cast<std::size_t>(required("accesses").as_int());
  result.layout_extent = required("layout_extent").as_int();
  const JsonValue& k_tilde = required("k_tilde");
  if (!k_tilde.is_null()) {
    result.k_tilde = static_cast<std::size_t>(k_tilde.as_int());
  }
  result.stats = stats_from_json(required("stats"));
  result.allocation_cost = static_cast<int>(required("allocation_cost").as_int());
  result.intra_cost = static_cast<int>(required("intra_cost").as_int());
  result.wrap_cost = static_cast<int>(required("wrap_cost").as_int());
  result.allocation_text = required("allocation_text").as_string();
  result.plan = plan_from_json(required("plan"));
  result.program = program_from_json(required("program"));
  result.iterations =
      static_cast<std::uint64_t>(required("iterations").as_int());
  result.sim = sim_from_json(required("sim"));
  result.verified = required("verified").as_bool();
  const JsonValue& metrics = required("metrics");
  check_arg(metrics.is_object(), "result codec: 'metrics' must be an object");
  const auto metric = [&](const char* key) -> const JsonValue& {
    const JsonValue* value = metrics.find(key);
    check_arg(value != nullptr,
              std::string("result codec: metrics missing '") + key + "'");
    return *value;
  };
  result.baseline_size_words = metric("baseline_size_words").as_int();
  result.baseline_cycles = metric("baseline_cycles").as_int();
  result.optimized_size_words = metric("optimized_size_words").as_int();
  result.optimized_cycles = metric("optimized_cycles").as_int();
  result.size_reduction_percent = metric("size_reduction_percent").as_double();
  result.speed_reduction_percent =
      metric("speed_reduction_percent").as_double();
  return result;
}

}  // namespace dspaddr::engine
