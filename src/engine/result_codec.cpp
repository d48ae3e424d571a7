#include "engine/result_codec.hpp"

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "engine/serialize.hpp"
#include "support/check.hpp"
#include "support/json.hpp"

namespace dspaddr::engine {
namespace {

using support::json_put_bool;
using support::json_put_int;
using support::json_put_string;
using support::json_put_uint;
using support::JsonValue;

// Version 2 still names the shape after the four always-zero
// work-stealing members left the phase-2 block: every record under a
// v5 fingerprint key (engine/fingerprint.cpp) is written by a build
// without them, so a record with them is never looked up, and the
// decoder ignores members it does not read anyway.
constexpr std::int64_t kCodecVersion = 2;

// Instructions are dense: one array [op, reg, value, access,
// next_iteration, mr] per instruction, the opcode as an integer and
// next_iteration as 0 or 1. The codec version (not names) gates
// compatibility — this is a node-local cache format, not an interchange
// format.
void append_instructions(std::string& out,
                         const std::vector<agu::Instruction>& instructions) {
  out += '[';
  for (std::size_t i = 0; i < instructions.size(); ++i) {
    const agu::Instruction& instruction = instructions[i];
    json_put_int(out, i == 0 ? "[" : ",[", static_cast<int>(instruction.op));
    json_put_uint(out, ",", instruction.reg);
    json_put_int(out, ",", instruction.value);
    json_put_uint(out, ",", instruction.access);
    json_put_int(out, ",", instruction.next_iteration ? 1 : 0);
    json_put_int(out, ",", instruction.mr);
    out += ']';
  }
  out += ']';
}

const JsonValue& member(const JsonValue& object, const char* key) {
  const JsonValue* value = object.find(key);
  check_arg(value != nullptr,
            std::string("result codec: missing '") + key + "'");
  return *value;
}

/// A size or counter: rejected when negative, before the cast to
/// unsigned could turn it into a huge count.
std::uint64_t count_of(const JsonValue& value) {
  const std::int64_t count = value.as_int();
  check_arg(count >= 0, "result codec: negative count");
  return static_cast<std::uint64_t>(count);
}

std::uint64_t count(const JsonValue& object, const char* key) {
  return count_of(member(object, key));
}

int int_of(const JsonValue& object, const char* key) {
  const std::int64_t value = member(object, key).as_int();
  check_arg(value >= std::numeric_limits<int>::min() &&
                value <= std::numeric_limits<int>::max(),
            std::string("result codec: '") + key + "' out of range");
  return static_cast<int>(value);
}

std::int64_t int64_of(const JsonValue& object, const char* key) {
  return member(object, key).as_int();
}

bool bool_of(const JsonValue& object, const char* key) {
  return member(object, key).as_bool();
}

Stage stage_of(const JsonValue& object, const char* key) {
  const std::optional<Stage> stage =
      stage_from_name(member(object, key).as_string());
  check_arg(stage.has_value(),
            std::string("result codec: unknown stage in '") + key + "'");
  return *stage;
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
  instruction.reg = count_of(items[1]);
  instruction.value = items[2].as_int();
  instruction.access = count_of(items[3]);
  const std::int64_t next_iteration = items[4].as_int();
  check_arg(next_iteration == 0 || next_iteration == 1,
            "result codec: next_iteration must be 0 or 1");
  instruction.next_iteration = next_iteration == 1;
  const std::int64_t mr = items[5].as_int();
  check_arg(mr >= -1 && mr <= std::numeric_limits<std::int32_t>::max(),
            "result codec: modify register out of range");
  instruction.mr = static_cast<std::int32_t>(mr);
  return instruction;
}

agu::Program program_from_json(const JsonValue& json) {
  agu::Program program;
  for (const JsonValue& entry : member(json, "setup").items()) {
    program.setup.push_back(instruction_from_json(entry));
  }
  for (const JsonValue& entry : member(json, "body").items()) {
    program.body.push_back(instruction_from_json(entry));
  }
  program.register_count = count(json, "registers");
  program.modify_register_count = count(json, "modify_registers");
  const std::int64_t mode = int64_of(json, "addressing");
  check_arg(mode >= 0 &&
                mode <= static_cast<std::int64_t>(agu::Addressing::kPreModify),
            "result codec: unknown addressing mode");
  program.addressing = static_cast<agu::Addressing>(mode);
  return program;
}

/// The allocate stage's response members plus phase 1's search
/// figures from the detail.
void allocate_from_json(const JsonValue& allocate, const JsonValue& detail,
                        Result& result) {
  const JsonValue& k_tilde = member(allocate, "k_tilde");
  if (!k_tilde.is_null()) {
    result.k_tilde = count_of(k_tilde);
  }
  result.allocation_cost = int_of(allocate, "cost");
  result.intra_cost = int_of(allocate, "intra_cost");
  result.wrap_cost = int_of(allocate, "wrap_cost");

  core::AllocationStats& stats = result.stats;
  stats.k_tilde = result.k_tilde;
  stats.lower_bound = count(detail, "lower_bound");
  const JsonValue& upper_bound = member(detail, "upper_bound");
  if (!upper_bound.is_null()) {
    stats.upper_bound = count_of(upper_bound);
  }
  stats.phase1_exact = bool_of(allocate, "phase1_exact");
  stats.search_nodes = count(detail, "search_nodes");
  stats.merges = count(allocate, "merges");

  const JsonValue& phase2 = member(allocate, "phase2");
  stats.phase2_exact = bool_of(phase2, "exact");
  stats.phase2_proven = bool_of(phase2, "proven");
  stats.phase2_gap = int_of(phase2, "gap");
  stats.phase2_lower_bound = int_of(phase2, "lower_bound");
  stats.phase2_nodes = count(phase2, "nodes");
  stats.phase2_table_cap_hits = count(phase2, "table_cap_hits");
  stats.phase2_windows = count(phase2, "windows");
  stats.phase2_windows_proven = count(phase2, "windows_proven");
  for (const JsonValue& width : member(phase2, "window_widths").items()) {
    stats.phase2_window_widths.push_back(count_of(width));
  }
  result.allocation_text = member(detail, "allocation_text").as_string();
}

core::ModifyRegisterPlan plan_from_json(const JsonValue& json) {
  core::ModifyRegisterPlan plan;
  for (const JsonValue& entry : member(json, "modify_registers").items()) {
    plan.values.push_back(core::ModifyRegister{int64_of(entry, "value"),
                                               int_of(entry, "covered")});
  }
  plan.covered_per_iteration = int_of(json, "covered_per_iteration");
  plan.residual_cost = int_of(json, "residual_cost");
  return plan;
}

}  // namespace

std::string encode_result(const Result& result) {
  std::string out;
  out.reserve(2048);
  json_put_int(out, "{\"v\":", kCodecVersion);
  out += ',';
  append_result_members(out, result);

  // What the response leaves out and a later surface reads: phase 1's
  // search figures, the allocation text and the address program (the
  // `run` text report prints both), and the simulator's own verdict and
  // setup count. Written whatever stages ran: an unrun stage's fields
  // hold their defaults.
  const core::AllocationStats& stats = result.stats;
  json_put_uint(out, ",\"detail\":{\"lower_bound\":", stats.lower_bound);
  out += ",\"upper_bound\":";
  if (stats.upper_bound.has_value()) {
    json_put_uint(out, "", *stats.upper_bound);
  } else {
    out += "null";
  }
  json_put_uint(out, ",\"search_nodes\":", stats.search_nodes);
  json_put_string(out, ",\"allocation_text\":", result.allocation_text);
  const agu::Program& program = result.program;
  out += ",\"program\":{\"setup\":";
  append_instructions(out, program.setup);
  out += ",\"body\":";
  append_instructions(out, program.body);
  json_put_uint(out, ",\"registers\":", program.register_count);
  json_put_uint(out, ",\"modify_registers\":",
                program.modify_register_count);
  json_put_int(out, ",\"addressing\":", static_cast<int>(program.addressing));
  // The simulator's verdict can differ from the response's "verified",
  // which also checks the executed cost. The trace is only recorded
  // under Simulator::Options::record_trace, which the engine never
  // enables: not serialized.
  json_put_bool(out, "},\"sim\":{\"verified\":", result.sim.verified);
  json_put_uint(out, ",\"setup_instructions\":",
                result.sim.setup_instructions);
  out += "}}}";
  return out;
}

Result decode_result(std::string_view encoded) {
  const JsonValue json = JsonValue::parse(encoded);
  check_arg(json.is_object(), "result codec: expected a JSON object");
  check_arg(int64_of(json, "v") == kCodecVersion,
            "result codec: foreign codec version");

  Result result;
  result.layout = member(json, "layout").as_string();
  result.strategy = member(json, "strategy").as_string();
  result.stop_after = stage_of(json, "stop_after");
  if (const JsonValue* error = json.find("error")) {
    result.error =
        StageError{stage_of(*error, "stage"),
                   member(*error, "message").as_string()};
  }
  const JsonValue& stages = member(json, "stages");
  const JsonValue& detail = member(json, "detail");

  if (result.stage_done(Stage::kLower)) {
    const JsonValue& lower = member(stages, "lower");
    result.accesses = count(lower, "accesses");
    result.layout_extent = int64_of(lower, "layout_extent");
  }
  if (result.stage_done(Stage::kAllocate)) {
    allocate_from_json(member(stages, "allocate"), detail, result);
  }
  if (result.stage_done(Stage::kPlan)) {
    result.plan = plan_from_json(member(stages, "plan"));
  }
  result.program = program_from_json(member(detail, "program"));
  if (result.stage_done(Stage::kCodegen)) {
    const JsonValue& codegen = member(stages, "codegen");
    check_arg(count(codegen, "setup_instructions") ==
                      result.program.setup.size() &&
                  count(codegen, "body_instructions") ==
                      result.program.body.size(),
              "result codec: codegen counts disagree with the program");
  }
  const JsonValue& sim = member(detail, "sim");
  result.sim.verified = bool_of(sim, "verified");
  result.sim.setup_instructions = count(sim, "setup_instructions");
  if (result.stage_done(Stage::kSimulate)) {
    const JsonValue& simulate = member(stages, "simulate");
    result.iterations = count(simulate, "iterations");
    result.verified = bool_of(simulate, "verified");
    if (const JsonValue* failure = simulate.find("failure")) {
      result.sim.failure = failure->as_string();
    }
    result.sim.iterations = result.iterations;
    result.sim.accesses_executed = count(simulate, "accesses_executed");
    result.sim.extra_instructions = count(simulate, "extra_instructions");
    result.sim.address_cycles = count(simulate, "address_cycles");
  }
  if (result.stage_done(Stage::kMetrics)) {
    const JsonValue& metrics = member(stages, "metrics");
    result.baseline_size_words = int64_of(metrics, "baseline_size_words");
    result.optimized_size_words = int64_of(metrics, "optimized_size_words");
    result.baseline_cycles = int64_of(metrics, "baseline_cycles");
    result.optimized_cycles = int64_of(metrics, "optimized_cycles");
    result.size_reduction_percent =
        member(metrics, "size_reduction_percent").as_double();
    result.speed_reduction_percent =
        member(metrics, "speed_reduction_percent").as_double();
  }
  return result;
}

}  // namespace dspaddr::engine
