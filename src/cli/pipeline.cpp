#include "cli/pipeline.hpp"

#include <sstream>

#include "eval/batch.hpp"
#include "support/csv.hpp"
#include "support/strings.hpp"

namespace dspaddr::cli {

agu::AguSpec resolve_machine(const RunOptions& options) {
  MachineSelector selector;
  selector.name = options.machine;
  selector.file = options.machine_file;
  selector.registers = options.registers;
  selector.modify_range = options.modify_range;
  selector.modify_registers = options.modify_registers;
  return resolve_machine(selector);
}

agu::AguSpec resolve_machine(const CompareOptions& options) {
  MachineSelector selector;
  selector.name = options.machine;
  selector.file = options.machine_file;
  selector.registers = options.registers;
  selector.modify_range = options.modify_range;
  selector.modify_registers = options.modify_registers;
  return resolve_machine(selector);
}

std::string report_to_text(const engine::Result& report, bool show_program) {
  std::ostringstream out;
  const ir::Kernel& kernel = report.kernel;
  const agu::AguSpec& machine = report.machine;

  out << "kernel:  " << kernel.name();
  if (!kernel.description().empty()) {
    out << " — " << kernel.description();
  }
  out << "\n";
  out << "machine: " << machine.name << " (K=" << machine.address_registers()
      << ", L=" << machine.modify_registers();
  // Symmetric windows render as the paper's M; richer machines show
  // the full window, their free widths and a pre-modify marker.
  if (machine.modify_lo == -machine.modify_hi) {
    out << ", M=" << machine.modify_range();
  } else {
    out << ", M=[" << machine.modify_lo << ", " << machine.modify_hi << "]";
  }
  if (!machine.free_widths.empty()) {
    std::vector<std::string> widths;
    for (const std::int64_t width : machine.free_widths) {
      widths.push_back((width > 0 ? "+" : "") + std::to_string(width));
    }
    out << ", free " << support::join(widths, "/");
  }
  if (machine.addressing == agu::Addressing::kPreModify) {
    out << ", pre-modify";
  }
  out << ")\n";
  out << "layout:  " << report.layout << " — " << kernel.arrays().size()
      << " array(s) in " << report.layout_extent << " word(s), "
      << report.accesses << " accesses/iteration, " << report.iterations
      << " iterations\n\n";

  // The phase-structure detail is only printed for strategies whose
  // stats actually describe the paper's phases (the strategy says so
  // itself); placement baselines have no phases to report.
  const engine::AllocationStrategy* strategy =
      engine::StrategyRegistry::builtin().allocation(report.strategy);
  const bool phases = strategy != nullptr && strategy->reports_phases();
  out << "allocation (" << report.strategy;
  if (phases) {
    out << ": phase 1 "
        << (report.stats.phase1_exact ? "exact" : "heuristic");
    if (report.k_tilde.has_value()) {
      out << ", K~=" << *report.k_tilde;
    }
    out << ", " << report.stats.merges << " merge(s); phase 2 "
        << (report.stats.phase2_exact ? "exact" : "heuristic");
    if (report.stats.phase2_exact) {
      if (report.stats.phase2_proven) {
        out << ", proven optimal";
      } else {
        out << ", gap " << report.stats.phase2_gap << " (cost >= "
            << report.stats.phase2_lower_bound << ")";
      }
      if (report.stats.phase2_nodes > 0) {
        out << ", " << report.stats.phase2_nodes << " node(s)";
      }
    }
    if (report.stats.phase2_windows > 0) {
      out << "; tiled " << report.stats.phase2_windows_proven << "/"
          << report.stats.phase2_windows << " window(s) proven";
      if (!report.stats.phase2_window_widths.empty()) {
        out << ", widths";
        for (const std::size_t width : report.stats.phase2_window_widths) {
          out << ' ' << width;
        }
      }
    }
    if (report.stats.phase2_table_cap_hits > 0) {
      out << ", " << report.stats.phase2_table_cap_hits
          << " table-cap hit(s)";
    }
  }
  out << "):\n";
  out << report.allocation_text << "\n";
  out << "cost: " << report.allocation_cost << "/iteration (intra "
      << report.intra_cost << " + wrap " << report.wrap_cost << ")\n\n";

  out << "modify registers: " << report.plan.values.size() << " planned";
  if (!report.plan.values.empty()) {
    std::vector<std::string> parts;
    for (const core::ModifyRegister& mr : report.plan.values) {
      parts.push_back("MR=" + std::to_string(mr.value) + " covers " +
                      std::to_string(mr.covered));
    }
    out << " (" << support::join(parts, ", ") << ")";
  }
  out << "; residual cost " << report.plan.residual_cost << "/iteration\n\n";

  if (show_program) {
    out << "address program:\n" << report.program.to_string() << "\n";
  }
  out << "program: " << report.program.setup.size() << " setup + "
      << report.program.body.size() << " body instruction(s), "
      << report.program.setup_address_words() << "+"
      << report.program.body_address_words() << " address words\n";
  out << "simulation: " << (report.verified ? "VERIFIED" : "FAILED");
  if (!report.verified && !report.sim.failure.empty()) {
    out << " (" << report.sim.failure << ")";
  }
  out << " — " << report.sim.accesses_executed << " accesses, "
      << report.sim.extra_instructions << " extra address instruction(s), "
      << report.sim.address_cycles << " address cycle(s)\n\n";

  out << "code metrics (vs naive addressing):\n";
  out << "  size:  " << report.optimized_size_words << " vs "
      << report.baseline_size_words << " words  ("
      << support::format_percent(report.size_reduction_percent)
      << " smaller)\n";
  out << "  speed: " << report.optimized_cycles << " vs "
      << report.baseline_cycles << " cycles ("
      << support::format_percent(report.speed_reduction_percent)
      << " faster)\n";
  return out.str();
}

std::string report_to_csv(const engine::Result& report) {
  support::CsvWriter csv(eval::batch_csv_header());
  csv.add_row(eval::batch_row_fields(eval::row_from_result(report)));
  return csv.to_string();
}

}  // namespace dspaddr::cli
