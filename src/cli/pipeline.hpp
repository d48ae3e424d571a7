// Thin CLI adapter over the engine (`dspaddr run`).
//
// The pass sequence itself lives in engine::Engine; this layer only
// resolves the effective AGU configuration (builtin machine defaults
// overridden by explicit flags) and renders the engine::Result as an
// ASCII report or one CSV row (shared schema with the batch runner).
#pragma once

#include <string>

#include "agu/machines.hpp"
#include "cli/machine_resolve.hpp"
#include "cli/options.hpp"
#include "engine/engine.hpp"

namespace dspaddr::cli {

/// The effective machine of a run / compare invocation: one
/// MachineSelector (name, file, overrides) resolved through the shared
/// cli/machine_resolve path.
agu::AguSpec resolve_machine(const RunOptions& options);
agu::AguSpec resolve_machine(const CompareOptions& options);

/// Multi-section human-readable report.
std::string report_to_text(const engine::Result& report, bool show_program);

/// Single CSV row (header + row, same schema as the batch runner's CSV
/// via eval::batch_csv_header / eval::batch_row_fields).
std::string report_to_csv(const engine::Result& report);

}  // namespace dspaddr::cli
