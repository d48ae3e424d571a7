// Catalog of AGU configurations modeled after real DSP families.
//
// The paper's cost model is parameterized by the number of address
// registers K and the free modify range M; real AGUs also differ in how
// many modify registers they offer, how asymmetric their free modify
// window is, and when the modify applies. The catalog is data: each
// machine is a declarative MachineSpec (see agu/machine_desc.hpp),
// parsed from the same `.machine` format as file-loaded targets, so
// benches can answer: *how does the same kernel fare across AGUs?*
#pragma once

#include <string>
#include <vector>

#include "agu/machine_desc.hpp"

namespace dspaddr::agu {

/// One AGU configuration. Historically a bare {K, L, M} triple; now the
/// full declarative spec (the triple is derived from it).
using AguSpec = MachineSpec;

/// Representative AGU configurations (MachineRegistry::builtin()).
std::vector<AguSpec> builtin_machines();

/// Lookup by name; throws InvalidArgument when unknown.
AguSpec builtin_machine(const std::string& name);

/// Names of all catalog entries.
std::vector<std::string> builtin_machine_names();

}  // namespace dspaddr::agu
