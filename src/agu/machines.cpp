#include "agu/machines.hpp"

namespace dspaddr::agu {

std::vector<AguSpec> builtin_machines() {
  return MachineRegistry::builtin().all();
}

AguSpec builtin_machine(const std::string& name) {
  return MachineRegistry::builtin().get(name);
}

std::vector<std::string> builtin_machine_names() {
  return MachineRegistry::builtin().names();
}

}  // namespace dspaddr::agu
