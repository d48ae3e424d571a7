#include "ir/kernel.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace dspaddr::ir {

Kernel::Kernel(std::string name, std::string description)
    : name_(std::move(name)), description_(std::move(description)) {
  check_arg(!name_.empty(), "Kernel: name must not be empty");
}

Kernel& Kernel::add_array(std::string name, std::int64_t size) {
  check_arg(!name.empty(), "Kernel: array name must not be empty");
  check_arg(size > 0, "Kernel: array size must be positive");
  check_arg(size <= kMaxMagnitude, "Kernel: array size exceeds 2^31");
  check_arg(!has_array(name), "Kernel: duplicate array name '" + name + "'");
  arrays_.push_back(ArrayDecl{std::move(name), size});
  return *this;
}

Kernel& Kernel::set_iterations(std::int64_t iterations) {
  check_arg(iterations > 0, "Kernel: iteration count must be positive");
  iterations_ = iterations;
  return *this;
}

Kernel& Kernel::add_access(std::string array, std::int64_t offset,
                           std::int64_t stride, bool is_write) {
  check_arg(has_array(array),
            "Kernel: access to undeclared array '" + array + "'");
  check_arg(offset >= -kMaxMagnitude && offset <= kMaxMagnitude,
            "Kernel: |offset| exceeds 2^31");
  check_arg(stride >= -kMaxMagnitude && stride <= kMaxMagnitude,
            "Kernel: |stride| exceeds 2^31");
  accesses_.push_back(KernelAccess{std::move(array), offset, stride, is_write});
  return *this;
}

Kernel& Kernel::set_data_ops(std::int64_t data_ops) {
  check_arg(data_ops >= 0, "Kernel: data op count must be non-negative");
  data_ops_ = data_ops;
  return *this;
}

bool Kernel::has_array(const std::string& name) const {
  return std::any_of(arrays_.begin(), arrays_.end(),
                     [&](const ArrayDecl& a) { return a.name == name; });
}

const ArrayDecl& Kernel::array(const std::string& name) const {
  const auto it = std::find_if(arrays_.begin(), arrays_.end(),
                               [&](const ArrayDecl& a) {
                                 return a.name == name;
                               });
  check_arg(it != arrays_.end(),
            "Kernel: unknown array '" + name + "'");
  return *it;
}

}  // namespace dspaddr::ir
