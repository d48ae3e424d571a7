#include "support/check.hpp"

namespace dspaddr::detail {

void throw_invalid_argument(std::string_view message) {
  throw InvalidArgument(std::string(message));
}

void throw_invariant_violation(std::string_view message) {
  throw InvariantViolation(std::string(message));
}

}  // namespace dspaddr::detail
