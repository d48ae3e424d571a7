// Lightweight precondition / invariant checking for the dspaddr library.
//
// The library reports contract violations by throwing exceptions derived
// from dspaddr::Error so that callers (tests, tools, long-running sweeps)
// can recover from a single bad input without tearing the process down.
#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>

namespace dspaddr {

/// Base class of all exceptions thrown by the dspaddr library.
class Error : public std::runtime_error {
public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when a function argument violates its documented contract.
class InvalidArgument : public Error {
public:
  explicit InvalidArgument(const std::string& what) : Error(what) {}
};

/// Thrown when an internal invariant is found broken (a library bug or
/// corrupted input structure, e.g. an allocation that does not cover the
/// access sequence).
class InvariantViolation : public Error {
public:
  explicit InvariantViolation(const std::string& what) : Error(what) {}
};

namespace detail {

/// The throwing halves of the checks below, kept out of line so a
/// passing check costs one inlined branch.
[[noreturn]] void throw_invalid_argument(std::string_view message);
[[noreturn]] void throw_invariant_violation(std::string_view message);

}  // namespace detail

/// Throws InvalidArgument with `message` unless `condition` holds.
inline void check_arg(bool condition, std::string_view message) {
  if (!condition) detail::throw_invalid_argument(message);
}

/// Throws InvariantViolation with `message` unless `condition` holds.
inline void check_invariant(bool condition, std::string_view message) {
  if (!condition) detail::throw_invariant_violation(message);
}

/// Checked narrowing conversion in the spirit of gsl::narrow: throws
/// InvalidArgument if the value does not round-trip.
template <typename To, typename From>
To narrow(From value) {
  const To result = static_cast<To>(value);
  if (static_cast<From>(result) != value ||
      ((result < To{}) != (value < From{}))) {
    throw InvalidArgument("narrowing conversion lost information");
  }
  return result;
}

}  // namespace dspaddr
