// A DSP kernel: a named single-loop computation over declared arrays.
//
// This is the program-level view used by examples, benches and the
// code-generation model. `ir::lower` (layout.hpp) folds the array
// layout into effective offsets, producing the AccessSequence the
// allocator consumes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dspaddr::ir {

/// The largest |offset|, |stride| and array size a kernel accepts: 2^31.
/// Every front end (inline JSON, both file parsers, the builtins) builds
/// its kernel through add_array / add_access, which enforce it. Below
/// it, for any kernel of fewer than 2^30 arrays, nothing downstream
/// overflows int64: lowering's array base + offset, the cost model's
/// offset differences plus a stride, and the simulator's offset +
/// iteration * stride below 2^31 iterations.
constexpr std::int64_t kMaxMagnitude = std::int64_t{1} << 31;

/// An array declared by a kernel, placed in the linear address space by
/// ArrayLayout in declaration order.
struct ArrayDecl {
  std::string name;
  std::int64_t size = 0;

  friend bool operator==(const ArrayDecl& a, const ArrayDecl& b) {
    return a.name == b.name && a.size == b.size;
  }
  friend bool operator!=(const ArrayDecl& a, const ArrayDecl& b) {
    return !(a == b);
  }
};

/// One array access in the kernel's loop body, in body order.
struct KernelAccess {
  std::string array;
  /// Offset of the accessed element relative to the array's moving
  /// pointer at iteration 0 (e.g. -1 for x[i-1]).
  std::int64_t offset = 0;
  /// Address advance per loop iteration (e.g. -1 for x[i-j] inside a
  /// forward j-loop, 0 for a loop-invariant access).
  std::int64_t stride = 1;
  bool is_write = false;

  friend bool operator==(const KernelAccess& a, const KernelAccess& b) {
    return a.array == b.array && a.offset == b.offset &&
           a.stride == b.stride && a.is_write == b.is_write;
  }
  friend bool operator!=(const KernelAccess& a, const KernelAccess& b) {
    return !(a == b);
  }
};

/// A single-loop DSP kernel.
class Kernel {
public:
  Kernel() = default;
  Kernel(std::string name, std::string description);

  const std::string& name() const { return name_; }
  const std::string& description() const { return description_; }

  /// Declares an array; names must be unique and sizes in
  /// [1, kMaxMagnitude].
  Kernel& add_array(std::string name, std::int64_t size);

  /// Sets the modeled loop's iteration count (> 0).
  Kernel& set_iterations(std::int64_t iterations);

  /// Appends an access to the loop body; the array must be declared and
  /// |offset|, |stride| at most kMaxMagnitude.
  Kernel& add_access(std::string array, std::int64_t offset,
                     std::int64_t stride = 1, bool is_write = false);

  /// Number of pure data-path operations per iteration (MACs, adds, ...);
  /// used by the code-size/speed model of bench T2.
  Kernel& set_data_ops(std::int64_t data_ops);

  const std::vector<ArrayDecl>& arrays() const { return arrays_; }
  std::int64_t iterations() const { return iterations_; }
  const std::vector<KernelAccess>& accesses() const { return accesses_; }
  std::int64_t data_ops() const { return data_ops_; }

  bool has_array(const std::string& name) const;
  const ArrayDecl& array(const std::string& name) const;

  friend bool operator==(const Kernel& a, const Kernel& b) {
    return a.name_ == b.name_ && a.description_ == b.description_ &&
           a.arrays_ == b.arrays_ && a.iterations_ == b.iterations_ &&
           a.accesses_ == b.accesses_ && a.data_ops_ == b.data_ops_;
  }
  friend bool operator!=(const Kernel& a, const Kernel& b) {
    return !(a == b);
  }

private:
  std::string name_;
  std::string description_;
  std::vector<ArrayDecl> arrays_;
  std::int64_t iterations_ = 1;
  std::vector<KernelAccess> accesses_;
  std::int64_t data_ops_ = 0;
};

}  // namespace dspaddr::ir
