// The access sequence: the core input of the register-constrained
// address-computation problem (paper section 2).
//
// A loop body performs N array accesses a_1 .. a_N in a fixed order.
// Each access is characterized by its *effective offset* (its address at
// iteration 0, with array base addresses already folded in; see
// ir/layout.hpp) and its *stride* (how far its address advances per loop
// iteration; 1 for A[i + c] in a unit-stride loop, -1 for A[i - j]
// patterns scanned backwards, 0 for loop-invariant addresses).
//
// Address distances between two accesses handled consecutively by the
// same address register:
//   * within one iteration  (p before q):  o_q - o_p
//   * across the iteration boundary (q last in iteration t, p first in
//     iteration t+1):                      (o_p + s_p) - o_q
// Distances are only defined (constant over iterations) when both
// accesses have the same stride; transitions between different-stride
// accesses can never be a zero-cost post-modify and are reported as
// std::nullopt.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "support/check.hpp"

namespace dspaddr::ir {

/// One array access inside the loop body.
struct Access {
  /// Address at iteration 0 (array base folded in).
  std::int64_t offset = 0;
  /// Address advance per loop iteration.
  std::int64_t stride = 1;

  friend bool operator==(const Access& a, const Access& b) {
    return a.offset == b.offset && a.stride == b.stride;
  }
  friend bool operator!=(const Access& a, const Access& b) {
    return !(a == b);
  }
};

/// The ordered sequence of array accesses of one loop body.
class AccessSequence {
public:
  AccessSequence() = default;
  explicit AccessSequence(std::vector<Access> accesses);

  /// Convenience: all accesses share `stride` (the paper's setting, where
  /// every access is A[i + c] in a loop with increment `stride`).
  static AccessSequence from_offsets(const std::vector<std::int64_t>& offsets,
                                     std::int64_t stride = 1);

  std::size_t size() const { return accesses_.size(); }
  bool empty() const { return accesses_.empty(); }
  const Access& operator[](std::size_t i) const {
    check_index(i);
    return accesses_[i];
  }
  const std::vector<Access>& accesses() const { return accesses_; }

  /// Address distance when access `q` directly follows access `p` within
  /// one iteration; nullopt when strides differ (never zero-cost).
  std::optional<std::int64_t> intra_distance(std::size_t p,
                                             std::size_t q) const {
    check_index(p);
    check_index(q);
    if (accesses_[p].stride != accesses_[q].stride) return std::nullopt;
    return accesses_[q].offset - accesses_[p].offset;
  }

  /// Address distance when access `first` (in iteration t+1) directly
  /// follows access `last` (in iteration t); nullopt when strides differ.
  std::optional<std::int64_t> wrap_distance(std::size_t last,
                                            std::size_t first) const {
    check_index(last);
    check_index(first);
    if (accesses_[last].stride != accesses_[first].stride) {
      return std::nullopt;
    }
    return accesses_[first].offset + accesses_[first].stride -
           accesses_[last].offset;
  }

  friend bool operator==(const AccessSequence& a, const AccessSequence& b) {
    return a.accesses_ == b.accesses_;
  }
  friend bool operator!=(const AccessSequence& a, const AccessSequence& b) {
    return !(a == b);
  }

private:
  void check_index(std::size_t i) const {
    check_arg(i < accesses_.size(), "AccessSequence: index out of range");
  }

  std::vector<Access> accesses_;
};

}  // namespace dspaddr::ir
