// The zero-cost / unit-cost partitioning of address computations
// (paper section 2).
//
// An AGU post-modify by distance d executes in parallel with the data
// path iff d lies in the machine's free modify window; any longer move
// costs one extra instruction. The cost of handling two accesses
// consecutively in the same address register is therefore 0 or 1.
//
// The paper's model is the symmetric window |d| <= M. Real AGUs are
// richer: some only post-increment (window [0, M]), some reach further
// forward than backward, and many add dedicated auto-inc/dec widths
// (e.g. a free *(p++2) on word machines) outside the contiguous
// window. CostModel therefore carries an asymmetric window [lo, hi]
// with 0 inside it, plus a sorted list of extra free widths; the
// paper's M becomes the symmetric special case [-M, M].
//
// Two wrap policies are provided (see DESIGN.md section 1):
//  * kCyclic  (default): the transition from a register's last access in
//    iteration t to its first access in iteration t+1 is charged too —
//    the true steady-state loop cost.
//  * kAcyclic: only intra-iteration transitions are charged — the model
//    under which the minimum path cover is exactly solvable in
//    polynomial time via bipartite matching (Araujo-style bound [2]).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "ir/access_sequence.hpp"

namespace dspaddr::core {

enum class WrapPolicy {
  kCyclic,
  kAcyclic,
};

/// AGU cost parameters: the free modify window [lo, hi], extra free
/// auto-inc/dec widths, and the wrap policy.
class CostModel {
 public:
  CostModel() = default;

  /// The paper's symmetric model: free iff |d| <= modify_range.
  /// Keeps `CostModel{m, wrap}` call sites working unchanged.
  explicit CostModel(std::int64_t modify_range,
                     WrapPolicy wrap_policy = WrapPolicy::kCyclic)
      : modify_lo(-modify_range), modify_hi(modify_range), wrap(wrap_policy) {}

  /// Full asymmetric model with dedicated free widths.
  CostModel(std::int64_t lo, std::int64_t hi,
            std::vector<std::int64_t> widths,
            WrapPolicy wrap_policy = WrapPolicy::kCyclic)
      : modify_lo(lo), modify_hi(hi), free_widths(std::move(widths)),
        wrap(wrap_policy) {
    std::sort(free_widths.begin(), free_widths.end());
    free_widths.erase(std::unique(free_widths.begin(), free_widths.end()),
                      free_widths.end());
  }

  /// Lower bound of the free window (<= 0 when valid).
  std::int64_t modify_lo = -1;
  /// Upper bound of the free window (>= 0 when valid).
  std::int64_t modify_hi = 1;
  /// Extra free signed widths outside [lo, hi], sorted ascending.
  std::vector<std::int64_t> free_widths;
  WrapPolicy wrap = WrapPolicy::kCyclic;

  /// A window is valid iff it contains 0 (staying put is always free).
  bool valid() const { return modify_lo <= 0 && 0 <= modify_hi; }

  /// True iff a post-modify by `distance` is free on this machine.
  bool free_distance(std::int64_t distance) const {
    if (modify_lo <= distance && distance <= modify_hi) return true;
    return std::binary_search(free_widths.begin(), free_widths.end(),
                              distance);
  }

  /// The magnitude M shown in K/L/M summaries: the furthest reach of
  /// the contiguous window. Equals the paper's M for symmetric models.
  std::int64_t modify_range() const {
    return std::max(-modify_lo, modify_hi);
  }

  friend bool operator==(const CostModel& a, const CostModel& b) {
    return a.modify_lo == b.modify_lo && a.modify_hi == b.modify_hi &&
           a.free_widths == b.free_widths && a.wrap == b.wrap;
  }
  friend bool operator!=(const CostModel& a, const CostModel& b) {
    return !(a == b);
  }
};

/// Cost (0 or 1) of access `q` directly following access `p` within one
/// iteration in the same address register; `p` must precede `q` in the
/// sequence order (not checked here — enforced by Path).
inline int intra_transition_cost(const ir::AccessSequence& seq,
                                 std::size_t p, std::size_t q,
                                 const CostModel& model) {
  const std::optional<std::int64_t> distance = seq.intra_distance(p, q);
  return distance.has_value() && model.free_distance(*distance) ? 0 : 1;
}

/// Cost (0 or 1) of access `first` (iteration t+1) directly following
/// access `last` (iteration t) in the same register. Always 0 under
/// WrapPolicy::kAcyclic.
inline int wrap_transition_cost(const ir::AccessSequence& seq,
                                std::size_t last, std::size_t first,
                                const CostModel& model) {
  if (model.wrap == WrapPolicy::kAcyclic) return 0;
  const std::optional<std::int64_t> distance = seq.wrap_distance(last, first);
  return distance.has_value() && model.free_distance(*distance) ? 0 : 1;
}

}  // namespace dspaddr::core
