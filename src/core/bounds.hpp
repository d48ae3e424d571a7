// Lower and upper bounds on K~, the minimum number of virtual address
// registers admitting a zero-cost allocation (paper section 3.1), plus
// the admissible suffix bounds driving the phase-2 exact search.
//
// * Lower bound: the minimum path cover of the intra-iteration zero-cost
//   DAG, computed exactly as N - (maximum bipartite matching) — the
//   technique of Araujo et al. [2]. Every zero-cost cover under the
//   cyclic model is in particular a path cover of that DAG, so its size
//   is bounded below by this value.
// * Upper bound: a greedy sweep that appends each access to the
//   zero-cost-compatible open path with the nearest endpoint, followed
//   by a split-repair pass that restores zero wrap cost. The result is a
//   valid zero-cost cover (hence an upper bound on K~) whenever one
//   exists.
// * SuffixBounds: O(N^2) tables underestimating the cost still to be
//   paid by a partial phase-2 assignment — the cheapest-transition
//   relaxation per unassigned access and a wrap-cost floor per open
//   register.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "core/access_graph.hpp"
#include "core/path.hpp"

namespace dspaddr::core {

/// Matching-based lower bound on K~ (exact minimum under kAcyclic).
std::size_t lower_bound_registers(const AccessGraph& graph);

/// The acyclic-optimal cover itself (used as the phase-2 starting point
/// when no zero-cost cyclic cover exists).
std::vector<Path> acyclic_optimal_cover(const AccessGraph& graph);

/// Greedy zero-cost cover; the size of the returned cover is an upper
/// bound on K~. Returns nullopt when the greedy cannot produce one —
/// only possible when some access has |stride| > M (singletons no longer
/// close for free); a zero-cost cover may still exist in that case and
/// phase 1's exact search (core/phase1.hpp) decides.
std::optional<std::vector<Path>> greedy_zero_cost_cover(
    const AccessGraph& graph);

/// Admissible lower bounds on the remaining cost of a partial phase-2
/// assignment (accesses [from, N) still unassigned).
///
/// Two relaxations, both sound because they drop the same-register
/// coupling between decisions:
///  * every unassigned access must be *entered* either by opening a
///    fresh register (free) or by an intra transition from some earlier
///    access — charging each access its cheapest incoming transition,
///    minus one free entry per still-unused register, never
///    overestimates;
///  * every open register eventually wraps from its final access back to
///    its first — the cheapest wrap over "stop now" and every possible
///    future final access never overestimates.
/// The components are disjoint (intra transitions into unassigned
/// accesses vs. wrap transitions), so their sum is admissible too.
class SuffixBounds {
 public:
  /// Above this many accesses the O(N^2) tables are not built and every
  /// bound degrades to the trivial (still admissible) zero — the search
  /// then falls back to incumbent-only pruning instead of exhausting
  /// memory on instances it could never finish anyway.
  static constexpr std::size_t kDenseLimit = 512;

  SuffixBounds(const ir::AccessSequence& seq, const CostModel& model);

  /// False when the instance exceeded kDenseLimit and the trivial
  /// bounds are in effect.
  bool dense() const { return dense_; }

  /// Sum over unassigned accesses j in [from, N) of the cheapest
  /// incoming intra transition cost min_{p < j} cost(p -> j).
  int cheapest_incoming_suffix(std::size_t from) const;

  /// Lower bound on the eventual wrap cost of an open register whose
  /// path currently runs first .. last, when any subset of [from, N)
  /// may still be appended to it.
  int wrap_floor(std::size_t first, std::size_t last,
                 std::size_t from) const;

  /// Cached wrap_transition_cost(last -> first) (0 under the trivial
  /// bounds). The search caches this per open register so bound
  /// evaluation never touches the O(N^2) tables.
  int wrap_direct(std::size_t last, std::size_t first) const;

  /// One past the largest access j with wrap_direct(j, first) == 0 —
  /// costs are 0/1, so wrap_floor(first, last, from) is nonzero iff
  /// wrap_direct(last, first) != 0 and from >= this horizon. 0 when no
  /// zero-cost final access exists for `first`; SIZE_MAX under the
  /// trivial bounds (the floor is always 0 there).
  std::size_t wrap_zero_horizon(std::size_t first) const;

  /// Bound on the whole problem (the empty assignment) with `registers`
  /// registers available; a proven optimum can never be below this.
  int root_lower_bound(std::size_t registers) const;

 private:
  std::size_t n_ = 0;
  bool dense_ = true;
  /// suffix_incoming_[t] = sum_{j >= t} min_{p < j} cost(p -> j).
  std::vector<int> suffix_incoming_;
  /// wrap_direct_[l * n + f] = wrap cost of f following l.
  std::vector<int> wrap_direct_;
  /// wrap_suffix_min_[t * n + f] = min_{j >= t} wrap_direct_[j][f]
  /// (row t == n holds an INT_MAX empty-minimum sentinel).
  std::vector<int> wrap_suffix_min_;
  /// wrap_zero_horizon_[f] = 1 + max{j : wrap_direct_[j][f] == 0}, or
  /// 0 when no zero-cost final access exists.
  std::vector<std::size_t> wrap_zero_horizon_;
};

}  // namespace dspaddr::core
