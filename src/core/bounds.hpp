// Lower and upper bounds on K~, the minimum number of virtual address
// registers admitting a zero-cost allocation (paper section 3.1), plus
// the step-cost table and admissible suffix bounds driving the exact
// search.
//
// * SuffixBounds: the request's zero-cost graph G = (V, E) (paper
//   section 2, Fig. 1) and its step costs, tabulated once per request
//   — bitset rows of the free intra edges and of the free wraps, the
//   root matching, and per access its value class and the horizons
//   past which its wraps in and steps out are all free or all paid —
//   and the admissible bounds they give on the cost still to be paid
//   by a partial assignment. Phase 1, the merger and the phase-2 solve
//   all read one table instead of calling the cost model; the exact
//   search's dominance key (register_key) reads the per-access arrays.
// * Lower bound: the minimum path cover of the free intra edges (a DAG:
//   every edge runs forward), N minus their maximum bipartite matching
//   — the technique of Araujo et al. [2]. Every zero-cost cover under
//   the cyclic model is in particular such a path cover, so its size is
//   bounded below by this value. The table's root matching is that
//   matching; above kDenseLimit, where the table keeps no rows,
//   Hopcroft-Karp computes it from the enumerated edges.
// * Upper bound: a greedy sweep that appends each access to the
//   zero-cost-compatible open path with the nearest endpoint, followed
//   by a split-repair pass that restores zero wrap cost. The result is a
//   valid zero-cost cover (hence an upper bound on K~) whenever one
//   exists.
// * ResidualMatching: a maximum matching of the free intra edges still
//   usable by a partial assignment, repaired incrementally as the
//   search assigns and undoes accesses — the same Araujo et al. bound,
//   applied at every search node instead of only at the root.
// * CycleDuals: every register of a completion is a cycle of steps and
//   one wrap, so a completion is an assignment of each access to its
//   predecessor; priced at the step and wrap costs, with a Lagrangian
//   price per register opened, that assignment bounds the intra plus
//   wrap cost still to pay. It is solved once by the Hungarian method;
//   its LP duals stay feasible below the solved state, so a search
//   keeps their sum as a bound at O(1) per move.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/cost_model.hpp"
#include "core/path.hpp"
#include "ir/access_sequence.hpp"

namespace dspaddr::core {

/// The step costs of one access sequence under one cost model, and
/// admissible lower bounds on the remaining cost of a partial phase-2
/// assignment (accesses [from, N) still unassigned).
///
/// Up to kDenseLimit accesses every intra and wrap cost is one bit of a
/// row built here, so a read is one load with no index check: callers
/// pass indices below size(). Above it no row is built, each read asks
/// the cost model, and the bounds are the trivial (still admissible)
/// zero.
///
/// Two relaxations, both sound because they drop the same-register
/// coupling between decisions:
///  * every unassigned access must be *entered* either by opening a
///    fresh register (free) or by an intra transition from an open
///    register's last access or from another unassigned access. Each
///    access has at most one successor in its register, so the free
///    entries form a matching on the free intra edges: at least
///    |U| - unused - M entries pay, with M a maximum such matching
///    (ResidualMatching, built on the bitset rows here);
///  * every open register eventually wraps from its final access back to
///    its first — the cheapest wrap over "stop now" and every possible
///    future final access never overestimates.
/// The components are disjoint (intra transitions into unassigned
/// accesses vs. wrap transitions), so their sum is admissible too.
/// CycleDuals prices both at once: each access's predecessor, a step or
/// its register's wrap, is one edge of an assignment.
class SuffixBounds {
 public:
  /// Above this many accesses the O(N^2) rows are not built and every
  /// bound degrades to the trivial (still admissible) zero — the search
  /// then falls back to incumbent-only pruning instead of exhausting
  /// memory on instances it could never finish anyway.
  static constexpr std::size_t kDenseLimit = 512;

  /// Requires a valid model (a window containing 0).
  SuffixBounds(const ir::AccessSequence& seq, const CostModel& model);

  /// False when the instance exceeded kDenseLimit and the trivial
  /// bounds are in effect.
  bool dense() const { return dense_; }

  /// Number of accesses.
  std::size_t size() const { return seq_.size(); }

  const ir::AccessSequence& sequence() const { return seq_; }
  const CostModel& model() const { return model_; }

  /// 64-bit words per bitset row.
  std::size_t row_words() const { return words_; }

  /// Bitset row of the free intra successors of access `from`: bit j is
  /// set iff j > from and the transition from -> j costs nothing. Dense
  /// bounds only.
  const std::uint64_t* free_successors(std::size_t from) const {
    return successors_.data() + from * words_;
  }

  /// Bitset row of the free intra predecessors of access `to`: bit p is
  /// set iff p < to and the transition p -> to costs nothing. Dense
  /// bounds only.
  const std::uint64_t* free_predecessors(std::size_t to) const {
    return predecessors_.data() + to * words_;
  }

  /// intra_transition_cost(p -> q) for p < q < size(), unchecked.
  int intra_cost(std::size_t p, std::size_t q) const {
    if (!dense_) return intra_transition_cost(seq_, p, q, model_);
    return has_bit(free_successors(p), q) ? 0 : 1;
  }

  /// wrap_transition_cost(last -> first) for indices below size(),
  /// unchecked.
  int wrap_direct(std::size_t last, std::size_t first) const {
    if (!dense_) return wrap_transition_cost(seq_, last, first, model_);
    return has_bit(wrap_free_.data() + last * words_, first) ? 0 : 1;
  }

  /// An intra edge (p, q), p < q, of the zero-cost graph.
  using Edge = std::pair<std::uint32_t, std::uint32_t>;

  /// The free intra edges in ascending (p, q) order — the edge set E of
  /// the zero-cost graph. Read off the rows when dense; above
  /// kDenseLimit each pair asks the cost model.
  std::vector<Edge> free_intra_edges() const;

  /// One past the largest access j with wrap_direct(j, first) == 0.
  /// Costs are 0/1, so an open register running first .. last with
  /// accesses [from, N) still unassigned must pay a wrap iff
  /// wrap_direct(last, first) != 0 and from >= this horizon: no
  /// access it may still end on closes it for free. 0 when no
  /// zero-cost final access exists for `first`; SIZE_MAX under the
  /// trivial bounds (the floor is always 0 there). Unchecked.
  std::size_t wrap_zero_horizon(std::size_t first) const {
    if (!dense_) return kNever;
    return wrap_zero_horizon_[first];
  }

  /// One past the largest access j with wrap_direct(j, first) != 0: from
  /// this access on every wrap into `first` is free. 0 when none pays;
  /// SIZE_MAX under the trivial bounds. Unchecked.
  std::size_t wrap_paid_horizon(std::size_t first) const {
    if (!dense_) return kNever;
    return wrap_paid_horizon_[first];
  }

  /// One past the largest access q > last with intra_cost(last, q) == 0:
  /// from this access on no step out of `last` is free. 0 when none is;
  /// SIZE_MAX under the trivial bounds. Unchecked.
  std::size_t free_successor_horizon(std::size_t last) const {
    if (!dense_) return kNever;
    return free_successor_horizon_[last];
  }

  /// One past the largest access q > last with intra_cost(last, q) != 0:
  /// from this access on every step out of `last` is free. 0 when none
  /// pays; SIZE_MAX under the trivial bounds. Unchecked.
  std::size_t paid_successor_horizon(std::size_t last) const {
    if (!dense_) return kNever;
    return paid_successor_horizon_[last];
  }

  /// The smallest access index with the same offset and stride as
  /// `access`. Every step and wrap cost depends on an access only
  /// through its offset and stride, so an access and its class cost the
  /// same everywhere. The access itself under the trivial bounds.
  /// Unchecked.
  std::size_t value_class(std::size_t access) const {
    if (!dense_) return access;
    return value_class_[access];
  }

  /// C(P) (core::path_cost) of a path over this sequence.
  int path_cost(const Path& path) const;

  /// Bound on the whole problem (the empty assignment) with `registers`
  /// registers available: max(0, K~acyc - registers), where K~acyc is
  /// N minus the maximum matching of the free intra edges (the matching
  /// bound phase 1 computes). A proven optimum can never be below this.
  int root_lower_bound(std::size_t registers) const;

 private:
  friend class ResidualMatching;

  /// The horizon of a cost that is never uniform (trivial bounds).
  static constexpr std::size_t kNever = static_cast<std::size_t>(-1);

  static bool has_bit(const std::uint64_t* row, std::size_t index) {
    return ((row[index / 64] >> (index % 64)) & 1) != 0;
  }

  ir::AccessSequence seq_;
  CostModel model_;
  bool dense_ = true;
  std::size_t words_ = 0;
  /// Row-major bitset rows of row_words() words each (see
  /// free_successors / free_predecessors).
  std::vector<std::uint64_t> successors_;
  std::vector<std::uint64_t> predecessors_;
  /// Row `last` has bit `first` set iff the wrap last -> first is free.
  std::vector<std::uint64_t> wrap_free_;
  /// wrap_zero_horizon_[f] = 1 + max{j : wrap j -> f is free}, or 0
  /// when no zero-cost final access exists; wrap_paid_horizon_ the same
  /// over the paid wraps.
  std::vector<std::size_t> wrap_zero_horizon_;
  std::vector<std::size_t> wrap_paid_horizon_;
  /// free_successor_horizon_[p] = 1 + max{q > p : p -> q is free}, or 0;
  /// paid_successor_horizon_ the same over the paid steps.
  std::vector<std::size_t> free_successor_horizon_;
  std::vector<std::size_t> paid_successor_horizon_;
  std::vector<std::size_t> value_class_;
  /// The maximum matching of the free intra edges over all accesses
  /// (ResidualMatching's partner slots) and its size: every solve
  /// without a pinned prefix starts from it.
  std::vector<std::uint32_t> root_partner_;
  std::size_t root_matching_ = 0;
};

/// Sentinel values a register_key() word may take beyond the access
/// indices: FREE(0), FREE(1), PAID(0) and PAID(1).
constexpr std::size_t kKeySentinels = 4;

/// One used register's word of the exact search's dominance key
/// (core/exact.hpp) at the state whose first unassigned access is
/// `next`: first_word << 32 | last_word for the register's accesses
/// `first` .. `last`, with `wrap` = wrap_direct(last, first). An
/// endpoint's word is its value_class(), or a sentinel once every cost
/// still ahead of it is the same: FREE(wrap) = N + wrap and PAID(wrap) =
/// N + 2 + wrap, all below N + kKeySentinels.
///  * `first` is FREE when every wrap j -> first with j >= next is free,
///    PAID when none is;
///  * `last` is FREE when every step last -> q with q >= next is free,
///    PAID when none is.
///
/// Why equal keys have equal completion costs: a register that stays
/// where it is pays `wrap`. Otherwise it pays intra_cost(last, q1), the
/// steps among later accesses and wrap_direct(final, first), with q1
/// and final both >= next. Each word fixes the term of its endpoint —
/// the class prices every step and wrap like the access, a sentinel
/// states the one cost left and carries `wrap` — and the later
/// accesses are the same in both states. So two states with the same
/// next and the same multiset of words (registers are interchangeable
/// under the fresh rule) map each other's completions one to one at
/// equal cost.
inline std::uint64_t register_key(const SuffixBounds& bounds,
                                  std::size_t next, std::size_t first,
                                  std::size_t last, int wrap) {
  const std::size_t n = bounds.size();
  const std::size_t free_word = n + static_cast<std::size_t>(wrap);
  const std::size_t paid_word = free_word + 2;
  std::size_t first_word = bounds.value_class(first);
  if (bounds.wrap_paid_horizon(first) <= next) {
    first_word = free_word;
  } else if (bounds.wrap_zero_horizon(first) <= next) {
    first_word = paid_word;
  }
  std::size_t last_word = bounds.value_class(last);
  if (bounds.paid_successor_horizon(last) <= next) {
    last_word = free_word;
  } else if (bounds.free_successor_horizon(last) <= next) {
    last_word = paid_word;
  }
  return (static_cast<std::uint64_t>(first_word) << 32) | last_word;
}

/// Matching-based lower bound on K~ (exact minimum under kAcyclic):
/// N minus the table's root matching, or minus a Hopcroft-Karp matching
/// of free_intra_edges() above kDenseLimit.
std::size_t lower_bound_registers(const SuffixBounds& costs);

/// The acyclic-optimal cover itself: the paths of a Hopcroft-Karp
/// matching of `edges`, the table's free_intra_edges() (used as the
/// phase-2 starting point when no zero-cost cyclic cover exists).
std::vector<Path> acyclic_optimal_cover(
    const SuffixBounds& costs, const std::vector<SuffixBounds::Edge>& edges);

/// Greedy zero-cost cover; the size of the returned cover is an upper
/// bound on K~. Returns nullopt when the greedy cannot produce one —
/// only possible when some access has |stride| > M (singletons no longer
/// close for free); a zero-cost cover may still exist in that case and
/// phase 1's exact search (core/phase1.hpp) decides.
std::optional<std::vector<Path>> greedy_zero_cost_cover(
    const SuffixBounds& costs);

/// Maximum matching of the free intra edges a partial assignment can
/// still use: left vertices are the open registers' last accesses plus
/// the unassigned accesses U, right vertices are U, and an edge p -> j
/// is a free intra transition (SuffixBounds' bitset rows). The search
/// assigns accesses in order, so U is always a suffix [next, N).
///
/// Assigning `next` deletes at most two vertices: right vertex `next`,
/// then the register's previous last access on the left (`next` itself
/// stays on the left as the register's new last). A deletion lowers the
/// maximum by at most one, and any augmenting path must start at the
/// vertex that lost its partner, so one augmenting search per deletion
/// keeps the matching maximum. Every write goes on an undo trail, so
/// undo() restores the previous matching exactly. Only the size is
/// read, and the maximum size is unique, so the bound does not depend
/// on which maximum matching the repairs happen to reach.
class ResidualMatching {
 public:
  /// Marks "no previous last access": the move opened a register.
  static constexpr std::size_t kNoAccess = static_cast<std::size_t>(-1);

  /// `bounds` must be dense and outlive the matching.
  explicit ResidualMatching(const SuffixBounds& bounds);

  /// Builds the matching from scratch for the state where accesses
  /// [0, next) are assigned and `lasts` are the open registers' last
  /// accesses, and clears the undo history.
  void rebuild(std::size_t next, const std::vector<std::size_t>& lasts);

  /// The state rebuild(0, {}) reaches, copied from the bounds' root
  /// matching instead of re-running Kuhn's algorithm.
  void start_at_root();

  /// Assigns access next() to a register whose last access was
  /// `previous_last` (kNoAccess when the move opens a register).
  void assign(std::size_t previous_last);

  /// Reverts the latest assign() not yet undone.
  void undo();

  /// The first unassigned access.
  std::size_t next() const { return next_; }

  /// Size of the maximum matching.
  std::size_t size() const { return size_; }

 private:
  friend class SuffixBounds;

  static constexpr std::uint32_t kFree = 0xffffffffu;

  /// One assign(): where its trail writes start, and what it changed.
  struct Step {
    std::size_t trail_begin;
    std::size_t previous_last;
    std::size_t size;
  };

  /// One overwritten partner slot: left vertices are [0, N), right
  /// vertices [N, 2N).
  struct Write {
    std::uint32_t slot;
    std::uint32_t partner;
  };

  void set_partner(std::size_t slot, std::uint32_t partner);
  void match(std::size_t left, std::size_t right);
  /// Augmenting search from an unmatched left vertex for an unmatched
  /// right vertex in U; true (and the matching grown by one) on success.
  bool augment_from_left(std::size_t left);
  /// Augmenting search from an unmatched right vertex for an unmatched
  /// left vertex.
  bool augment_from_right(std::size_t right);
  bool search_left(std::size_t left);
  bool search_right(std::size_t right);

  const SuffixBounds& bounds_;
  std::size_t n_;
  std::size_t words_;
  std::size_t next_ = 0;
  std::size_t size_ = 0;
  /// partner_[v] for left v in [0, N) and right v - N in [N, 2N).
  std::vector<std::uint32_t> partner_;
  std::vector<std::uint64_t> left_active_;
  /// Per-search visited sets, seeded with the inactive vertices so one
  /// mask both excludes them and marks the vertices already tried.
  std::vector<std::uint64_t> seen_left_;
  std::vector<std::uint64_t> seen_right_;
  std::vector<Write> trail_;
  std::vector<Step> steps_;
};

/// LP duals of the register-cycle assignment of a partial assignment,
/// the relaxation that prices wraps together with steps. In a
/// completion every register is a cycle: each access has one
/// predecessor, the access before it in its register or, for the
/// register's first access, its final one (the wrap). So a completion
/// is a permutation of
///  * rows, the accesses that still need a predecessor: the unassigned
///    accesses U = [next, N) and the open registers' first accesses,
///  * onto columns, the accesses that still need a successor: U and the
///    open registers' last accesses,
/// where an edge p -> q costs
///  * intra_cost(p, q) when p < q (a step);
///  * wrap_direct(p, q) when q is an open register's first access and p
///    is that register's own last access or any access of U (the
///    register's final access); never from another register's last;
///  * wrap_direct(p, q) + λ when q <= p are both in U: q opens a new
///    register whose final access is p, priced λ per register.
/// A completion on at most K registers is such a permutation with at
/// most K - used priced edges, so for every λ >= 0 the optimum minus
/// λ * (K - used) is a lower bound on the intra plus wrap cost still to
/// pay. Other permutations (cycles that close through several priced
/// edges) only lower the optimum. The value is concave in λ; the build
/// raises an integer λ from 0 while the value rises and keeps the
/// largest.
///
/// The Hungarian method solves the square assignment in O(rows^3);
/// each step of λ re-augments only the rows matched through a priced
/// edge, the duals staying feasible because costs only grow. It leaves
/// a row dual u and a column dual v per access with u[q] + v[p] <=
/// cost(p, q) and Σu + Σv = the optimum. A search move keeps the duals
/// feasible for the child's assignment:
///  * q after last access L deletes row q and column L (q takes L's
///    place as the register's last access; its edges to other
///    registers' firsts become forbidden, which only raises costs);
///  * q opening a register deletes nothing: row q becomes the new
///    first and column q the new last, and K - used drops by one, which
///    raises the value by λ. The edges into q, the wraps from the
///    accesses p >= q (all still unassigned when q opens), get λ
///    cheaper; with s their least reduced cost, u[q] drops by
///    max(0, λ - s) to stay feasible, so the value rises by min(λ, s),
///    tabulated once per access by the build.
/// By weak duality the value walked down this way never exceeds the
/// cost the child still has to pay, wraps included. A caller keeps it
/// at O(1) per move with price().
class CycleDuals {
 public:
  /// Largest |U| the search solves the assignment for; above it the
  /// search keeps the matching bound alone. One solve costs O(rows^3),
  /// and each λ step re-augments the rows matched through a priced
  /// edge: on a 4-vCPU Xeon VM a build at the empty prefix took
  /// 0.05-0.16 ms at 28-32 accesses, about 0.3 ms at 48-56, 1.3-1.5 ms
  /// at 64, 9-10 ms at 128 and 70-85 ms at 256.
  static constexpr std::size_t kMaxRows = 128;

  /// Solves the assignment for the state where accesses [0, next) are
  /// assigned, `firsts` and `lasts` are the open registers' first and
  /// last accesses (by register) and `registers` is K, at least the
  /// number of open registers and at least 1 while an access is
  /// unassigned. `bounds` must be dense.
  CycleDuals(const SuffixBounds& bounds, std::size_t next,
             const std::vector<std::size_t>& firsts,
             const std::vector<std::size_t>& lasts, std::size_t registers);

  /// The price per register the build kept.
  int lambda() const { return lambda_; }

  /// The bound at the solved state: Σu + Σv - λ * (K - used).
  int value() const { return value_; }

  /// The row dual of access q: one of U or of `firsts` (0 for any other
  /// access).
  int row(std::size_t q) const { return rows_[q]; }

  /// The column dual of access p: one of U or of `lasts` (0 for any
  /// other access).
  int column(std::size_t p) const { return columns_[p]; }

  /// How much the value drops when `access` (the first unassigned one)
  /// follows `previous_last`, or, with previous_last ==
  /// ResidualMatching::kNoAccess, opens a register: never positive for
  /// an opening, whose price is minus its gain.
  int price(std::size_t access, std::size_t previous_last) const {
    return previous_last == ResidualMatching::kNoAccess
               ? -opening_[access]
               : rows_[access] + columns_[previous_last];
  }

 private:
  int lambda_ = 0;
  int value_ = 0;
  /// Indexed by access; 0 outside U and the open registers' endpoints.
  std::vector<int> rows_;
  std::vector<int> columns_;
  /// Per access of U, how much the value rises when it opens a
  /// register: min(λ, the least reduced cost of a wrap into it).
  std::vector<int> opening_;
};

}  // namespace dspaddr::core
