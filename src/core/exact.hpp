// Exact branch-and-bound over register assignments — the one search
// core of the allocator. It answers two questions:
//  * phase 2 (exact_min_cost_allocation): the minimum-cost allocation
//    onto at most K registers — the optimality oracle for the two-phase
//    heuristic and the default phase-2 solver for realistically sized
//    kernels;
//  * phase 1 (zero_cost_cover): whether any zero-cost allocation onto
//    at most k registers exists — the question core/phase1.hpp asks
//    with shrinking k to compute K~ (paper section 3.1).
//
// The paper's heuristic decomposes the problem (zero-cost cover, then
// cost-guided merging); phase 2 solves the original problem directly:
// over all partitions of the access sequence into at most K
// order-preserving subsequences, find one of minimum total cost under
// the cost model. Phase 1 is the same search with the incumbent preset
// to cost 1, so the admissible bound cuts every partial assignment that
// would pay anything and the first zero-cost leaf ends the search.
//
// Search shape: accesses are assigned in sequence order; a state is the
// (first, last) pair per register, keyed for dominance by what its
// future can still see (below). The search itself is *flat*: an
// explicit frame stack over an arena of candidate moves replaces
// recursion, so a subtree can start from any pinned prefix — the
// mechanism behind both work-stealing donation (below) and the tiled
// window solver (core/tiled.hpp). Four prunings keep the exponential
// tree tractable:
//  * an admissible lower bound on the unassigned suffix, maintained
//    incrementally (core/bounds.hpp), the larger of two. The first adds
//    a matching term and a wrap term. The matching term is
//    |U| - unused - M: M is a maximum matching of the free intra edges
//    from the open registers' last accesses and the unassigned set U
//    into U (core::ResidualMatching), repaired by at most two
//    augmenting searches per assign and restored from an undo trail on
//    backtrack; at the root it is phase 1's matching bound
//    max(0, K~acyc - K). The wrap term caches each open register's wrap
//    cost and zero-wrap horizon, updated O(1) on assign/undo. The
//    second is the value of the register-cycle assignment of the
//    search's start state (core::CycleDuals), walked down to the
//    current state: every register of a completion is a cycle, so each
//    access of U and each open register's first access takes one
//    predecessor — a step from an earlier access (intra cost), or its
//    register's final access (wrap cost), priced λ more when it opens
//    a new register. The optimum less λ * (K - used) bounds the intra
//    and wrap cost still to pay, for any λ >= 0; the build raises an
//    integer λ from 0 while that value rises. An append deletes one row
//    and one column of the assignment, so the value drops by two duals;
//    an opening at q frees a register's λ less what keeping the duals
//    feasible costs, so it rises by a gain the build tabulates per
//    access: O(1) per assign/undo either way. Phase 2 builds it at a
//    searcher's first 1024-node checkpoint (each stolen subtree builds
//    its own), when at most CycleDuals::kMaxRows (128) accesses were
//    unassigned at its start; the build (the Hungarian method with warm
//    re-solves per λ step) took 0.05-0.16 ms at 28-32 unassigned
//    accesses and about 0.3 ms at 48-56 on a 4-vCPU Xeon VM. Phase 1
//    never builds it;
//  * register symmetry breaking: only the lowest-numbered unused
//    register is ever opened, and extending a register whose (first,
//    last) accesses are value-identical (same offset and stride) to an
//    earlier register's is skipped — the subtrees are isomorphic;
//  * dominance pruning: a transposition table cuts any branch that
//    reaches an already-seen key at no lower cost (off for K > 8). The
//    key is the next access and the sorted multiset of the registers'
//    core::register_key words: each endpoint becomes its value class
//    (the smallest access with the same offset and stride), or a FREE or
//    PAID sentinel once every step or wrap still ahead of it costs the
//    same. Equal keys have equal completion costs, so the cut state
//    holds no leaf cheaper than one already explored and the search
//    records the same leaves as with raw (first, last) indices, on
//    fewer nodes. A sequential solve's table is a flat open-addressing
//    array whose slots are sized to its K, with 16-bit fields while the
//    key's values (N plus four sentinels) fit and 32-bit ones above
//    (core/transposition_table.hpp);
//  * move ordering: cheapest transition first, so good incumbents
//    appear early and the incumbent bound bites sooner. Phase 1 breaks
//    ties nearest endpoint first (fresh register last), so its covers
//    follow the greedy's preference.
// With `jobs > 1` (library-only, see ExactOptions::jobs) the phase-2
// search runs on a work-stealing runtime::StealPool: one root task
// explores the tree, and whenever the pool reports hungry workers a
// busy searcher donates its shallowest untried subtree (as a pinned
// prefix, at least 8 accesses deep) onto its own deque for an idle
// worker to steal — so deep unbalanced trees keep every worker fed
// instead of idling after a one-shot frontier wave. All tasks share
// the atomic incumbent and a striped transposition table: the *cost* of
// the result (and the proof) is identical at any jobs level, while the
// witness assignment may differ among cost ties and node / steal /
// split counts vary with scheduling.
// The search is *anytime*: it is seeded with a greedy incumbent (or the
// caller's warm start), honors node and wall-clock budgets, and on
// abort returns the best incumbent with `proven == false` and the
// optimality gap against the root lower bound.
// Every step and wrap cost the search, its seeds and its bound read
// comes from one SuffixBounds table (core/bounds.hpp), the request's
// only copy of the zero-cost graph. The allocator builds it once per
// request and passes it to every phase-1 question and the phase-2
// solve; the overloads without one build their own.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/cost_model.hpp"
#include "core/path.hpp"
#include "ir/access_sequence.hpp"

namespace dspaddr::core {

class SuffixBounds;

/// External cancellation for a search racing other work (the portfolio
/// engine, engine/portfolio.hpp). Both pointers are optional and read
/// with relaxed loads on the same ~1024-node cadence as the wall clock:
///  * `stop` — a shared kill switch; once true the search aborts and
///    returns its incumbent with `external_abort` set.
///  * `cost_bound` — the racing incumbent's cost. The search aborts as
///    soon as its proven lower bound *exceeds* the bound (strictly:
///    `lower_bound > *cost_bound`), because it can then never beat —
///    or even tie — a result someone else already has. The strict
///    comparison is what keeps portfolio winner selection
///    deterministic: a racer whose final cost ties the eventual
///    minimum is never bound-cancelled.
/// The pointed-to atomics must outlive the solve.
struct SearchAbortHook {
  const std::atomic<bool>* stop = nullptr;
  const std::atomic<int>* cost_bound = nullptr;

  bool armed() const { return stop != nullptr || cost_bound != nullptr; }

  /// True when the hook demands an abort for a search whose best
  /// proven lower bound is `lower_bound`.
  bool should_abort(int lower_bound) const {
    if (stop != nullptr && stop->load(std::memory_order_relaxed)) {
      return true;
    }
    return cost_bound != nullptr &&
           lower_bound > cost_bound->load(std::memory_order_relaxed);
  }
};

struct ExactOptions {
  /// Hard cap on search nodes; hitting it degrades `proven` to false
  /// but keeps the best incumbent. Shared across subtree tasks when
  /// `jobs > 1`.
  std::uint64_t max_nodes = 50'000'000;
  /// Wall-clock budget in milliseconds; 0 disables the clock. A timed
  /// abort keeps the best incumbent, like the node cap (but unlike it,
  /// makes results machine-dependent — leave at 0 when reproducibility
  /// matters). The clock is read every ~1024 nodes, not per node.
  std::int64_t time_budget_ms = 0;
  /// Worker threads of the search itself. 1 (the default) runs the
  /// exact sequential search; > 1 runs it on a work-stealing pool
  /// (runtime::StealPool) seeded with one root task that donates
  /// subtrees on demand. Proven costs are identical at any level; the
  /// witness assignment may differ among cost ties and node counts
  /// vary. No product surface sets it: the allocator, the tiled solver,
  /// the CLI and serve always search on one thread. Its only callers
  /// are perfbench/trace.cpp's work-stealing probe, bench_exact_gap's
  /// scaling and steal tables and their tests; the parallel path goes
  /// once the benchmark stops probing it.
  std::size_t jobs = 1;
  /// Transposition-table entry cap; 0 uses the built-in default
  /// (2^21). Lookups past the cap still prune (and are counted in
  /// ExactResult::table_cap_hits), only insertion stops.
  std::size_t table_cap = 0;
  /// Pin accesses [0, pinned_prefix.size()) to these registers and
  /// search only the completions. The pin must follow the fresh rule
  /// (register r first appears only after registers 0..r-1, i.e.
  /// first occurrences in increasing register order) so the state
  /// canonicalization stays valid. The reported cost includes the
  /// pinned transitions.
  std::vector<std::size_t> pinned_prefix;
  /// Optional warm-start incumbent: a valid allocation of the sequence
  /// onto at most `registers` registers (e.g. the two-phase heuristic's
  /// result) that agrees with `pinned_prefix`. The search then only
  /// explores improvements on it.
  std::vector<Path> warm_start;
  /// External cancellation (portfolio racing). Like the wall clock, an
  /// external abort keeps the best incumbent and degrades `proven`.
  SearchAbortHook abort;
};

struct ExactResult {
  std::vector<Path> paths;
  int cost = 0;
  /// True when the search completed (the cost is provably minimal;
  /// with a pinned prefix, minimal among its completions).
  bool proven = false;
  std::uint64_t nodes = 0;
  /// Best proven lower bound on the optimum: the cost itself when
  /// `proven`, otherwise the admissible root bound.
  int lower_bound = 0;
  /// Dominance lookups made while the transposition table was at its
  /// entry cap (insertion refused) — nonzero means a larger table
  /// could have pruned more.
  std::uint64_t table_cap_hits = 0;
  /// Tasks the work-stealing pool executed: the root task plus every
  /// donated subtree (0 for a sequential solve). Schedule-dependent at
  /// `jobs > 1` — donations happen exactly when workers go hungry —
  /// unlike the cost/proof, which never varies.
  std::uint64_t subtree_tasks = 0;
  /// Work-stealing diagnostics of a parallel solve, all exactly 0 at
  /// `jobs == 1` and schedule-dependent above it: subtrees donated by
  /// busy workers (`splits`), tasks idle workers took from a victim's
  /// deque (`steals`), and victim-deque probes (`steal_attempts`).
  std::uint64_t steals = 0;
  std::uint64_t steal_attempts = 0;
  std::uint64_t splits = 0;
  /// Wall microseconds workers spent inside tasks, summed across the
  /// pool (0 sequentially). With the solve's wall time this yields the
  /// worker-idle fraction; machine-dependent, never serialized.
  std::uint64_t worker_busy_us = 0;
  /// True when ExactOptions::abort cancelled the search (stop flag
  /// raised, or the root lower bound exceeded the external cost
  /// bound). The incumbent is still valid, just not proven.
  bool external_abort = false;

  /// Optimality gap of the incumbent (0 when proven).
  int gap() const { return cost - lower_bound; }
};

/// Minimum-cost allocation of `seq` onto at most `registers` address
/// registers under `model`. `registers` must be >= 1.
ExactResult exact_min_cost_allocation(const ir::AccessSequence& seq,
                                      const CostModel& model,
                                      std::size_t registers,
                                      const ExactOptions& options = {});

/// The same solve of the table's sequence under the table's model,
/// reading every cost from `costs` instead of building a table.
ExactResult exact_min_cost_allocation(const SuffixBounds& costs,
                                      std::size_t registers,
                                      const ExactOptions& options = {});

/// Answer of zero_cost_cover.
struct ZeroCostCover {
  /// A zero-cost allocation onto at most the asked number of registers,
  /// when the search found one.
  std::optional<std::vector<Path>> paths;
  /// True when the answer is conclusive: a cover was found, or the
  /// search exhausted the tree without one. False when the node budget
  /// ran out first.
  bool proven = false;
  /// Search nodes expanded (at most the budget).
  std::uint64_t nodes = 0;
};

/// Whether `seq` admits a zero-cost allocation onto at most `registers`
/// address registers under `model`, searching at most `max_nodes`
/// nodes. Sequential and deterministic: the same question always walks
/// the same tree and returns the same cover. `registers` must be >= 1.
ZeroCostCover zero_cost_cover(const ir::AccessSequence& seq,
                              const CostModel& model, std::size_t registers,
                              std::uint64_t max_nodes);

/// The same question about the table's sequence under the table's
/// model, asked on `costs`.
ZeroCostCover zero_cost_cover(const SuffixBounds& costs,
                              std::size_t registers, std::uint64_t max_nodes);

}  // namespace dspaddr::core
