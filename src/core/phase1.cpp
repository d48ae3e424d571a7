#include "core/phase1.hpp"

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/exact.hpp"
#include "graph/matching.hpp"

namespace dspaddr::core {

namespace {

/// A zero-cost allocation closes every register into a cycle of free
/// edges: intra edges i -> j (i < j) along the path, then the wrap edge
/// from its last access back to its first (a self-loop for a singleton).
/// Those successors form a permutation, so a zero-cost cover with any
/// number of registers needs a perfect matching of the free intra plus
/// free wrap (last >= first) edges.
bool admits_zero_cost_cycle_cover(
    const SuffixBounds& costs,
    const std::vector<SuffixBounds::Edge>& intra_edges) {
  const std::size_t n = costs.size();
  std::vector<SuffixBounds::Edge> edges = intra_edges;
  for (std::size_t last = 0; last < n; ++last) {
    for (std::size_t first = 0; first <= last; ++first) {
      if (costs.wrap_direct(last, first) == 0) {
        edges.emplace_back(static_cast<std::uint32_t>(last),
                           static_cast<std::uint32_t>(first));
      }
    }
  }
  return graph::hopcroft_karp(n, n, edges).size == n;
}

}  // namespace

Phase1Result compute_min_register_cover(const SuffixBounds& costs) {
  Phase1Result result;
  const std::size_t n = costs.size();
  if (n == 0) {
    result.k_tilde = 0;
    result.exact = true;
    return result;
  }

  // The lower bound, the cycle-cover test and the acyclic cover read
  // the free intra edges. Above kDenseLimit each enumeration sweeps all
  // N(N-1)/2 pairs through the cost model, so a run enumerates them at
  // most once, on first use.
  std::optional<std::vector<SuffixBounds::Edge>> free_edges;
  const auto edges = [&]() -> const std::vector<SuffixBounds::Edge>& {
    if (!free_edges.has_value()) free_edges = costs.free_intra_edges();
    return *free_edges;
  };

  result.lower_bound = costs.dense()
                           ? lower_bound_registers(costs)
                           : n - graph::hopcroft_karp(n, n, edges()).size;

  // Under the acyclic model the matching cover is the exact optimum.
  if (costs.model().wrap == WrapPolicy::kAcyclic) {
    result.cover = acyclic_optimal_cover(costs, edges());
    result.k_tilde = result.cover.size();
    result.upper_bound = result.cover.size();
    result.exact = true;
    return result;
  }

  std::optional<std::vector<Path>> greedy = greedy_zero_cost_cover(costs);
  if (greedy.has_value()) {
    result.upper_bound = greedy->size();
    result.k_tilde = greedy->size();
    result.cover = std::move(*greedy);
  }

  if (result.k_tilde == result.lower_bound) {
    result.exact = true;
  } else if (!greedy.has_value() &&
             !admits_zero_cost_cycle_cover(costs, edges())) {
    // No zero-cost cover at any register count: decided without search.
    result.exact = true;
  } else if (n <= kPhase1SearchAccessLimit) {
    // Ask for a cover one register smaller than the best known (or, with
    // no cover yet, for any cover at all) until none exists or the
    // matching bound is reached.
    result.exact = true;
    std::uint64_t budget = kPhase1NodeBudget;
    std::size_t registers = result.k_tilde.value_or(n + 1) - 1;
    while (registers >= result.lower_bound) {
      ZeroCostCover smaller = zero_cost_cover(costs, registers, budget);
      result.search_nodes += smaller.nodes;
      budget -= smaller.nodes;
      if (!smaller.paths.has_value()) {
        result.exact = smaller.proven;
        break;
      }
      result.cover = std::move(*smaller.paths);
      result.k_tilde = result.cover.size();
      registers = result.cover.size() - 1;
    }
  }

  if (!result.k_tilde.has_value()) {
    result.cover = acyclic_optimal_cover(costs, edges());
  }
  return result;
}

}  // namespace dspaddr::core
