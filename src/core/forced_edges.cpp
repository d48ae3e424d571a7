#include "core/forced_edges.hpp"

#include "graph/matching.hpp"

namespace dspaddr::core {

namespace {

using BipartiteEdges = std::vector<SuffixBounds::Edge>;

std::size_t matching_size(std::size_t n, const BipartiteEdges& edges) {
  return graph::hopcroft_karp(n, n, edges).size;
}

}  // namespace

const char* to_string(EdgeRole role) {
  switch (role) {
    case EdgeRole::kMandatory:
      return "mandatory";
    case EdgeRole::kOptional:
      return "optional";
    case EdgeRole::kUseless:
      return "useless";
  }
  return "unknown";
}

std::vector<ClassifiedEdge> classify_edges(const SuffixBounds& costs) {
  const std::size_t n = costs.size();
  const BipartiteEdges all = costs.free_intra_edges();
  const std::size_t base = matching_size(n, all);

  std::vector<ClassifiedEdge> classified;
  classified.reserve(all.size());
  for (std::size_t e = 0; e < all.size(); ++e) {
    const auto [from, to] = all[e];
    ClassifiedEdge entry;
    entry.from = from;
    entry.to = to;

    // Without e: does the maximum matching shrink?
    BipartiteEdges without;
    without.reserve(all.size() - 1);
    for (std::size_t other = 0; other < all.size(); ++other) {
      if (other != e) without.push_back(all[other]);
    }
    if (matching_size(n, without) < base) {
      entry.role = EdgeRole::kMandatory;
    } else {
      // Forcing e: match (from, to), drop both endpoints, re-match the
      // rest; e is usable by some maximum matching iff the total still
      // reaches base.
      BipartiteEdges forced;
      for (const auto& [u, v] : all) {
        if (u != from && v != to) forced.emplace_back(u, v);
      }
      entry.role = (1 + matching_size(n, forced) == base)
                       ? EdgeRole::kOptional
                       : EdgeRole::kUseless;
    }
    classified.push_back(entry);
  }
  return classified;
}

std::size_t mandatory_edge_count(const SuffixBounds& costs) {
  std::size_t count = 0;
  for (const ClassifiedEdge& edge : classify_edges(costs)) {
    if (edge.role == EdgeRole::kMandatory) ++count;
  }
  return count;
}

}  // namespace dspaddr::core
