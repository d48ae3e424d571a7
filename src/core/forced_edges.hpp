// Edge-forcing analysis (paper section 3.1): "Based on these bounds,
// one can quickly decide whether or not a certain graph edge must be
// included in the path cover."
//
// Under the acyclic model the minimum path cover corresponds to a
// maximum bipartite matching; an intra edge e is *mandatory* iff every
// maximum matching uses it, which holds exactly when the maximum
// matching of G - e is smaller than that of G. Dually, an edge is
// *useless* iff no maximum matching uses it (forcing it shrinks the
// matching). These classifications diagnose how constrained an instance
// is — instances with many mandatory edges are nearly trivially covered;
// instances with none give phase 1's exact search its hardest time.
#pragma once

#include <cstddef>
#include <vector>

#include "core/bounds.hpp"

namespace dspaddr::core {

/// Classification of one intra-iteration zero-cost edge.
enum class EdgeRole {
  /// Used by every maximum matching (hence by every minimum acyclic
  /// cover).
  kMandatory,
  /// Used by some but not all maximum matchings.
  kOptional,
  /// Used by no maximum matching.
  kUseless,
};

const char* to_string(EdgeRole role);

struct ClassifiedEdge {
  std::size_t from = 0;
  std::size_t to = 0;
  EdgeRole role = EdgeRole::kOptional;
};

/// Classifies every free intra edge of the table, in
/// SuffixBounds::free_intra_edges() order (acyclic-model reasoning;
/// O(E) matching recomputations — fine for the instance sizes phase 1
/// handles exactly).
std::vector<ClassifiedEdge> classify_edges(const SuffixBounds& costs);

/// Count of mandatory edges (convenience for benches).
std::size_t mandatory_edge_count(const SuffixBounds& costs);

}  // namespace dspaddr::core
