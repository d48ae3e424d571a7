// The graph model G = (V, E) of the access pattern (paper section 2,
// Fig. 1).
//
// Nodes are the N accesses in sequence order. An intra-iteration edge
// (a_i, a_j), i < j, exists iff computing a_j's address from a_i's is a
// free post-modify (|distance| <= M): "no unit-cost computation would be
// incurred if a_i, a_j shared an address register". Inter-iteration
// (wrap) edges represent the same relation from an access in iteration t
// to an access in iteration t+1; they determine whether a register's
// path can be closed at zero cost across the loop back-edge.
//
// Both relations live once, in the graph's step-cost table
// (SuffixBounds): the digraph is built from its rows and wrap_edge
// reads them. The allocator hands that table to every phase-1
// question, the merger and the phase-2 solve of the request.
#pragma once

#include "core/bounds.hpp"
#include "core/cost_model.hpp"
#include "graph/digraph.hpp"
#include "ir/access_sequence.hpp"

namespace dspaddr::core {

/// The zero-cost graph model of one access sequence.
class AccessGraph {
public:
  AccessGraph(const ir::AccessSequence& seq, const CostModel& model);

  std::size_t node_count() const { return intra_.node_count(); }

  /// DAG of intra-iteration zero-cost edges (i < j only).
  const graph::Digraph& intra() const { return intra_; }

  /// True iff the transition from access `last` (iteration t) to access
  /// `first` (iteration t+1) is zero-cost. Under WrapPolicy::kAcyclic
  /// this is always true (the boundary is never charged).
  bool wrap_edge(std::size_t last, std::size_t first) const;

  const ir::AccessSequence& sequence() const { return costs_.sequence(); }
  const CostModel& model() const { return costs_.model(); }

  /// The step-cost table both relations are read from.
  const SuffixBounds& costs() const { return costs_; }

private:
  SuffixBounds costs_;
  graph::Digraph intra_;
};

}  // namespace dspaddr::core
