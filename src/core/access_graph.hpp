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
#pragma once

#include <vector>

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

  const ir::AccessSequence& sequence() const { return seq_; }
  const CostModel& model() const { return model_; }

private:
  ir::AccessSequence seq_;
  CostModel model_;
  graph::Digraph intra_;
  // wrap_ok_[last * N + first]; materialized because phase 1's greedy
  // cover and its split repair query it repeatedly.
  std::vector<bool> wrap_ok_;
};

}  // namespace dspaddr::core
