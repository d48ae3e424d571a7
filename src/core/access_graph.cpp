#include "core/access_graph.hpp"

#include "support/check.hpp"

namespace dspaddr::core {

namespace {

const CostModel& valid_model(const CostModel& model) {
  check_arg(model.valid(),
            "AccessGraph: modify window [lo, hi] must contain 0");
  return model;
}

}  // namespace

AccessGraph::AccessGraph(const ir::AccessSequence& seq,
                         const CostModel& model)
    : costs_(seq, valid_model(model)), intra_(seq.size()) {
  const std::size_t n = seq.size();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (costs_.intra_cost(i, j) == 0) {
        intra_.add_edge(static_cast<graph::NodeId>(i),
                        static_cast<graph::NodeId>(j));
      }
    }
  }
}

bool AccessGraph::wrap_edge(std::size_t last, std::size_t first) const {
  const std::size_t n = node_count();
  check_arg(last < n && first < n, "AccessGraph: node out of range");
  return costs_.wrap_direct(last, first) == 0;
}

}  // namespace dspaddr::core
