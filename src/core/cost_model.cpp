#include "core/cost_model.hpp"

namespace dspaddr::core {

namespace {

bool free_transition(std::optional<std::int64_t> distance,
                     const CostModel& model) {
  return distance.has_value() && model.free_distance(*distance);
}

}  // namespace

int intra_transition_cost(const ir::AccessSequence& seq, std::size_t p,
                          std::size_t q, const CostModel& model) {
  return free_transition(seq.intra_distance(p, q), model) ? 0 : 1;
}

int wrap_transition_cost(const ir::AccessSequence& seq, std::size_t last,
                         std::size_t first, const CostModel& model) {
  if (model.wrap == WrapPolicy::kAcyclic) return 0;
  return free_transition(seq.wrap_distance(last, first), model) ? 0 : 1;
}

}  // namespace dspaddr::core
